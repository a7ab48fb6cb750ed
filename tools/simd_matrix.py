#!/usr/bin/env python3
"""Run rpacalc with the SIMD stencil rows on and off; demand identical bytes.

Usage:
    simd_matrix.py /path/to/rpacalc [workdir]

Drives the perfsmoke_simd_matrix ctest (bench/CMakeLists.txt): a tiny
fp64 Sternheimer job is run twice, with `SIMD: 1` and `SIMD: 0`, and the
two outputs are held to the SIMD contract documented in DESIGN.md
("Precision model"): the vectorized and scalar stencil rows must produce
byte-identical energy output.

Exit status 0 when both runs succeed and agree, 1 otherwise.
"""

import os
import re
import subprocess
import sys
import tempfile

BASE_CONFIG = """\
# perfsmoke matrix point: small enough for seconds-scale runs, large
# enough that the SIMD interior-row kernels actually engage. The dynamic
# block-size ladder (Algorithm 4) selects block sizes from measured wall
# time, so it is pinned off: timing-adaptive schedules are exempt from
# the bitwise contract (DESIGN.md), and SIMD changes the timings.
N_CELLS: 1
GRID_PER_CELL: 7
FD_RADIUS: 3
N_EIG_PER_ATOM: 4
N_NUCHI_EIGS: 16
N_OMEGA: 2
TOL_EIG: 4e-3 2e-3
TOL_STERN_RES: 1e-2
MAXIT_FILTERING: 10
CHEB_DEGREE_RPA: 2
FLAG_COCGINITIAL: 1
DYNAMIC_BLOCK: 0
BLOCK_SIZE: 4
"""

ENERGY_PAT = re.compile(
    r"Total RPA correlation energy: (\S+) \(Ha\), (\S+) \(Ha/atom\)")


def run_cell(rpacalc, workdir, simd):
    name = f"matrix_simd{simd}"
    with open(f"{workdir}/{name}.rpa", "w") as f:
        f.write(BASE_CONFIG)
        f.write(f"SIMD: {simd}\n")
    proc = subprocess.run([rpacalc, "-name", name], capture_output=True,
                          text=True, cwd=workdir)
    if proc.returncode != 0:
        print(f"  FAIL: simd={simd}: rpacalc exited {proc.returncode}\n"
              f"{proc.stderr}")
        return None
    with open(f"{workdir}/{name}.out") as f:
        text = f.read()
    m = ENERGY_PAT.search(text)
    if m is None:
        print(f"  FAIL: simd={simd}: no energy line in {name}.out")
        return None
    print(f"  simd={simd}: E = {m.group(1)} Ha ({m.group(2)} Ha/atom)")
    # Canonical form for the bitwise comparison: drop wall-clock lines and
    # the config echo (which prints the SIMD knob itself).
    return "\n".join(
        line for line in text.splitlines()
        if not re.search(r"\d+\.\d+ s(ec)?$", line)
        and not line.startswith("SIMD:"))


def main():
    if len(sys.argv) < 2:
        print(__doc__)
        return 2
    rpacalc = os.path.abspath(sys.argv[1])
    workdir = sys.argv[2] if len(sys.argv) > 2 else tempfile.mkdtemp(
        prefix="rsrpa_matrix_")
    os.makedirs(workdir, exist_ok=True)

    simd_on, simd_off = run_cell(rpacalc, workdir, 1), run_cell(
        rpacalc, workdir, 0)
    if simd_on is None or simd_off is None:
        print("simd_matrix: one or more runs failed")
        return 1
    if simd_on != simd_off:
        print("  FAIL: SIMD and scalar stencil paths disagree "
              "(bitwise contract violated)")
        return 1
    print("simd_matrix: OK (SIMD and scalar outputs byte-identical)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
