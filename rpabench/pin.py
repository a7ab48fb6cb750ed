#!/usr/bin/env python3
"""Regenerates rpabench/pins.json: the oracle energy of every workload at
every pinned crystal seed, and the exact-count fingerprint of each
deterministic (fixed block size) workload. Run from the checkout root:

    python3 rpabench/pin.py

The oracle is the direct backend on the same input: the workload's .rpa
with its CHECKPOINT and METHOD keys removed and `METHOD: direct` and
`DIRECT_FULL_TRACE: 0` added (full dense chi0, trace truncated to the
same N_NUCHI_EIGS), i.e. for crystal seed S:

    rpacalc -name <workload>    # <workload>.rpa = that text + "SEED: S"

It shares the system build with the run it checks but none of the
Sternheimer, subspace-iteration or elision code.
"""
import json
import os
import sys

import run

CRYSTAL_SEEDS = [7, 11, 19, 23]
TOLERANCE_HA_PER_ATOM = 1e-4
DETERMINISTIC = ("si_elide_ckpt",)


def oracle_input(workload, cseed):
    text = run.workload_input(workload, cseed)
    keep = [l for l in text.splitlines()
            if not l.startswith(("CHECKPOINT:", "METHOD:"))]
    return "\n".join(keep + ["METHOD: direct", "DIRECT_FULL_TRACE: 0"]) + "\n"


def oracle(workload, cseed):
    r = run.run_rpacalc(workload, oracle_input(workload, cseed),
                        f"oracle{cseed}")
    if r["rc"] != 0 or r["report"] is None:
        sys.exit(f"pin.py: oracle run failed, see {r['cwd']}")
    print(f"{workload} seed {cseed}: direct E_RPA "
          f"{r['report']['e_rpa_per_atom']:.9f} Ha/atom ({r['wall']:.1f} s)")
    return r["report"]["e_rpa_per_atom"]


def main():
    run.build()
    pins = {"tolerance_ha_per_atom": TOLERANCE_HA_PER_ATOM,
            "crystal_seeds": CRYSTAL_SEEDS, "oracle": {}, "fingerprint": {}}
    for workload in run.WORKLOADS:
        pins["oracle"][workload] = {
            str(s): oracle(workload, s) for s in CRYSTAL_SEEDS}
    # The ISDF probe runs at the default crystal only.
    pins["oracle"][run.ISDF_PROBE] = {"7": oracle(run.ISDF_PROBE, None)}
    for workload in DETERMINISTIC:
        pins["fingerprint"][workload] = {}
        for s in CRYSTAL_SEEDS:
            r = run.run_rpacalc(workload, run.workload_input(workload, s),
                                f"pin{s}")
            c = run.counters(r["report"])
            pins["fingerprint"][workload][str(s)] = {
                k: c[k] for k in run.FINGERPRINT}
            err = abs(r["report"]["e_rpa_per_atom"]
                      - pins["oracle"][workload][str(s)])
            print(f"{workload} seed {s}: {r['wall']:.1f} s, |E - oracle| "
                  f"{err:.2e} Ha/atom, {pins['fingerprint'][workload][str(s)]}")
    with open(os.path.join(run.BENCH, "pins.json"), "w") as f:
        json.dump(pins, f, indent=1)
        f.write("\n")


if __name__ == "__main__":
    main()
