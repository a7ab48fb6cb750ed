#!/usr/bin/env python3
"""End-to-end benchmark of rsrpa: time to a converged E_RPA through the
`rpacalc -name <input>` command line, with an outside-in layer trace.

Run from the root of a source checkout:

    python3 rpabench/run.py --workload si8_sternheimer --seed 1 \
        --seconds 50 --trace 0

The first call builds rpacalc and the layer-replay harness into
.bench_build/ (rpabench/CMakeLists.txt). With --trace 0 the workload's
`rpacalc` run is repeated while the next run is expected to end within
--seconds, after a few short set-up probes, and the end-to-end metrics
are medians over those runs. With --trace 1 the per-layer metrics
come from one untraced and one traced rpacalc run, the program's own
counters in <name>.report.json, and the replay harness. Every run's
E_RPA is checked against a pinned direct-method oracle (pins.json).
The last line of stdout is the JSON result. See rpabench/README.md.
"""
import argparse
import json
import os
import re
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.getcwd()
BUILD = os.path.join(ROOT, ".bench_build")
RPACALC = os.path.join(BUILD, "rsrpa", "examples", "rpacalc")
REPLAY = os.path.join(BUILD, "rpabench_replay")
WORKLOADS = ("si8_sternheimer", "si_elide_ckpt")
ISDF_PROBE = "si8_isdf_probe"
# Counters of a deterministic run that must repeat exactly (pins.json).
FINGERPRINT = ("rpa.chi0_applies", "solver.columns", "rpa.filter_iterations",
               "rpa.points_elided")
CLK_TCK = os.sysconf("SC_CLK_TCK")
# Set-up probes per untraced run, half before and half after the timed
# runs: the workload input cut down to one cheap quadrature point, so each
# probe (~0.1 s) is almost all set-up. Set-up is ~50 ms, so it needs many
# samples for a steady median.
SETUP_PROBES = 30
PROBE_DROP = ("N_OMEGA:", "N_NUCHI_EIGS:", "TOL_EIG:", "MAXIT_FILTERING:",
              "CHECKPOINT:", "SSA_")
PROBE_KEYS = ("N_OMEGA: 1", "N_NUCHI_EIGS: 8", "MAXIT_FILTERING: 0")


def load_pins():
    with open(os.path.join(BENCH, "pins.json")) as f:
        return json.load(f)


def crystal_seed(pins, seed):
    """--seed picks one of the pinned crystals (atom jitter RNG seeds)."""
    seeds = pins["crystal_seeds"]
    return seeds[seed % len(seeds)]


def workload_input(workload, cseed):
    """The workload's .rpa text with its crystal seed appended (None keeps
    the input's own seed)."""
    with open(os.path.join(BENCH, "workloads", workload + ".rpa")) as f:
        text = f.read()
    return text + (f"SEED: {cseed}\n" if cseed is not None else "")


def setup_probe_input(text):
    """Every system key of the workload kept, the RPA stage cut to one
    point with 8 eigenvalues and no filter iterations."""
    keep = [l for l in text.splitlines() if not l.startswith(PROBE_DROP)]
    return "\n".join(keep + list(PROBE_KEYS)) + "\n"


def build():
    for path in ("CMakeLists.txt", "src", os.path.join("examples", "rpacalc.cpp")):
        if not os.path.exists(os.path.join(ROOT, path)):
            sys.exit(f"run.py: {path} not found; run from the root of an "
                     "rsrpa source checkout")
    os.makedirs(BUILD, exist_ok=True)
    steps = [["cmake", "--build", BUILD, "-j", str(os.cpu_count() or 1),
              "--target", "rpacalc", "rpabench_replay"]]
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        steps.insert(0, ["cmake", "-S", BENCH, "-B", BUILD,
                         "-DCMAKE_BUILD_TYPE=Release"])
    log = os.path.join(BUILD, "build.log")
    with open(log, "w") as f:
        for cmd in steps:
            if subprocess.run(cmd, stdout=f, stderr=subprocess.STDOUT).returncode:
                sys.exit(f"run.py: build failed, see {log}")


class CpuSampler:
    """The outside-in tracer: samples the child's CPU time from
    /proc/<pid>/stat every `period` seconds while it runs."""

    def __init__(self, pid, t0, period=0.05):
        self.samples = []  # (seconds since t0, child user+sys seconds)
        self._pid, self._t0, self._period = pid, t0, period
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run)
        self._thread.start()

    def _run(self):
        path = f"/proc/{self._pid}/stat"
        while not self._stop.wait(self._period):
            try:
                with open(path) as f:
                    fields = f.read().rsplit(")", 1)[1].split()
            except OSError:
                return
            cpu = (int(fields[11]) + int(fields[12])) / CLK_TCK
            self.samples.append((time.perf_counter() - self._t0, cpu))

    def stop(self):
        self._stop.set()
        self._thread.join()


def run_rpacalc(name, rpa_text, tag, trace=False):
    """One `rpacalc -name <name>` process in a fresh directory. Returns its
    wall time, rusage, exit status, stdout and parsed report."""
    cwd = os.path.join(BUILD, "runs", f"{name}-{tag}")
    shutil.rmtree(cwd, ignore_errors=True)
    os.makedirs(cwd)
    with open(os.path.join(cwd, name + ".rpa"), "w") as f:
        f.write(rpa_text)
    with open(os.path.join(cwd, "stdout.txt"), "w") as out, \
            open(os.path.join(cwd, "stderr.txt"), "w") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen([RPACALC, "-name", name], cwd=cwd,
                                stdout=out, stderr=err)
        sampler = CpuSampler(proc.pid, t0) if trace else None
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            if sampler:
                sampler.stop()
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    with open(os.path.join(cwd, "stdout.txt")) as f:
        stdout = f.read()
    report = None
    report_path = os.path.join(cwd, name + ".report.json")
    if os.path.exists(report_path):
        with open(report_path) as f:
            doc = json.load(f)
        report = doc.get(doc.get("method", ""))
    run = {"cwd": cwd, "wall": wall, "rc": proc.returncode, "stdout": stdout,
           "report": report, "cpu_s": usage.ru_utime + usage.ru_stime,
           "rss_mb": usage.ru_maxrss / 1024.0,
           "cpu_samples": sampler.samples if sampler else []}
    # Everything outside the quadrature driver: exec, config parse,
    # rpa::build_system (crystal, H, CheFSI ground state, Kronecker nu)
    # and the report writes.
    run["setup"] = wall - report["total_seconds"] if report else wall
    return run


def counters(report):
    """Per-layer counters and timers from the program's own report."""
    applies = [e["fields"] for e in report.get("events", [])
               if e["kind"] == "apply_counters"]
    stern = report.get("sternheimer", {})
    timers = report.get("timers", {})
    per_omega = report.get("per_omega", [])
    apply_s = sum(a["seconds"] for a in applies)
    n_applies = sum(a["applies"] for a in applies)
    bytes_ = sum(a["bytes"] for a in applies)
    elided = sum(1 for p in per_omega if p.get("elided"))
    candidates = sum(1 for p in per_omega if "elided" in p)
    return {
        "rpa.chi0_applies": len(applies),
        "rpa.filter_iterations": sum(p.get("filter_iterations", 0)
                                     for p in per_omega),
        "rpa.nu_chi0_apply_s": timers.get("nu_chi0_apply", 0.0),
        "rpa.eval_error_s": timers.get("eval_error", 0.0),
        "rpa.matmult_s": timers.get("matmult", 0.0),
        "rpa.eigensolve_s": timers.get("eigensolve", 0.0),
        "rpa.points_elided": elided,
        "rpa.elide_accept_frac": elided / candidates if candidates else 0.0,
        "solver.columns": stern.get("matvec_columns", 0),
        "solver.chunks": stern.get("total_chunks", 0),
        "solver.block_width_mean":
            sum(a["columns"] for a in applies) / n_applies if n_applies else 0.0,
        "solver.stern_s": stern.get("seconds", 0.0),
        "solver.restarts": stern.get("restarts", 0),
        "solver.quarantined": stern.get("quarantined_columns", 0),
        "solver.non_apply_s": stern.get("seconds", 0.0) - apply_s,
        "hamiltonian.shifted_applies": n_applies,
        "hamiltonian.shifted_apply_s": apply_s,
        "hamiltonian.computed_gbps": bytes_ / apply_s * 1e-9 if apply_s else 0.0,
        "hamiltonian.flops_per_byte":
            sum(a["flops"] for a in applies) / bytes_ if bytes_ else 0.0,
    }


class Gate:
    """The correctness check of one workload input: the pinned oracle
    energy and, for a deterministic workload, the pinned counters."""

    def __init__(self, workload, cseed, text, pins):
        self.n_points = int(re.search(r"^N_OMEGA:\s*(\d+)", text, re.M)[1])
        self.oracle = pins["oracle"][workload][str(cseed)]
        self.tolerance = pins["tolerance_ha_per_atom"]
        self.pinned = pins["fingerprint"].get(workload, {}).get(str(cseed))


def verdict(run, gate):
    """Failed quadrature points of one run (non-converged or quarantined;
    all of them when the run crashed or missed the oracle), its oracle
    error, and the fingerprint counters that drifted."""
    n_points = gate.n_points
    rep = run["report"]
    v = {"points": n_points, "failed": n_points, "err": None, "drift": []}
    if rep is None or run["rc"] not in (0, 1):
        return v
    v["failed"] = sum(1 for p in rep["per_omega"]
                      if not p["converged"] or p.get("quarantined_columns", 0))
    v["err"] = abs(rep["e_rpa_per_atom"] - gate.oracle)
    if v["err"] > gate.tolerance:
        v["failed"] = n_points
    if gate.pinned:
        c = counters(rep)
        v["drift"] = [k for k in FINGERPRINT if c[k] != gate.pinned[k]]
    return v


def describe(tag, run, v):
    c = counters(run["report"]) if run["report"] else {}
    err = "n/a" if v["err"] is None else f"{v['err']:.2e}"
    ok = "PASS" if v["failed"] == 0 and not v["drift"] else "FAIL"
    fp = " ".join(f"{k}={c.get(k)}" for k in FINGERPRINT)
    drift = f" DRIFT({','.join(v['drift'])})" if v["drift"] else ""
    print(f"  {tag}: wall {run['wall']:.3f} s, setup {run['setup']:.4f} s, "
          f"rss {run['rss_mb']:.1f} MB, rc {run['rc']}, failed "
          f"{v['failed']}/{v['points']} points, |E - oracle| {err} "
          f"Ha/atom: {ok}{drift} [{fp}]")


def metric(value, unit):
    return {"value": value, "unit": unit}


def end_to_end(workload, cseed, seconds, pins):
    text = workload_input(workload, cseed)
    gate = Gate(workload, cseed, text, pins)
    probe_text = setup_probe_input(text)

    def setup_probes(first, count):
        probes = [run_rpacalc(workload, probe_text, f"setup{first + i}")
                  for i in range(count)]
        for p in probes:
            if p["report"] is None:
                sys.exit("run.py: set-up probe wrote no report, see " + p["cwd"])
        return probes

    probes = setup_probes(0, SETUP_PROBES // 2)
    runs, verdicts = [], []
    # Time-boxed: start another run only while it is expected to end
    # inside the window, so a run takes about `seconds` on any machine.
    start = time.perf_counter()
    while not runs or (time.perf_counter() - start + statistics.median(
            r["wall"] for r in runs) <= seconds):
        run = run_rpacalc(workload, text, f"e2e{len(runs)}")
        v = verdict(run, gate)
        describe(f"run {len(runs)}", run, v)
        runs.append(run)
        verdicts.append(v)
    probes += setup_probes(len(probes), SETUP_PROBES - len(probes))
    attempted = sum(v["points"] for v in verdicts)
    failed = sum(v["failed"] for v in verdicts)
    metrics = {
        "wall_s": metric(statistics.median(r["wall"] for r in runs), "s"),
        "setup_s": metric(statistics.median(
            r["setup"] for r in probes + runs), "s"),
        "peak_rss_mb": metric(max(r["rss_mb"] for r in runs), "MB"),
    }
    correct = failed == 0 and not any(v["drift"] for v in verdicts)
    print(f"{workload} (crystal seed {cseed}, {len(runs)} runs): "
          + ", ".join(f"{k} {m['value']:.4f} {m['unit']}"
                      for k, m in metrics.items())
          + f", failed_frac {failed / attempted:.4f} ratio, oracle "
          + ("PASS" if correct else "FAIL"))
    return correct, attempted, failed, metrics


def chrome_events(run, pid):
    """Spans of one traced rpacalc run, rebuilt from outside: the process,
    its set-up and quadrature phases, one span per quadrature point laid
    end to end from the report's per-point seconds, and a CPU-use counter
    from the /proc samples."""
    us = 1e6
    setup = run["setup"]
    ev = [{"name": "rpacalc", "ph": "X", "pid": pid, "tid": 1, "ts": 0.0,
           "dur": run["wall"] * us, "args": {"id": 0}},
          {"name": "setup", "ph": "X", "pid": pid, "tid": 1, "ts": 0.0,
           "dur": setup * us, "args": {"id": 1, "parent_id": 0}}]
    rep = run["report"]
    t = setup
    ev.append({"name": "quadrature", "ph": "X", "pid": pid, "tid": 1,
               "ts": t * us, "dur": rep["total_seconds"] * us,
               "args": {"id": 2, "parent_id": 0}})
    for k, p in enumerate(rep["per_omega"]):
        args = {"id": 3 + k, "parent_id": 2, "reconstructed": True,
                "omega": p["omega"],
                "filter_iterations": p.get("filter_iterations", 0)}
        if "elided" in p:
            args["elided"] = p["elided"]
        ev.append({"name": f"omega[{k}]", "ph": "X", "pid": pid, "tid": 1,
                   "ts": t * us, "dur": p["seconds"] * us, "args": args})
        t += p["seconds"]
    prev = (0.0, 0.0)
    for ts, cpu in run["cpu_samples"]:
        if ts > prev[0]:
            ev.append({"name": "cpu_cores", "ph": "C", "pid": pid, "ts": ts * us,
                       "args": {"cores": (cpu - prev[1]) / (ts - prev[0])}})
        prev = (ts, cpu)
    return ev


def traced(workload, cseed, seed, pins):
    text = workload_input(workload, cseed)
    gate = Gate(workload, cseed, text, pins)
    plain = run_rpacalc(workload, text, "untraced")
    run = run_rpacalc(workload, text, "traced", trace=True)
    verdicts = [verdict(plain, gate), verdict(run, gate)]
    describe("untraced", plain, verdicts[0])
    describe("traced", run, verdicts[1])
    for r in (plain, run):
        if r["report"] is None:
            sys.exit("run.py: rpacalc wrote no report, see " + r["cwd"])

    lanes = os.cpu_count() or 1
    rpa_path = os.path.join(run["cwd"], workload + ".rpa")
    traces = os.path.join(BUILD, "traces")
    os.makedirs(traces, exist_ok=True)
    replay_trace = os.path.join(traces, f"{workload}-seed{seed}.replay.json")
    cmd = [REPLAY, rpa_path, str(lanes), replay_trace]
    ckpt = [os.path.join(run["cwd"], l.split(":", 1)[1].strip())
            for l in text.splitlines() if l.startswith("CHECKPOINT:")]
    if ckpt:
        cmd.append(ckpt[0])
    t0 = time.perf_counter()
    replay = json.loads(subprocess.run(cmd, check=True, capture_output=True,
                                       text=True).stdout)
    replay_wall = time.perf_counter() - t0

    rep = run["report"]
    m = counters(rep)
    m.update(replay)
    m["sched.cpu_util"] = plain["cpu_s"] / plain["wall"]
    writes = re.search(r"wrote (\d+) checkpoint", run["stdout"])
    m["io.checkpoint_writes"] = int(writes.group(1)) if writes else 0
    m["io.checkpoint_bytes"] = os.path.getsize(ckpt[0]) if ckpt else 0
    attributed = run["setup"] + sum(rep.get("timers", {}).values())
    m["trace.coverage"] = attributed / run["wall"]
    m["trace.overhead_s"] = run["wall"] - plain["wall"]

    events = chrome_events(run, pid=1)
    for name in ("isdf.select_s", "isdf.fit_s", "isdf.assemble_s",
                 "isdf.diagonalization_s", "isdf.eigensolve_s",
                 "isdf.oracle_error_ha_per_atom"):
        m[name] = 0.0
    if workload == "si8_sternheimer":
        # The ISDF layer is probed on the full Si8 input (see
        # workloads/si8_isdf_probe.rpa); its oracle miss is reported, not
        # gated on.
        probe = run_rpacalc(ISDF_PROBE, workload_input(ISDF_PROBE, None),
                            "probe")
        if probe["rc"] != 0 or probe["report"] is None:
            sys.exit("run.py: the ISDF probe failed, see " + probe["cwd"])
        t = probe["report"]["timers"]
        m["isdf.select_s"] = t["isdf_select"]
        m["isdf.fit_s"] = t["isdf_fit"]
        m["isdf.assemble_s"] = t["isdf_assemble"]
        m["isdf.diagonalization_s"] = t["diagonalization"]
        m["isdf.eigensolve_s"] = t["eigensolve"]
        m["isdf.oracle_error_ha_per_atom"] = abs(
            probe["report"]["e_rpa_per_atom"]
            - pins["oracle"][ISDF_PROBE]["7"])
        print(f"  isdf probe: wall {probe['wall']:.3f} s, |E - oracle| "
              f"{m['isdf.oracle_error_ha_per_atom']:.2e} Ha/atom (known "
              "defect, not gated)")

    with open(replay_trace) as f:
        events += json.load(f)["traceEvents"]
    for e in events:
        if e["pid"] == 2:  # replay spans start after the traced run ends
            e["ts"] += (run["wall"] + 1.0) * 1e6
    trace_path = os.path.join(traces, f"{workload}-seed{seed}.json")
    with open(trace_path, "w") as f:
        json.dump({"traceEvents": events, "displayTimeUnit": "ms"}, f)
    os.remove(replay_trace)
    print(f"  replay harness: {replay_wall:.3f} s at 1 and {lanes} lanes; "
          f"trace written to {os.path.relpath(trace_path, ROOT)}")

    units = {k["name"]: k["unit"] for k in load_bench_json()["per_layer"]}
    missing = sorted(set(units) - set(m))
    if missing:
        sys.exit("run.py: per-layer metrics not produced: " + ", ".join(missing))
    for k in sorted(units):
        print(f"  {k} = {m[k]:.6g} {units[k]}")
    attempted = sum(v["points"] for v in verdicts)
    failed = sum(v["failed"] for v in verdicts)
    correct = failed == 0 and not any(v["drift"] for v in verdicts)
    return correct, attempted, failed, {k: metric(m[k], units[k]) for k in units}


def load_bench_json():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=50.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    # Turn a termination request into SystemExit so a running rpacalc is
    # killed and reaped on the way out.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    build()
    pins = load_pins()
    cseed = crystal_seed(pins, args.seed)
    print(f"rpabench: {args.workload}, --seed {args.seed} -> crystal SEED "
          f"{cseed}, trace {args.trace}")
    if args.trace:
        correct, attempted, failed, metrics = traced(
            args.workload, cseed, args.seed, pins)
    else:
        correct, attempted, failed, metrics = end_to_end(
            args.workload, cseed, args.seconds, pins)
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))


if __name__ == "__main__":
    main()
