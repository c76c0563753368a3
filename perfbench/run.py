"""lmcflab benchmark: acceptance scenarios in a closed loop, one client.

    python3 perfbench/run.py --workload linking --seed 0 --seconds 45 --trace 0

Run from the root of a checkout that holds ``src/lmcflab``. One process runs
one workload: it measures set-up in fresh interpreters, then runs passes back
to back for ``--seconds`` (each pass starts when the previous one ends). A
pass runs every scenario of the workload through ``scenarios.run_scenario``
and writes each bundle to a temporary directory, as ``lmcflab run --out``
does. Every pass is checked: see ``check_bundle``.

With ``--trace 0`` the metrics are the end-to-end ones of ``BENCHMARK.json``;
with ``--trace 1`` untraced and traced passes alternate and the metrics are
its per-layer ones (see ``tracer.py``); the spans go to
``.perfbench_out/trace-<workload>.json``. The last line of
standard output is the result as one JSON object.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

from tracer import SPANNED, WORK_METRICS, Tracer

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
REFERENCE_DIR = BENCH_DIR / "reference"
TRACE_DIR = ROOT / ".perfbench_out"
SETUP_PROBES = 5

# Two complementary workloads: every layer but linking runs only in
# "flows", linking only in "linking". The six short scenarios ride along in
# "flows" instead of forming a third workload: alone, their ~1 s passes gave
# run-to-run spreads above the bound on a shared machine.
WORKLOADS = {
    "linking": ["linking-suite"],
    "flows": ["blow-down-ladder", "plane-pair-density", "huisken-monotonicity",
              "hermite-spectrum", "three-annulus", "grim-reaper-translator",
              "caloric-identities"],
}

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def cap_threads():
    """Cap BLAS/OpenMP threads at nproc; must run before numpy is imported."""
    nproc = len(os.sched_getaffinity(0))
    for var in THREAD_VARS:
        try:
            wanted = int(os.environ.get(var, nproc))
        except ValueError:
            wanted = nproc
        os.environ[var] = str(min(max(wanted, 1), nproc))
    return nproc


def load_references(seed):
    """Scenario -> committed reference bundle directory for ``seed``.

    A seed with no committed references gets none: only the scenario checks
    decide then.
    """
    return {summary.parent.name: summary.parent for summary in
            sorted((REFERENCE_DIR / f"seed-{seed}").glob("*/summary.json"))}


def setup(seed):
    """Everything before the first pass: imports and the references."""
    sys.path.insert(0, str(SRC))
    from lmcflab import scenarios
    return scenarios, load_references(seed)


def measure_setup(seed):
    """Median time from launching a fresh interpreter until ``setup`` is done.

    Both sides read CLOCK_MONOTONIC (``time.monotonic``), which is shared by
    all processes of the machine, so the child's reading is comparable.
    """
    times = []
    for _ in range(SETUP_PROBES):
        launched = time.monotonic()
        probe = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
             "--seed", str(seed)],
            cwd=ROOT, capture_output=True, text=True, timeout=60, check=True)
        times.append(float(probe.stdout.split()[-1]) - launched)
    return statistics.median(times)


def environment(nproc):
    # imported here, not at the top: numpy must load after cap_threads()
    import numpy
    import scipy
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"python": sys.version.split()[0], "numpy": numpy.__version__,
            "scipy": scipy.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "nproc": nproc,
            "threads": {var: os.environ[var] for var in THREAD_VARS}}


def check_bundle(scenarios, out_dir, reference, first_bytes):
    """Problems with one scenario bundle; an empty list means it is correct.

    The scenario's own checks must pass; the bundle must be within the
    scenario's declared tolerances of the committed reference
    (``scenarios.compare_runs``), and ``summary.json`` must be byte-identical
    to the first pass's, traced or not.
    """
    data = (Path(out_dir) / "summary.json").read_bytes()
    summary = json.loads(data)
    problems = []
    if not summary["pass"]:
        problems.append(f"failed checks: "
                        f"{sorted(k for k, v in summary['checks'].items() if not v)}")
    if reference is not None:
        flagged = scenarios.compare_runs(reference, out_dir)["flagged"]
        if flagged:
            problems.append(f"differs from {reference}: {flagged}")
    if data != first_bytes.setdefault(summary["scenario"], data):
        problems.append("summary.json differs from the first pass")
    return problems


def run_pass(scenarios, names, seed, refs, first_bytes, work_dir):
    """One timed pass over the workload's scenarios, then its checks."""
    out_dirs = [tempfile.mkdtemp(dir=work_dir) for _ in names]
    problems = []
    cpu0 = time.process_time()
    start = time.perf_counter()
    try:
        for name, out_dir in zip(names, out_dirs):
            scenarios.run_scenario({"scenario": name, "seed": seed}, out_dir=out_dir)
    except Exception:
        problems.append(traceback.format_exc())
    end = time.perf_counter()
    cpu = time.process_time() - cpu0
    if not problems:
        for name, out_dir in zip(names, out_dirs):
            problems += [f"{name}: {p}" for p in check_bundle(
                scenarios, out_dir, refs.get(name), first_bytes)]
    for out_dir in out_dirs:
        shutil.rmtree(out_dir)
    for problem in problems:
        print(f"pass failed: {problem}", file=sys.stderr)
    return {"start": start, "end": end, "wall": end - start, "cpu": cpu,
            "ok": not problems}


def layer_metrics(tracer, traced, untraced):
    """Per-layer metrics, per traced pass, plus the run's health figures."""
    n = len(traced)
    own = tracer.self_time_by_name()
    metrics = {}
    for module_name, path in SPANNED:
        name = f"{module_name}.{path}"
        metrics[f"{name}.calls"] = tracer.calls[name] / n
        metrics[f"{name}.self_s"] = own[name] / n
    for name in WORK_METRICS:
        metrics[name] = tracer.work[name] / n
    requested = tracer.work["linking.poles_requested"]
    metrics["linking.poles_used_frac"] = (
        tracer.work["linking.poles_used"] / requested if requested else 0.0)
    untraced_wall = statistics.median(p["wall"] for p in untraced)
    metrics["trace.overhead_frac"] = (
        statistics.median(p["wall"] for p in traced) / untraced_wall - 1.0)
    metrics["trace.covered_frac"] = statistics.mean(
        tracer.top_level_time(p["start"], p["end"]) / p["wall"] for p in traced)
    metrics["process.cpu_s"] = statistics.median(p["cpu"] for p in untraced)
    return metrics


def write_trace(path, env, seed, tracer, traced):
    t0 = traced[0]["start"]
    TRACE_DIR.mkdir(exist_ok=True)
    with open(path, "w") as fh:
        json.dump({"env": env, "seed": seed, "missing": tracer.missing,
                   "passes": [[p["start"] - t0, p["end"] - t0] for p in traced],
                   "spans": [[name, start - t0, end - t0, parent]
                             for name, start, end, parent in tracer.spans]}, fh)


def spread_note(values):
    """Median with the highest percentile that has ten samples beyond it."""
    ordered = sorted(values)
    note = f"median of {len(ordered)}"
    if len(ordered) > 10:
        note += (f", p{100 * (len(ordered) - 10) // len(ordered)} "
                 f"{ordered[-11]:.4f}")
    return note + f", max {ordered[-1]:.4f}"


def make_work_dir():
    """This process's own directory for bundles, inside the checkout."""
    return tempfile.mkdtemp(dir=ROOT, prefix=".perfbench_work-")


def run_passes(scenarios, names, seed, refs, seconds, tracer, work_dir):
    """Closed loop: passes back to back until ``seconds`` have passed.

    With a tracer, pass 0 is an untraced warm-up; then traced and untraced
    passes alternate, and each traced pass restores the originals after it.
    """
    passes = []
    first_bytes = {}
    deadline = time.perf_counter() + seconds
    while (len(passes) < (3 if tracer else 1)
           or time.perf_counter() < deadline):
        traced = tracer is not None and len(passes) % 2 == 1
        if traced:
            tracer.install()
        try:
            result = run_pass(scenarios, names, seed, refs, first_bytes,
                              work_dir)
        finally:
            if traced:
                tracer.uninstall()
        result["traced"] = traced
        passes.append(result)
    return passes


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=45.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if not (SRC / "lmcflab" / "__init__.py").is_file():
        sys.exit(f"no lmcflab source at {SRC}: run from a checkout's root")
    nproc = cap_threads()
    if args.setup_probe:
        setup(args.seed)
        print(time.monotonic())
        return
    if args.workload is None:
        parser.error("--workload is required")
    with open(ROOT / "BENCHMARK.json") as fh:
        declared = json.load(fh)
    setup_s = measure_setup(args.seed)
    scenarios, refs = setup(args.seed)
    env = environment(nproc)
    print("env " + json.dumps(env, sort_keys=True))

    tracer = Tracer() if args.trace else None
    work_dir = make_work_dir()
    try:
        passes = run_passes(scenarios, WORKLOADS[args.workload], args.seed,
                            refs, args.seconds, tracer, work_dir)
    finally:
        shutil.rmtree(work_dir)

    failed = sum(not p["ok"] for p in passes)
    untraced = [p for p in passes if not p["traced"]]
    print(f"{args.workload} seed {args.seed}: {len(passes)} passes, "
          f"{failed} failed, failed_frac {failed / len(passes):.4f}")
    if tracer is None:
        walls = [p["wall"] for p in passes]
        values = {"wall_s": statistics.median(walls), "setup_s": setup_s,
                  "peak_rss_mb": resource.getrusage(
                      resource.RUSAGE_SELF).ru_maxrss / 1024.0}
        wanted = declared["end_to_end"]
        print(f"  wall_s {values['wall_s']:.4f} s ({spread_note(walls)})")
        print(f"  setup_s {setup_s:.4f} s (median of {SETUP_PROBES} set-ups)")
        print(f"  peak_rss_mb {values['peak_rss_mb']:.1f} MB")
    else:
        traced = [p for p in passes if p["traced"]]
        values = layer_metrics(tracer, traced, untraced[1:])
        wanted = declared["per_layer"]
        trace_path = TRACE_DIR / f"trace-{args.workload}.json"
        write_trace(trace_path, env, args.seed, tracer, traced)
        print(f"  {len(traced)} traced passes, spans in {trace_path}; "
              f"not found: {tracer.missing or 'none'}")
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in wanted}
    print(json.dumps({"correct": failed == 0, "attempted": len(passes),
                      "failed": failed, "metrics": metrics}))


if __name__ == "__main__":
    main()
