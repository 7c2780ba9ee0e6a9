"""padicsums benchmark: time passes over a workload's corpus and check them.

    python3 perfbench/run.py --workload decay_sweep --seed 1 --seconds 28 --trace 0

Run from the root of a checkout; the program is imported from its src/.
One process, one thread: the BLAS/OpenMP thread variables are set to 1
before numpy loads.  After a warm-up pass, passes over the corpus repeat
until --seconds have gone by; every case of every pass is checked against
reference.json.  The last line of stdout is the JSON result; the lines
before it, marked '#', give the machine facts and the metrics by name and
unit.

--trace 0 reports the end-to-end metrics.  --trace 1 alternates untraced
passes with traced ones (see tracing.py), reports the per-layer metrics, the
tracing overhead and the layer shares, and writes the spans to
perfbench/out/.  Traced passes alternate between the inputs of --seed and
--seed + 1, and the exact counts must agree across all of them.
"""

from __future__ import annotations

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import gc
import json
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads as W
from tracing import EXACT_COUNTS, LAYER_METRICS, Tracer

HERE = Path(__file__).resolve().parent
SETUP_PROBES = 5

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "wall_tail_s": "s",
    "terms_per_s": "1/s",
    "peak_rss_mb": "MB",
    "ok_ratio": "ratio",
}


def setup_ready(workload: str, seed: int) -> tuple[dict, dict, list]:
    """Everything a run needs before its first case: program, reference, corpus."""
    mods = W.load_program()
    ref = json.loads((HERE / "reference.json").read_text())
    return mods, ref, W.build_cases(workload, seed)


def probe_setup(workload: str, seed: int) -> float:
    """Seconds from starting a fresh interpreter until its first case is ready."""
    argv = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
            "--workload", workload, "--seed", str(seed)]
    start = time.perf_counter()
    proc = subprocess.Popen(argv, stdout=subprocess.PIPE, text=True)
    try:
        line = proc.stdout.readline()
        ready = time.perf_counter() - start
        proc.stdout.read()
    finally:
        proc.stdout.close()
        code = proc.wait(timeout=60)
    if line.strip() != "ready" or code != 0:
        raise RuntimeError(f"set-up probe failed (exit {code})")
    return ready


def run_pass(cases, mods, ref, tracer=None):
    """(seconds inside the program, answer terms, failures) of one pass."""
    seconds, terms, failures = 0.0, 0, []
    for case in cases:
        if tracer is not None:
            tracer.case = case.id
        start = time.perf_counter()
        try:
            outcome = case.run(mods)
        except Exception as exc:  # a case's failure must not stop the run
            outcome = {"exception": f"{type(exc).__name__}: {exc}"}
        seconds += time.perf_counter() - start
        entry = ref[case.id]
        reason = W.check(case, outcome, entry)
        if reason is None:
            terms += case.size(outcome, entry)
        else:
            failures.append((case.id, reason, W.known_defect(case, outcome, entry)))
    return seconds, terms, failures


def machine_facts() -> dict:
    import numpy

    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "loadavg": Path("/proc/loadavg").read_text().split()[:3],
    }


def tail(times: list[float]) -> tuple[float, float, int]:
    """(value, percentile, samples beyond) of the highest percentile that has
    10 samples beyond it; the maximum when there are too few samples."""
    ordered = sorted(times)
    n = len(ordered)
    k = n - 1 if n <= 10 else n - 11
    return ordered[k], 100.0 * (k + 1) / n, n - 1 - k


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=W.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=28.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    try:
        mods, ref, cases = setup_ready(args.workload, args.seed)
    except ImportError as exc:
        print(f"error: cannot import the program: {exc}", file=sys.stderr)
        return 2
    if args.setup_probe:
        print("ready", flush=True)
        return 0

    facts = machine_facts()
    setup_s = statistics.median(
        probe_setup(args.workload, args.seed) for _ in range(SETUP_PROBES)
    )

    tracer = Tracer(mods) if args.trace else None
    alt_cases = W.build_cases(args.workload, args.seed + 1) if args.trace else None
    plain_times, traced_times, layer_rows, failures = [], [], [], []
    attempted, terms_per_pass = 0, None

    # Warm-up: lazy imports and first-call costs stay out of the timings.
    _, _, warm_failures = run_pass(cases, mods, ref)
    attempted += len(cases)
    failures += warm_failures

    deadline = time.perf_counter() + args.seconds
    pass_no = 0
    while time.perf_counter() < deadline or len(plain_times) < 2 or (
        tracer is not None and len(traced_times) < 2
    ):
        gc.collect()
        traced = tracer is not None and pass_no % 2 == 1
        if traced:
            tracer.start_pass()
            tracer.install()
            try:
                use = alt_cases if len(traced_times) % 2 else cases
                seconds, terms, fails = run_pass(use, mods, ref, tracer)
            finally:
                tracer.uninstall()
            traced_times.append(seconds)
            layer_rows.append(tracer.pass_metrics())
        else:
            seconds, terms, fails = run_pass(cases, mods, ref)
            plain_times.append(seconds)
            if terms_per_pass is None:
                terms_per_pass = terms
        attempted += len(cases)
        failures += fails
        pass_no += 1

    facts["loadavg_after"] = Path("/proc/loadavg").read_text().split()[:3]
    unexpected = [f for f in failures if not f[2]]
    print(f"# machine: {json.dumps(facts)}")
    print(f"# workload {args.workload}, seed {args.seed}: {len(cases)} cases per pass, "
          f"{len(plain_times)} untraced and {len(traced_times)} traced passes")
    print(f"# fail_ratio = {len(failures)}/{attempted} = {len(failures) / attempted:.4g} "
          f"({len(failures) - len(unexpected)} known defects)")
    for case_id, reason, known in sorted(set(failures)):
        print(f"#   {'known' if known else 'FAILED'}: {case_id}: {reason}")
        if not known:
            print(f"FAILED {case_id}: {reason}", file=sys.stderr)

    if tracer is None:
        # The mean, not the median: the host's speed flips between states
        # lasting tens of seconds, and the median of a run jumps with
        # whichever state holds more than half of it.
        wall = statistics.fmean(plain_times)
        tail_value, pct, beyond = tail(plain_times)
        print(f"# wall_tail_s is p{pct:.0f} of {len(plain_times)} pass times "
              f"({beyond} passes beyond it)")
        print("# pass times (s): " + " ".join(f"{t:.4f}" for t in plain_times))
        values = {
            "setup_s": setup_s,
            "wall_s": wall,
            "wall_tail_s": tail_value,
            "terms_per_s": (terms_per_pass or 0) / wall,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "ok_ratio": 1 - len(failures) / attempted,
        }
        metrics = {k: {"value": values[k], "unit": END_TO_END[k]} for k in END_TO_END}
    else:
        values = {
            k: statistics.median(row[k] for row in layer_rows)
            for k in LAYER_METRICS if k != "trace.overhead_s"
        }
        traced_wall = statistics.fmean(traced_times)
        values["trace.overhead_s"] = traced_wall - statistics.fmean(plain_times)
        metrics = {k: {"value": values[k], "unit": LAYER_METRICS[k][0]} for k in LAYER_METRICS}
        report_layers(args, values, traced_wall, layer_rows, tracer)

    for name, m in metrics.items():
        print(f"#   {name:32s} {m['value']:.6g} {m['unit']}")
    print(json.dumps({
        "correct": not unexpected,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": metrics,
    }))
    return 0


def report_layers(args, values, traced_wall, layer_rows, tracer) -> None:
    """Print layer shares and the exact-count check; write the spans out."""
    # Which end-to-end metric each layer metric should move, and where.
    layer_map = json.loads((HERE / "layers.json").read_text())
    steady = all(
        all(row[k] == layer_rows[0][k] for k in EXACT_COUNTS) for row in layer_rows
    )
    print(f"# exact counts {'repeat' if steady else 'DO NOT repeat'} across "
          f"{len(layer_rows)} traced passes (seeds {args.seed} and {args.seed + 1})")
    if not steady:
        print("warning: exact counts differ between traced passes", file=sys.stderr)
    print(f"# layer share of the traced pass ({traced_wall:.4g} s); "
          f"moves -> end-to-end metric on workload")
    for name, (unit, _) in LAYER_METRICS.items():
        if unit == "s" and name != "trace.overhead_s":
            print(f"#   {name:32s} {values[name] / traced_wall:7.1%}  -> {layer_map[name]}")
    out = HERE / "out" / f"trace-{args.workload}-seed{args.seed}.jsonl"
    tracer.write(out)
    print(f"# {len(tracer.spans)} spans written to {out.relative_to(HERE.parent)}")


if __name__ == "__main__":
    sys.exit(main())
