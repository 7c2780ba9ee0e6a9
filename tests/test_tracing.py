"""The benchmark's cases and its traced run, on the program in src/.

These tests load the program the way the benchmark does.  One runs every
benchmark case and checks its answer against `perfbench/reference.json`,
so a wrong answer shows in the test suite, not only in a benchmark run.
The traced run hooks program functions and methods by name; renaming or
deleting one of them breaks `perfbench/run.py --trace 1`, so another test
installs the tracer, calls through it, and checks that uninstalling
restores every original.
"""

import importlib.util
import json
import sys
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _load(monkeypatch, name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    mod = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, mod)  # dataclasses look it up
    spec.loader.exec_module(mod)
    return mod


def test_tracer_installs_and_uninstalls(monkeypatch):
    monkeypatch.setattr(sys, "path", list(sys.path))  # load_program prepends src/
    tracing = _load(monkeypatch, "tracing")
    mods = _load(monkeypatch, "workloads").load_program()
    hooked = tracing.SPANS + tracing.LEAVES
    methods = tracing.METHOD_SPANS + tracing.METHOD_LEAVES
    before = {name: dict(vars(module)) for name, module in mods.items()}
    before_methods = {
        (mod, cls, meth): vars(getattr(mods[mod], cls))[meth] for mod, cls, meth, _ in methods
    }

    tracer = tracing.Tracer(mods)
    tracer.start_pass()
    tracer.install()
    try:
        for mod, attr, _ in hooked:
            assert getattr(mods[mod], attr) is not before[mod][attr], attr
        f = mods["polynomials"].parse_poly("y - x^2")
        assert len(mods["counting"].lift_points(f, 5, 2)) == 25
        assert tracer.counts["counting.points"] == 5 + 25
        assert tracer.counts["counting.lift_points_calls"] == 1
    finally:
        tracer.uninstall()

    for name, module in mods.items():
        after = vars(module)
        assert after.keys() == before[name].keys()
        assert all(after[key] is value for key, value in before[name].items()), name
    for (mod, cls, meth), original in before_methods.items():
        assert vars(getattr(mods[mod], cls))[meth] is original


def test_every_benchmark_case_matches_the_reference(monkeypatch):
    monkeypatch.setattr(sys, "path", list(sys.path))  # load_program prepends src/
    workloads = _load(monkeypatch, "workloads")
    mods = workloads.load_program()
    ref = json.loads((PERFBENCH / "reference.json").read_text())
    failures = {}
    for workload in workloads.WORKLOADS:
        for seed in (None, 1):
            for case in workloads.build_cases(workload, seed):
                reason = workloads.check(case, case.run(mods), ref[case.id])
                if reason is not None:
                    failures[f"{workload} seed={seed}: {case.id}"] = reason
    assert failures == {}
