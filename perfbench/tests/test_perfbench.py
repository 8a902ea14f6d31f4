"""Tests of the benchmark itself: python3 -m pytest perfbench/tests

The run tests use a slice of a few cases of a workload so they finish in
seconds; the slice goes through the same set-up, passes, checks and report
as a full run.
"""

import json
import os
import sys
import time
import types

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
sys.path[:0] = [BENCH, os.path.join(os.path.dirname(BENCH), "src")]

import run  # noqa: E402
import workloads  # noqa: E402
from tracer import Layer, Tracer  # noqa: E402

with open(os.path.join(os.path.dirname(BENCH), "BENCHMARK.json")) as fh:
    BENCHMARK = json.load(fh)


def sliced(monkeypatch, name, edit=None, pick=slice(0, 4)):
    """Make workload ``name`` build only the cases ``pick`` selects,
    optionally passing each case through ``edit``."""
    full = workloads.WORKLOADS[name]

    def build(seed, out_dir):
        cases = full(seed, out_dir)[pick]
        return [edit(c) if edit else c for c in cases]

    monkeypatch.setitem(workloads.WORKLOADS, name, build)


def result_of(capsys, argv):
    code = run.main(argv)
    last = capsys.readouterr().out.strip().splitlines()[-1]
    return code, json.loads(last)


@pytest.mark.parametrize("trace,section", [(0, "end_to_end"), (1, "per_layer")])
def test_metric_names_match_benchmark_json(monkeypatch, capsys, trace, section):
    sliced(monkeypatch, "lts-sweep", pick=slice(-2, None))
    code, result = result_of(capsys, ["--workload", "lts-sweep", "--seed", "3",
                                      "--seconds", "1", "--trace", str(trace)])
    assert code == 0 and result["correct"] and result["failed"] == 0
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    declared = {m["name"]: m["unit"] for m in BENCHMARK[section]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared
    if trace:
        # the traced slice ran the kernel: LT3 row selection was recorded
        assert result["metrics"]["kernel.echelon.calls"]["value"] > 0
    else:
        assert all(v["value"] > 0 for v in result["metrics"].values())


def test_wrong_digest_fails_the_run(monkeypatch, capsys, tmp_path):
    with open(run.DIGESTS) as fh:
        table = json.load(fh)
    table["exact-identities"]["closure/tau3/A(1,)/S(-1,)"] = "0" * 64
    path = tmp_path / "digests.json"
    path.write_text(json.dumps(table))
    monkeypatch.setattr(run, "DIGESTS", str(path))
    sliced(monkeypatch, "exact-identities")
    code, result = result_of(capsys, ["--workload", "exact-identities", "--seed",
                                      str(run.DEFAULT_SEED), "--seconds", "1"])
    passes = run.MIN_PASSES
    assert code == 1 and not result["correct"]
    assert (result["attempted"], result["failed"]) == (4 * passes, passes)


@pytest.mark.parametrize("failure", ["verdict", "exception", "unstable"])
def test_failed_case_counts_and_exits_nonzero(monkeypatch, capsys, failure):
    calls = []

    def broken(case):
        if case.id != "closure/tau3/A(1,)/S(-1,)":
            return case

        def run_case():
            calls.append(1)
            ok, data = case.run()
            if failure == "verdict":
                return False, data
            if failure == "exception":
                raise ZeroDivisionError("forced")
            return ok, data + str(len(calls)).encode()

        return case._replace(run=run_case)

    sliced(monkeypatch, "exact-identities", edit=broken)
    code, result = result_of(capsys, ["--workload", "exact-identities", "--seed", "5",
                                      "--seconds", "1"])
    passes = run.MIN_PASSES
    # an unstable output passes its first time and fails every repeat
    failed = passes - 1 if failure == "unstable" else passes
    assert code == 1 and not result["correct"]
    assert (result["attempted"], result["failed"]) == (4 * passes, failed)


def test_missing_program_exits_without_result(monkeypatch, capsys, tmp_path):
    monkeypatch.setattr(run, "SRC", str(tmp_path / "src"))
    with pytest.raises(SystemExit) as exc:
        run.main(["--workload", "cli-tables", "--seconds", "1"])
    assert exc.value.code == 2
    assert capsys.readouterr().out == ""


def test_tracer_self_time_and_restore():
    mod = types.ModuleType("synthetic")
    exec("import time\n"
         "def inner():\n    time.sleep(0.02)\n"
         "def outer():\n    time.sleep(0.01)\n    inner()\n    inner()\n", vars(mod))
    alias = types.ModuleType("alias")
    alias.inner = mod.inner  # a second name bound by ``from synthetic import inner``

    class Base:
        def __init__(self):
            self.made = True

    class Child(Base):
        pass

    originals = (mod.outer, mod.inner)
    tracer = Tracer([Layer("outer", mod, "outer"), Layer("inner", mod, "inner"),
                     Layer("child", Child, "__init__", record=False)], [alias])
    with tracer:
        assert alias.inner is mod.inner is not originals[1]
        mod.outer()
        Child()
    assert (mod.outer, mod.inner, alias.inner) == (*originals, originals[1])
    assert "__init__" not in vars(Child) and Child().made

    spans = {name: [] for name in ("outer", "inner")}
    for idx, (name, start, end, parent, _) in enumerate(tracer.spans):
        spans[name].append((idx, start, end, parent))
    (o_idx, o_start, o_end, o_parent), = spans["outer"]
    assert o_parent == -1 and all(parent == o_idx for *_, parent in spans["inner"])
    covered = sum(end - start for _, start, end, _ in spans["inner"])
    got = tracer.snapshot()
    assert got["outer.self_s"] == pytest.approx(o_end - o_start - covered, abs=1e-9)
    assert got["inner.self_s"] == pytest.approx(covered, abs=1e-9)
    assert got["outer.self_s"] >= 0.009 and covered >= 0.039
    assert (got["outer.calls"], got["inner.calls"], got["child.calls"]) == (1, 2, 1)


def test_untraced_run_has_no_wrappers():
    from homotopes import cli, families, kernel
    from layers import COUNTERS, package_layers

    layers, modules = package_layers()
    owners = modules + [layer.owner for layer in layers if isinstance(layer.owner, type)]

    def bindings():
        return {(id(m), k): id(v) for m in owners for k, v in vars(m).items()}

    before = bindings()
    tracer = Tracer(layers, modules, COUNTERS)
    with tracer:
        assert cli.family_axiom_suite is families.family_axiom_suite
        assert cli.family_axiom_suite.__wrapped__ is not None
        assert kernel.PrecisionError("x").args == ("x",)
    assert bindings() == before
    assert tracer.snapshot()["kernel.precision_error.calls"] == 1


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_seed_determines_inputs(tmp_path, name):
    build = workloads.WORKLOADS[name]

    def inputs(seed, sub):
        out = tmp_path / sub
        out.mkdir()
        return [(c.id, c.inputs) for c in build(seed, str(out))]

    a, b, c = inputs(7, "a"), inputs(7, "b"), inputs(8, "c")
    assert a == b
    assert [i for i, _ in a] == [i for i, _ in c]
    assert a != c


def test_tail_percentile_keeps_ten_samples_beyond():
    assert run.tail_percentile(60) == 75
    assert run.tail_percentile(100) == 90
    assert run.tail_percentile(602) == 95
    values = sorted(range(1, 61))
    assert run.nearest_rank(values, 75) == 45
    assert run.nearest_rank(values, 50) == 30


def test_setup_is_timed_in_fresh_interpreters():
    start = time.perf_counter()
    times = run.time_setup("exact-identities", 1)
    assert len(times) == run.SETUP_RUNS
    assert all(t > 0 for t in times) and sum(times) <= time.perf_counter() - start
