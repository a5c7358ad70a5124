"""Self-checks of the benchmark's tracer and workloads.

    python3 -m pytest perfbench -q

Each test starts workers the way run.py does, on a few ops per workload.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

# Enough ops to reach every kind of request or one suite call.
OPS = {"thm-a": 1, "classical": 1, "query": 12, "transform": 14}

COUNT_SUFFIXES = (".calls", ".cells", ".candidates", ".pieces_in", ".pieces_out",
                  ".points_in", ".vertices_out", ".bytes_in", ".bytes_out")


def worker(workload, trace, seed=3, spans=None):
    args = ["--workload", workload, "--seed", str(seed), "--ops", str(OPS[workload]),
            "--trace", str(trace)]
    if spans:
        args += ["--spans", str(spans)]
    return run.spawn(args, deadline=run.time.monotonic() + run.CHILD_TIMEOUT_S)


@pytest.fixture(scope="module")
def runs(tmp_path_factory):
    spans = tmp_path_factory.mktemp("spans")
    return {w: (worker(w, 0), worker(w, 1, spans=spans / f"{w}.csv"), worker(w, 1), spans / f"{w}.csv")
            for w in OPS}


def test_traced_and_untraced_outputs_are_identical(runs):
    for w, (plain, traced, _, _) in runs.items():
        assert plain["failed"] == 0 and traced["failed"] == 0, (w, plain["problems"], traced["problems"])
        assert traced["digest"] == plain["digest"], w


def test_every_traced_function_is_called_somewhere(runs):
    calls = {}
    for _, traced, _, _ in runs.values():
        for name, (value, _unit) in traced["layers"].items():
            if name.endswith(".calls"):
                calls[name] = calls.get(name, 0) + value
    assert set(calls) == {f"{n}.calls" for n in tracer.function_names()}
    assert [n for n, c in calls.items() if c == 0] == []


def test_work_counts_repeat_exactly(runs):
    for w, (_, first, second, _) in runs.items():
        counts = {n: v for n, (v, _u) in first["layers"].items() if n.endswith(COUNT_SUFFIXES)}
        again = {n: second["layers"][n][0] for n in counts}
        assert counts == again, w
        assert first["layers"]["maxaffine.prune.lp_per_piece"] == second["layers"]["maxaffine.prune.lp_per_piece"]


def test_spans_file_holds_every_call(runs):
    for w, (_, traced, _, path) in runs.items():
        lines = path.read_text().splitlines()
        calls = sum(v for n, (v, _u) in traced["layers"].items() if n.endswith(".calls"))
        assert lines[0].startswith("sid,parent,name,op,")
        assert len(lines) - 1 == calls, w


def test_uninstall_restores_every_binding():
    from convval import maxaffine

    tr = tracer.Tracer()
    original_call = maxaffine.MaxAffineFn.__call__
    tr.install()
    try:
        wrapped = tracer.installed_wrappers()
        assert ("convval.maxaffine.MaxAffineFn", "__call__") in wrapped
        assert ("convval.lifted", "prune") in wrapped
        tr.enabled = True
        wl = workloads.make("query", 5)
        for _ in range(len(workloads.QUERY_KINDS)):
            op = wl.next_op()
            assert wl.finish(op, op.run(op.text))[2] == 0
        tr.enabled = False
    finally:
        tr.uninstall()
    assert tracer.installed_wrappers() == []
    assert maxaffine.MaxAffineFn.__call__ is original_call
    assert tr.metrics()["maxaffine.MaxAffineFn.evaluate.calls"][0] > 0


def test_suite_call_with_untimed_cases_fails():
    wl = workloads.make("classical", 3)
    op = wl.next_op()
    report = op.run(op.text)
    assert wl.finish(op, report)[2] == 0
    op.latencies.pop()
    assert wl.finish(op, report)[2] == report.cases


def test_replay_without_a_witness_fails_as_an_op():
    wl = workloads.make("transform", 3)
    ops = [wl.next_op() for _ in workloads.TRANSFORM_KINDS]
    assert ops[-1].kind == "replay"
    with pytest.raises(RuntimeError):
        ops[-1].run(ops[-1].text)


def test_benchmark_json_lists_every_metric():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [m["name"] for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == tracer.metric_units()
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)


def test_run_refuses_a_tree_without_sources(tmp_path):
    (tmp_path / "perfbench").mkdir()
    for f in HERE.glob("*.py"):
        (tmp_path / "perfbench" / f.name).write_text(f.read_text())
    (tmp_path / "perfbench" / "reference.json").write_text((HERE / "reference.json").read_text())
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "query", "--seed", "1",
                           "--seconds", "1", "--trace", "0"], cwd=tmp_path, capture_output=True,
                          text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
