"""Tests of the benchmark itself: python3 -m pytest perfbench -q"""

from __future__ import annotations

import json
import os
import sys

import pytest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import workloads as wl  # noqa: E402
from run import E2E_UNITS, HERE, ROOT, Run, end_to_end, tail  # noqa: E402
from tracer import layer_metrics, unit  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
    BENCH = json.load(fh)


def _run(workload, ops, pinned=None, rounds=1):
    run = Run(workload, ops, pinned or {}, float("inf"))
    for _ in range(rounds):
        run.play(False, {"import_s": [], "wall_s": {}})
    assert not run.broken
    return run


@pytest.mark.parametrize("workload", wl.WORKLOADS)
def test_same_seed_gives_identical_inputs(workload):
    assert (json.dumps(wl.make_round(workload, 7))
            == json.dumps(wl.make_round(workload, 7)))


@pytest.mark.parametrize("workload", wl.WORKLOADS)
def test_other_seed_changes_inputs(workload):
    assert wl.make_round(workload, 7) != wl.make_round(workload, 8)


@pytest.mark.parametrize("workload", wl.WORKLOADS)
def test_rounds_draw_from_the_pinned_pool(workload):
    keys = {op["key"] for op in wl.pool(workload)}
    assert {op["key"] for op in wl.make_round(workload, 3)} <= keys


def test_wrong_expected_answer_counts_as_failure():
    frame = next(op for op in wl.pool("frame-grassmannian")
                 if op["key"] == "frame:Gr_2(C^4)")
    wrong = dict(frame, expect=dict(frame["expect"], **{"steenrod-compat": False}))
    cli = next(op for op in wl.pool("cli-mix") if op["key"] == "cli:coeff a*u")
    wrong_cli = dict(cli, check={"rule": "lines", "lines": ["value: u"]})
    for workload, op in (("frame-grassmannian", wrong),
                         ("cli-mix", wrong_cli)):
        run = _run(workload, [op])
        assert run.samples[0][2] is not None
        assert run.unexpected()


def test_digest_mismatch_counts_as_failure():
    op = next(op for op in wl.pool("dual-products") if op["key"] == "word:0")
    run = _run("dual-products", [op], {"word:0": "0" * 16})
    assert "digest" in run.samples[0][2]


def test_known_answers_hold_and_match_pins():
    with open(os.path.join(HERE, "reference.json"), encoding="utf-8") as fh:
        pinned = json.load(fh)["digests"]["frame-grassmannian"]
    ops = [op for op in wl.pool("frame-grassmannian")
           if "C^4" in op["key"] or "C^5" in op["key"]]
    run = _run("frame-grassmannian", ops, pinned)
    assert [r for _, _, r, _, _ in run.samples] == [None] * len(ops)


@pytest.mark.parametrize("workload", wl.WORKLOADS)
def test_metric_names_do_not_depend_on_seed(workload):
    names = []
    for seed in (1, 2):
        ops = [op for op in wl.make_round(workload, seed)
               if op["kind"] not in ("coprod-psi-zeta", "unique")][:3]
        run = _run(workload, ops)
        run.setup_s.append(0.1)
        names.append(list(end_to_end(run)[0]))
    assert names[0] == names[1] == [m["name"] for m in BENCH["end_to_end"]]


def test_benchmark_json_lists_every_metric_with_its_unit():
    assert {m["name"]: m["unit"] for m in BENCH["end_to_end"]} == E2E_UNITS
    layer = list(layer_metrics([])) + ["trace.overhead_s"]
    assert [m["name"] for m in BENCH["per_layer"]] == layer
    assert all(m["unit"] == unit(m["name"]) for m in BENCH["per_layer"])
    assert [w["name"] for w in BENCH["workloads"]] == list(wl.WORKLOADS)


def test_gaussian_binomial_and_guard():
    assert wl.gaussian_binomial_2(4) == [1, 1, 2, 1, 1]
    assert sum(wl.gaussian_binomial_2(9)) == 9 * 8 // 2
    assert not wl.guard_trips({"family": "gr2", "n": 5})
    assert wl.guard_trips({"family": "gr2", "n": 6})
    assert wl.guard_trips({"family": "cpx", "a": 3, "b": 3})


def test_op_times_are_read_in_calibration_loops():
    run = Run("frame-grassmannian", [{"key": "a"}, {"key": "b"}], {},
              float("inf"))
    run.setup_s.append(0.1)
    # the second round ran on a machine half as fast: its loop took twice
    # as long, and so did its ops
    run.samples = [("a", 0.010, None, None, 0.001), ("b", 0.020, None, None, 0.001),
                   ("a", 0.020, None, None, 0.002), ("b", 0.040, None, None, 0.002)]
    metrics, _ = end_to_end(run)
    assert metrics["latency_p50_ref_ms"] == pytest.approx(15.0)
    assert metrics["latency_tail_ref_ms"] == pytest.approx(20.0)
    assert metrics["throughput_ops_ref_s"] == pytest.approx(1000 * 2 / 30)


def test_every_sample_carries_its_calibration_loop():
    ops = [op for op in wl.make_round("cli-mix", 5)][:2]
    run = _run("cli-mix", ops)
    assert all(0 < sample[4] < 0.1 for sample in run.samples)


def test_tail_has_ten_samples_above():
    values = list(range(100))
    assert tail(values) == (89, 90.0)
    assert tail([3, 1, 2]) == (3, 100.0)
