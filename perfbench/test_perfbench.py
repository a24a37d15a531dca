"""Tests of the benchmark itself: ``python3 -m pytest perfbench -q``."""

import json

import pytest

import instances
import run


def _inst(feasible=False, must_certify=False):
    return instances.Instance("x", ["prove"], feasible=feasible, must_certify=must_certify)


CERT_OUT = "degree=1 rows=4 cols=5 nnz=9 status=consistent millis=0\nThe system of equations F is infeasible.\n"
EXHAUST_OUT = (
    "degree=1 rows=4 cols=5 nnz=9 status=inconsistent millis=0\n"
    "degree=4 rows=40 cols=50 nnz=90 status=inconsistent millis=3\n"
)


def test_judge_accepts_only_checked_verdicts():
    assert run.judge(_inst(), 0, CERT_OUT, "", 0)[:2] == ("certified", None)
    assert run.judge(_inst(), 0, CERT_OUT, "", 0)[3] == 1
    assert run.judge(_inst(feasible=True), 10, EXHAUST_OUT, "", None)[:2] == ("exhausted", None)
    failures = [
        run.judge(_inst(), 0, CERT_OUT, "", 1),  # certificate rejected by verify
        run.judge(_inst(feasible=True), 0, CERT_OUT, "", 0),  # certified a yes-instance
        run.judge(_inst(must_certify=True), 10, EXHAUST_OUT, "", None),
        run.judge(_inst(), 10, CERT_OUT, "", None),  # exit code contradicts stats
        run.judge(_inst(), 2, "", "error: bad input\n", None),
        run.judge(_inst(), 0, CERT_OUT, "Traceback (most recent call last):\n", 0),
    ]
    assert [f[0] for f in failures] == ["failed"] * len(failures)


def test_stats_lines_parse_per_degree():
    degrees = run.parse_stats("noise\n" + EXHAUST_OUT)
    assert degrees == [
        {"degree": 1, "rows": 4, "cols": 5, "nnz": 9, "status": "inconsistent"},
        {"degree": 4, "rows": 40, "cols": 50, "nnz": 90, "status": "inconsistent"},
    ]


def test_reference_seconds_follow_the_loop(monkeypatch):
    loop = iter([run.REF_S, 2 * run.REF_S, 2 * run.REF_S])
    monkeypatch.setattr(run, "ref_loop", lambda: next(loop))
    speed = run.HostSpeed()
    assert speed.to_ref(3.0) == pytest.approx(2.0)  # loop 1.5x slower around this slice
    assert speed.to_ref(3.0) == pytest.approx(1.5)
    assert speed.speed() == pytest.approx(0.5)


def test_yes_instance_checks():
    assert instances.colorable(*instances.complete(3), 3)
    assert instances.colorable(*instances.wheel(8), 3)
    for graph in (instances.complete(4), instances.wheel(9), instances.kneser(8, 3), instances.mycielski(7)):
        assert not instances.colorable(*graph, 3)
    assert not instances.has_point(instances.QUADRIC_LINES, 3, 3)
    assert instances.has_point([[(1, (1, 1)), (2, ())]], 1, 3)  # x1^2 = 1 has x1 = 1


def test_instance_sets_are_fixed():
    sweep = instances.sweep16()
    assert [i.name for i in sweep] == [f"random:16,0.27,{s}" for s in range(20)]
    assert sum(i.feasible for i in sweep) == 7  # colorable: exit 10 at every degree
    assert not any(i.feasible for i in instances.certify() + instances.gfp_systems())
    assert [i.files for i in instances.gfp_systems()] == [i.files for i in instances.gfp_systems()]


def test_smoke_counts_injected_faults():
    spec = json.loads(run.SPEC_PATH.read_text())
    assert run.smoke(spec) == []
