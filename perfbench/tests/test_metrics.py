"""Self-tests of the benchmark's own arithmetic on synthetic input."""

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

import metrics  # noqa: E402


def span(name, start, end, parent, op="op"):
    return [name, start, end, parent, op]


def test_self_time_subtracts_nested_children():
    spans = [
        span("cli.main", 0.0, 10.0, -1),
        span("qgroup.build", 1.0, 4.0, 0),
        span("tensorleg.embed", 2.0, 3.0, 1),
        span("qgroup.build", 5.0, 7.0, 0),
    ]
    assert metrics.self_times(spans) == pytest.approx([5.0, 2.0, 1.0, 2.0])
    calls, totals, selfs = metrics.layer_stats(spans)
    assert calls == {"cli.main": 1, "qgroup.build": 2, "tensorleg.embed": 1}
    assert totals == pytest.approx({"cli.main": 10.0, "qgroup.build": 5.0, "tensorleg.embed": 1.0})
    assert selfs == pytest.approx({"cli": 5.0, "qgroup": 4.0, "tensorleg": 1.0})


def test_self_time_clips_children_to_the_parent_interval():
    spans = [span("a.f", 0.0, 4.0, -1), span("b.g", 3.0, 6.0, 0), span("b.g", 3.5, 5.0, 0)]
    # children cover [3, 4] of the parent once, however they overlap
    assert metrics.self_times(spans)[0] == pytest.approx(3.0)


def test_recursive_spans_count_once_in_total():
    spans = [span("qgroup.f", 0.0, 10.0, -1), span("qgroup.f", 2.0, 5.0, 0)]
    calls, totals, selfs = metrics.layer_stats(spans)
    assert calls == {"qgroup.f": 2}
    assert totals == pytest.approx({"qgroup.f": 10.0})
    assert selfs == pytest.approx({"qgroup": 10.0})


@pytest.mark.parametrize(
    "n, value, percentile",
    [(28, 18.0, 100.0 * 18 / 28), (11, 1.0, 100.0 / 11), (100, 90.0, 90.0), (204, 194.0, 100.0 * 194 / 204)],
)
def test_tail_has_ten_samples_beyond(n, value, percentile):
    latencies = [float(k) for k in range(n, 0, -1)]
    got, pct, count = metrics.tail(latencies)
    assert (got, count) == (value, n)
    assert pct == pytest.approx(percentile)
    assert sum(1 for x in latencies if x > got) == 10


def test_tail_with_too_few_samples_is_the_maximum():
    assert metrics.tail([3.0, 1.0, 2.0]) == (3.0, 100.0, 3)


def cli_op(expect="pass", **extra):
    return dict({"id": "x", "kind": "cli", "expect": expect}, **extra)


def record(exit=0, verdict=True, error=None, seconds=1.0):
    return {"id": "x", "seconds": seconds, "exit": exit, "error": error, "verdict": verdict}


@pytest.mark.parametrize(
    "op, rec, rechecked, ok",
    [
        (cli_op(), record(), True, True),
        (cli_op(), record(exit=1, verdict=False), True, False),  # valid input failed
        (cli_op(), record(exit=0, verdict=False), True, False),  # a check failed yet exit 0
        (cli_op(), record(), False, False),  # produced file failed its re-check
        (cli_op(), record(exit=None, verdict=None, error="KeyError: 'injective'"), True, False),
        (cli_op("reject"), record(exit=1, verdict=False), True, True),
        (cli_op("reject"), record(exit=2, verdict=None), True, True),
        (cli_op("reject"), record(exit=0, verdict=True), True, False),  # corrupted input accepted
        (cli_op("reject"), record(exit=None, verdict=None, error="ValueError: V"), True, False),
        ({"id": "x", "kind": "api", "expect": "pass"}, record(exit=None, verdict=True), True, True),
        ({"id": "x", "kind": "api", "expect": "pass"}, record(exit=None, verdict=False), True, False),
    ],
)
def test_verdicts(op, rec, rechecked, ok):
    (row,) = metrics.expand(op, rec, rechecked)
    assert row[2] is ok


def test_failed_share_counts_missing_suite_subjects_and_defects():
    suite = {"id": "suite", "kind": "suite", "expect": "pass", "subjects": 4}
    rec = dict(record(exit=1), subjects=[
        {"subject": "a.json", "seconds": 0.5, "verdict": True},
        {"subject": "b.json", "seconds": 0.7, "verdict": False},
        {"subject": "c.json", "seconds": 0.2, "verdict": True},
    ])
    rows = metrics.expand(suite, rec, True)
    # exit 1 fails every subject; the unreported fourth is failed too
    assert len(rows) == 4 and metrics.failed_share(rows) == 1.0

    rec["exit"] = 0
    rows = metrics.expand(suite, rec, True)
    assert metrics.failed_share(rows) == pytest.approx(2 / 4)

    left = cli_op(defect="left-hom-keyerror")
    rows = [metrics.expand(cli_op(), record(), True)[0],
            metrics.expand(left, record(exit=None, verdict=None, error="KeyError"), True)[0]]
    assert metrics.failed_share(rows) == pytest.approx(0.5)
    assert rows[1][3] == "left-hom-keyerror"


def test_latencies_are_each_ops_best_over_the_passes():
    pass_rows = [
        [("a", 1.0, True, None), ("b", 5.0, True, None), ("c", 9.0, False, None)],
        [("a", 2.0, True, None), ("b", 3.0, True, None), ("c", 1.0, True, None)],
    ]
    # c counts at its best correct latency, only where it was correct
    assert metrics.best_latencies(pass_rows) == [1.0, 3.0, 1.0, 3.0, 1.0]


def test_end_to_end_takes_the_best_pass_and_correct_ops_only():
    pass_rows = [
        [("a", 1.0, True, None), ("b", 3.0, True, None), ("c", 100.0, False, None)],
        [("a", 2.0, True, None), ("b", 4.0, True, None), ("c", 100.0, False, None)],
    ]
    passes = [{"pass_s": 4.0, "peak_rss_mb": 100.0}, {"pass_s": 2.0, "peak_rss_mb": 120.0}]
    e2e, extra = metrics.end_to_end(passes, pass_rows, [0.5, 0.4, 0.6])
    assert e2e == pytest.approx({"ok_ops_per_s": 1.0, "op_p50_s": 2.0, "op_tail_s": 3.0,
                                 "peak_rss_mb": 120.0, "setup_s": 0.5, "ok_share": 2 / 3})
    assert extra == pytest.approx({"tail_percentile": 100.0, "tail_samples": 4})
