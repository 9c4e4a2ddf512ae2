"""The benchmark's arithmetic: op verdicts, latency statistics, self time.

Everything here is a pure function of the pass records, so the self-tests
in tests/ can check it on synthetic input.
"""

import statistics

TAIL_BEYOND = 10


def judge(op, record):
    """Whether a non-suite op had the correct outcome, before output re-checks.

    A wrong outcome is an uncaught exception, a valid input that did not
    exit 0 with every check passing, or a corrupted input that exited 0.
    """
    if record["error"] is not None:
        return False
    if op["kind"] == "api":
        return record["verdict"] is True
    if op["expect"] == "pass":
        return record["exit"] == 0 and record["verdict"] is True
    return record["exit"] in (1, 2)


def expand(op, record, rechecked):
    """(op id, seconds, correct, known defect) for each op a record stands for.

    A suite record stands for one op per subject; a subject is correct when
    it passed and the whole suite exited 0.  ``rechecked`` is False when
    the op's produced file failed its re-check.
    """
    if op["kind"] != "suite":
        ok = judge(op, record) and rechecked
        return [(op["id"], record["seconds"], ok, op.get("defect"))]
    subjects = record.get("subjects") or []
    suite_ok = record["error"] is None and record["exit"] == 0
    rows = [
        (f"{op['id']}/{s['subject']}", s["seconds"], suite_ok and s["verdict"], None)
        for s in subjects
    ]
    # subjects the suite never reported are attempted and failed
    missing = op["subjects"] - len(rows)
    rows.extend((f"{op['id']}/missing{k}", 0.0, False, None) for k in range(missing))
    return rows


def tail(latencies, beyond=TAIL_BEYOND):
    """The highest percentile with at least ``beyond`` samples above it.

    Returns (value, percentile, sample count).  With too few samples the
    maximum is returned at percentile 100.
    """
    xs = sorted(latencies)
    n = len(xs)
    if n <= beyond:
        return (xs[-1] if xs else 0.0), 100.0, n
    return xs[n - beyond - 1], 100.0 * (n - beyond) / n, n


def failed_share(rows):
    return sum(1 for r in rows if not r[2]) / len(rows)


def best_latencies(pass_rows):
    """Every correct op issued in the run, each at its op's best latency.

    Other tenants of the box only ever add time, and a slow spell can last
    a whole pass, so an op's best over the run's passes is the steady
    figure (the rule ``timeit`` follows).
    """
    best = {}
    for rows in pass_rows:
        for op, seconds, ok, _ in rows:
            if ok:
                best[op] = min(seconds, best.get(op, seconds))
    return [best[r[0]] for rows in pass_rows for r in rows if r[2]]


def end_to_end(passes, pass_rows, setups):
    """The end-to-end metrics of one run from its passes and their op rows.

    Throughput is the best pass's; latencies are best_latencies.
    """
    rows = [r for rs in pass_rows for r in rs]
    latencies = best_latencies(pass_rows)
    value, pct, n = tail(latencies)
    return {
        "ok_ops_per_s": max(
            sum(1 for r in rs if r[2]) / p["pass_s"] for p, rs in zip(passes, pass_rows)
        ),
        "op_p50_s": statistics.median(latencies) if latencies else 0.0,
        "op_tail_s": value,
        "peak_rss_mb": max(p["peak_rss_mb"] for p in passes),
        "setup_s": statistics.median(setups),
        "ok_share": len(latencies) / len(rows),
    }, {"tail_percentile": pct, "tail_samples": n}


def self_times(spans):
    """Per-span self time: duration minus the union of its children's spans."""
    children = [[] for _ in spans]
    for i, s in enumerate(spans):
        if s[3] >= 0:
            children[s[3]].append(i)
    out = []
    for i, (_, start, end, _, _) in enumerate(spans):
        covered, reach = 0.0, start
        for c in sorted(children[i], key=lambda k: spans[k][1]):
            lo, hi = max(spans[c][1], reach), min(spans[c][2], end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append((end - start) - covered)
    return out


def layer_stats(spans):
    """Calls and total time per function, self time per layer.

    A function's total counts only its outermost spans, so recursion is
    not counted twice.
    """
    calls, totals, selfs = {}, {}, {}
    for s, own in zip(spans, self_times(spans)):
        name = s[0]
        calls[name] = calls.get(name, 0) + 1
        layer = name.split(".", 1)[0]
        selfs[layer] = selfs.get(layer, 0.0) + own
        parent = s[3]
        while parent >= 0 and spans[parent][0] != name:
            parent = spans[parent][3]
        if parent < 0:
            totals[name] = totals.get(name, 0.0) + (s[2] - s[1])
    return calls, totals, selfs
