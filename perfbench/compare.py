"""Compare benchmark results from two commits.

Each input is a results file that perfbench/run.py appends one JSON
record to per run (``.bench_build/perfbench/results.jsonl`` by default).
Runs of one workload are paired in file order, so alternate the two
commits' runs when collecting them. For every workload x metric the
report gives each side's median and quartiles, the fraction of pairs the
change wins (ties count for neither side), and a verdict:

- ``gain``: the change wins at least 9 of every 10 pairs and the medians
  differ by more than the base's own quartile spread;
- ``regression``: the change's median is worse than the base's by more
  than the metric's bound from BENCHMARK.json;
- ``unresolved``: the base's own quartile spread is wider than the bound
  and not every change run beats every base run;
- ``within bound``: none of the above, for a metric with a bound;
- ``loss``: the mirror image of ``gain``, for a metric without a bound;
- ``identical``: every pair reads exactly the same (deterministic
  metrics and counters of a change that only makes code faster);
- ``too few pairs``: fewer than 10 pairs, so no claim either way.
"""

import json
import statistics

MIN_PAIRS = 10
WIN_SHARE = 0.9


def quartiles(values):
    """(q1, median, q3) as statistics.quantiles(values, n=4) gives them."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def _better(a, b, better):
    """True when value a reads better than value b."""
    return a < b if better == "lower" else a > b


def verdict(base, change, better, bound=None):
    """Apply the pairwise rule to two equally ordered lists of values.

    Returns (verdict, wins, pairs): wins counts the pairs the change
    reads strictly better in; ties count for neither side.
    """
    pairs = list(zip(base, change))
    wins = sum(1 for b, c in pairs if _better(c, b, better))
    losses = sum(1 for b, c in pairs if _better(b, c, better))
    n = len(pairs)
    if n and wins == 0 and losses == 0:
        return "identical", wins, n
    if n < MIN_PAIRS:
        return "too few pairs", wins, n
    base = [b for b, _ in pairs]
    change = [c for _, c in pairs]
    q1, base_median, q3 = quartiles(base)
    change_median = statistics.median(change)
    spread = q3 - q1
    gain = (base_median - change_median if better == "lower"
            else change_median - base_median)
    if wins >= WIN_SHARE * n and gain > spread:
        return "gain", wins, n
    if bound is None:
        if losses >= WIN_SHARE * n and -gain > spread:
            return "loss", wins, n
        return "no clear change", wins, n
    allowance = bound * abs(base_median)
    every_change_better = all(
        _better(c, b, better) for c in change for b in base)
    if spread > allowance and not every_change_better:
        return "unresolved", wins, n
    if -gain > allowance:
        return "regression", wins, n
    return "within bound", wins, n


def load_results(path):
    """Records of a results file, in run order."""
    with open(path) as f:
        return [json.loads(line) for line in f if line.strip()]


def metric_series(records):
    """{(workload, metric): [values in run order]} plus each unit."""
    series, units = {}, {}
    for rec in records:
        for name, m in rec.get("metrics", {}).items():
            if m.get("value") is None:
                continue
            key = (rec["workload"], name)
            series.setdefault(key, []).append(m["value"])
            units[key] = m.get("unit", "")
    return series, units


def metric_specs(benchmark):
    """{metric: (better, bound or None)} from a BENCHMARK.json object."""
    specs = {}
    for m in benchmark.get("end_to_end", []):
        specs[m["name"]] = (m["better"], m["bound"])
    for m in benchmark.get("per_layer", []):
        specs[m["name"]] = (m["better"], None)
    return specs


def compare(base_records, change_records, benchmark):
    """One row per workload x metric present on both sides."""
    specs = metric_specs(benchmark)
    base, units = metric_series(base_records)
    change, _ = metric_series(change_records)
    rows = []
    for key in sorted(set(base) & set(change)):
        better, bound = specs.get(key[1], ("lower", None))
        v, wins, n = verdict(base[key], change[key], better, bound)
        rows.append({
            "workload": key[0], "metric": key[1], "unit": units[key],
            "better": better, "bound": bound,
            "base": quartiles(base[key]), "change": quartiles(change[key]),
            "wins": wins, "pairs": n, "verdict": v,
        })
    return rows


def render(rows):
    def fmt(q):
        return "%.6g [%.6g, %.6g]" % (q[1], q[0], q[2])

    lines = ["%-20s %-28s %-10s %-38s %-38s %-8s %s" % (
        "workload", "metric", "unit", "base median [q1, q3]",
        "change median [q1, q3]", "wins", "verdict")]
    for r in rows:
        lines.append("%-20s %-28s %-10s %-38s %-38s %-8s %s" % (
            r["workload"], r["metric"], r["unit"], fmt(r["base"]),
            fmt(r["change"]), "%d/%d" % (r["wins"], r["pairs"]),
            r["verdict"]))
    return "\n".join(lines)
