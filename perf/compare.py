"""Compare two result files of ``perf/run.py``: ``compare.py A.json B.json``.

One row per workload x end-to-end metric: the median of each side, the
ratio ``B / A`` (base: A) and a verdict against the metric's bound --

* ``unresolved`` when either side's own run-to-run spread (distance between
  the first and third quartile, as a share of the median) exceeds the bound:
  the sets cannot tell a change of that size from noise;
* ``regressed`` when B's median is worse than A's by more than the bound;
* ``ok`` otherwise.

Exit status 1 when any row regressed.
"""

from __future__ import annotations

import json
import statistics
import sys

from run import END_TO_END


def load(path: str) -> dict[tuple[str, str], list[float]]:
    """``(workload, metric) -> values`` of a result file's untraced runs."""
    with open(path) as handle:
        runs = json.load(handle)["runs"]
    values: dict[tuple[str, str], list[float]] = {}
    for run in runs:
        if run["trace"]:
            continue
        for metric, value in run["end_to_end"].items():
            values.setdefault((run["workload"], metric), []).append(value)
    return values


def spread(values: list[float]) -> float:
    """Interquartile distance as a share of the median (0 for one run)."""
    if len(values) < 2:
        return 0.0
    low, _, high = statistics.quantiles(values, n=4)
    return (high - low) / statistics.median(values)


def compare(base: dict, other: dict) -> list[dict]:
    """The comparison rows, in the order of the base file."""
    rows = []
    for (workload, metric), a_values in base.items():
        b_values = other.get((workload, metric))
        if b_values is None or metric not in END_TO_END:
            continue
        _unit, better, bound = END_TO_END[metric]
        a, b = statistics.median(a_values), statistics.median(b_values)
        worse_by = (b - a) / a if better == "lower" else (a - b) / a
        noise = max(spread(a_values), spread(b_values))
        if noise > bound:
            verdict = "unresolved"
        elif worse_by > bound:
            verdict = "regressed"
        else:
            verdict = "ok"
        rows.append(
            {
                "workload": workload, "metric": metric, "a": a, "b": b,
                "ratio": b / a, "runs": (len(a_values), len(b_values)),
                "spread": noise, "bound": bound, "verdict": verdict,
            }
        )
    return rows


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__.split("\n\n")[0], file=sys.stderr)
        return 2
    rows = compare(load(argv[0]), load(argv[1]))
    print(f"{'workload':<14}{'metric':<16}{'A':>12}{'B':>12}"
          f"{'B/A (base A)':>14}{'spread':>9}{'bound':>7}  verdict")
    for row in rows:
        print(
            f"{row['workload']:<14}{row['metric']:<16}{row['a']:>12.5g}"
            f"{row['b']:>12.5g}{row['ratio']:>14.4f}{row['spread']:>9.4f}"
            f"{row['bound']:>7.2f}  {row['verdict']} (n={row['runs'][0]}/{row['runs'][1]})"
        )
    return int(any(row["verdict"] == "regressed" for row in rows))


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
