"""Compare two results files written by ``run.py --out``.

Usage::

    python perf/compare.py OLD.json NEW.json

Prints one row per (workload, metric): both medians with their
quartiles, the change, and for end-to-end metrics a verdict against the
metric's bound:

- ``worse``: the new median is worse than the old by more than the bound
  (for a bound of 0, worse at all);
- ``better``: the new median is better by more than the old runs' own
  spread (the distance between their quartiles, as a share of the
  median), and the new run is the better one in at least 90% of all
  (old run, new run) pairs;
- ``same``: neither;
- ``unresolved``: the spread of either side exceeds the bound, so the
  medians cannot be told apart, unless every new run is better than
  every old run (then ``better``).

Per-layer metrics come from one traced run and carry no bound; their rows
show the change only.  Files that differ in scale, seed, or any
workload's definition are refused (exit 2).  Exits 1 when any end-to-end
verdict is ``worse``, else 0.
"""

from __future__ import annotations

import json
import sys

import metrics as m
from layers import PER_LAYER


class Refused(ValueError):
    """The two files do not measure the same thing."""


def _spread(row: dict) -> float:
    med = abs(row["median"])
    return (row["q3"] - row["q1"]) / med if med else 0.0


def verdict(metric: m.Metric, old: dict, new: dict) -> str:
    """The verdict for one end-to-end metric (see the module docstring)."""
    sign = 1 if metric.better == "lower" else -1
    o, n = old["median"], new["median"]
    worse = sign * (n - o)  # > 0: the new median is worse
    if o == 0 or metric.bound == 0:
        return "worse" if worse > 0 else "better" if worse < 0 else "same"
    delta = worse / abs(o)
    if max(_spread(old), _spread(new)) > metric.bound:
        every_run_better = all(sign * (b - a) < 0 for a in old["values"]
                               for b in new["values"])
        return "better" if every_run_better else "unresolved"
    if delta > metric.bound:
        return "worse"
    pairs = [sign * (b - a) < 0 for a in old["values"]
             for b in new["values"]]
    if -delta > _spread(old) and sum(pairs) >= 0.9 * len(pairs):
        return "better"
    return "same"


def check_comparable(old: dict, new: dict) -> None:
    """Raise :class:`Refused` unless both files measure the same thing."""
    for key in ("scale", "seed"):
        if old[key] != new[key]:
            raise Refused(f"{key} differs: {old[key]!r} vs {new[key]!r}")
    if set(old["workloads"]) != set(new["workloads"]):
        raise Refused(f"workloads differ: {sorted(old['workloads'])} vs "
                      f"{sorted(new['workloads'])}")
    for name, wl in old["workloads"].items():
        if wl["definition"] != new["workloads"][name]["definition"]:
            raise Refused(f"workload {name} is defined differently")


def _change(o: float, n: float) -> str:
    return f"{(n - o) / abs(o):+.1%}" if o else ("+0.0%" if n == o else "n/a")


def _row(*cells) -> str:
    return "{:<14} {:<30} {:<6} {:<30} {:<30} {:>8} {:>6}  {}".format(*cells)


def _quartiles(row: dict) -> str:
    return f"{row['median']:.4g} [{row['q1']:.4g}, {row['q3']:.4g}]"


def compare(old: dict, new: dict) -> tuple[list[str], bool]:
    """Rows of the comparison, and whether any end-to-end metric is worse."""
    check_comparable(old, new)
    lines = [_row("workload", "metric", "unit", "old median [q1, q3]",
                  "new median [q1, q3]", "change", "bound", "verdict")]
    any_worse = False
    for name in m.WORKLOADS:
        if name not in old["workloads"]:
            continue
        ow, nw = old["workloads"][name], new["workloads"][name]
        for metric in m.END_TO_END:
            if metric.name not in ow["end_to_end"]:
                continue
            a = ow["end_to_end"][metric.name]
            b = nw["end_to_end"][metric.name]
            v = verdict(metric, a, b)
            any_worse |= v == "worse"
            lines.append(_row(name, metric.name, metric.unit, _quartiles(a),
                              _quartiles(b),
                              _change(a["median"], b["median"]),
                              f"{metric.bound:.0%}", v))
        for metric, (unit, _) in PER_LAYER.items():
            a = ow["per_layer"][metric]["value"]
            b = nw["per_layer"][metric]["value"]
            lines.append(_row(name, metric, unit, f"{a:.6g}", f"{b:.6g}",
                              _change(a, b), "-", "(traced run, no bound)"))
    return lines, any_worse


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        return 2
    docs = []
    for path in argv:
        try:
            with open(path, encoding="utf-8") as fh:
                doc = json.load(fh)
            m.validate_results(doc)
        except (OSError, ValueError) as exc:
            print(f"compare: {path}: {exc}", file=sys.stderr)
            return 2
        docs.append(doc)
    try:
        lines, any_worse = compare(*docs)
    except Refused as exc:
        print(f"compare: refused: {exc}", file=sys.stderr)
        return 2
    print("\n".join(lines))
    return 1 if any_worse else 0


if __name__ == "__main__":
    sys.exit(main())
