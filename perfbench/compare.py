"""Compare two benchmark result files (JSON lines written by ``run.py --out``).

    python3 perfbench/compare.py BASE.jsonl NEW.jsonl

For each workload and metric, prints each side's median and quartiles over
its runs, the ratio new/base of the medians, and, for end-to-end metrics,
whether the new median is within the bound BENCHMARK.json fixes.  A metric
whose base spread (quartile distance over median) is wider than its bound is
reported as unresolved.  Report digests are compared per suite, which shows
whether fixed-seed values moved.  Exits 1 if any end-to-end metric regressed
beyond its bound.
"""

from __future__ import annotations

import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def load(path: str) -> dict:
    """{workload: {"metrics": {name: [values]}, "digests": {suite: set}}}"""
    out: dict = defaultdict(lambda: {"metrics": defaultdict(list),
                                     "digests": defaultdict(set)})
    with open(path) as fh:
        for line in fh:
            if not line.strip():
                continue
            rec = json.loads(line)
            side = out[rec["workload"]]
            for name, value in rec["metrics"].items():
                side["metrics"][name].append(value)
            for suite, digest in rec["digests"].items():
                side["digests"][suite].add(digest)
    return out


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def compare(base: dict, new: dict, spec: dict) -> tuple[list[str], bool]:
    bounds = {m["name"]: (m["bound"], m["better"]) for m in spec["end_to_end"]}
    better = {m["name"]: m["better"] for m in spec["per_layer"]}
    lines, regressed = [], False
    head = (f"{'workload':13s} {'metric':34s} {'base q1/med/q3':>32s} "
            f"{'new q1/med/q3':>32s} {'new/base':>9s}  verdict")
    lines.append(head)
    for workload in sorted(set(base) | set(new)):
        b, n = base.get(workload), new.get(workload)
        if b is None or n is None:
            lines.append(f"{workload:13s} only in {'new' if b is None else 'base'}")
            continue
        for metric in sorted(set(b["metrics"]) & set(n["metrics"]),
                             key=lambda m: (m not in bounds, m)):
            bq, nq = quartiles(b["metrics"][metric]), quartiles(n["metrics"][metric])
            ratio = nq[1] / bq[1] if bq[1] else float("nan")
            verdict = ""
            if metric in bounds:
                bound, direction = bounds[metric]
                worse = (nq[1] - bq[1]) / abs(bq[1]) if bq[1] else 0.0
                if direction == "higher":
                    worse = -worse
                spread = (bq[2] - bq[0]) / abs(bq[1]) if bq[1] else 0.0
                if worse > bound:
                    verdict, regressed = f"REGRESSION (> {bound:.0%} worse)", True
                elif spread > bound:
                    verdict = f"unresolved (base spread {spread:.0%} > {bound:.0%})"
                else:
                    verdict = f"within {bound:.0%}"
            elif metric in better:
                verdict = f"({better[metric]} is better)"
            fmt = "{:10.4g} {:10.4g} {:10.4g}"
            lines.append(f"{workload:13s} {metric:34s} {fmt.format(*bq):>32s} "
                         f"{fmt.format(*nq):>32s} {ratio:9.4f}  {verdict}")
        for suite in sorted(set(b["digests"]) | set(n["digests"])):
            bd, nd = b["digests"].get(suite, set()), n["digests"].get(suite, set())
            if len(bd) > 1 or len(nd) > 1:
                state = "NOT DETERMINISTIC within a side"
            elif bd == nd:
                state = "identical"
            else:
                state = "moved"
            lines.append(f"{workload:13s} digest {suite:27s} {state}")
    return lines, regressed


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    with open(BENCHMARK) as fh:
        spec = json.load(fh)
    lines, regressed = compare(load(argv[0]), load(argv[1]), spec)
    print("\n".join(lines))
    return 1 if regressed else 0


if __name__ == "__main__":
    sys.exit(main())
