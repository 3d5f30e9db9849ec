"""Compare two result sets written by suite.py.

    python3 perfbench/compare.py BASE_DIR NEW_DIR

For each workload: every end-to-end metric's median and quartiles on both
sides and the change of the median; fail_ratio; whether the output digests
agree; and, where both sides have traced runs, the delta of every per-layer
metric's median.
"""

from __future__ import annotations

import statistics
import sys
from pathlib import Path

from suite import COLUMNS, WORKLOADS, load, value


def quartiles(values: list) -> tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def change(base: float, new: float) -> str:
    return f"{100 * (new - base) / base:+8.1f}%" if base else "      n/a"


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    base, new = (load(Path(d)) for d in argv)
    for w in WORKLOADS:
        a, b = base.get((w, 0)), new.get((w, 0))
        if not a or not b:
            continue
        print(f"{w}: {len(a)} base runs, {len(b)} new runs "
              f"(median [q1 q3]; job_tail_ms is p{a[0]['tail_percentile']:g} "
              f"of {a[0]['tail_jobs']} jobs)")
        for name, unit in COLUMNS:
            qa = quartiles([value(r, name) for r in a])
            qb = quartiles([value(r, name) for r in b])
            print(f"  {name:<12} {unit:<6} {qa[1]:12.4f} [{qa[0]:.4f} {qa[2]:.4f}]  ->  "
                  f"{qb[1]:12.4f} [{qb[0]:.4f} {qb[2]:.4f}]  {change(qa[1], qb[1])}")
        same = {r["digest"] for r in a} == {r["digest"] for r in b}
        print(f"  output digests {'identical' if same else 'DIFFER'}")
        ta, tb = base.get((w, 1)), new.get((w, 1))
        if ta and tb:
            print("  per-layer (median per pass): base -> new, delta")
            for name in ta[0]["per_layer"]:
                ma = statistics.median(r["per_layer"][name] for r in ta)
                mb = statistics.median(r["per_layer"][name] for r in tb)
                if ma or mb:
                    print(f"    {name:<36} {ma:14.6f} -> {mb:14.6f}  {mb - ma:+14.6f}  "
                          f"{change(ma, mb)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
