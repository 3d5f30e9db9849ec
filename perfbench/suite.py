"""Run every workload and print the end-to-end metrics, one row per workload.

    python3 perfbench/suite.py --out DIR [--seeds 1,2,3] [--seconds S] [--trace]

Each run is a fresh `run.py` process, one at a time.  Its record goes to
DIR/<workload>.<seed>.t<trace>.json; compare.py reads two such directories.
The table shows the median over the seeds of setup_s, jobs_per_s,
job_p50_ms, job_tail_ms, peak_rss_mb and fail_ratio.  With --trace every
workload also gets one traced run per seed, and the per-layer metrics are
printed as medians over those runs.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

from run import END_TO_END, ROOT

sys.path.insert(0, str(ROOT / "src"))
from workloads import WORKLOADS  # noqa: E402

COLUMNS = END_TO_END + [("fail_ratio", "ratio")]


def load(directory: Path) -> dict:
    """Records by (workload, trace): lists over seeds."""
    out: dict = {}
    for path in sorted(directory.glob("*.json")):
        rec = json.loads(path.read_text(encoding="utf-8"))
        out.setdefault((rec["workload"], rec["trace"]), []).append(rec)
    return out


def value(rec: dict, name: str) -> float:
    return rec["fail_ratio"] if name == "fail_ratio" else rec["end_to_end"][name]


def print_table(records: dict) -> None:
    head = f"{'workload':<12}" + "".join(f"{f'{n} ({u})':>20}" for n, u in COLUMNS)
    print(head)
    for w in WORKLOADS:
        recs = records.get((w, 0))
        if not recs:
            continue
        cells = [statistics.median(value(r, n) for r in recs) for n, _ in COLUMNS]
        print(f"{w:<12}" + "".join(f"{c:20.4f}" for c in cells))
    for w in WORKLOADS:
        recs = records.get((w, 0))
        if recs:
            r = recs[0]
            digests = sorted({x["digest"][:16] for x in recs})
            print(f"{w:<12} job_tail_ms is p{r['tail_percentile']:g} of {r['tail_jobs']} jobs; "
                  f"{len(recs)} runs; digests {' '.join(digests)}")


def print_layers(records: dict) -> None:
    for w in WORKLOADS:
        recs = records.get((w, 1))
        if not recs:
            continue
        print(f"\n{w}: per-layer metrics per pass, median of {len(recs)} traced runs")
        for name in recs[0]["per_layer"]:
            print(f"  {name:<36} {statistics.median(r['per_layer'][name] for r in recs):16.6f}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--out", required=True, help="directory for the run records")
    ap.add_argument("--seeds", default="1,2,3")
    ap.add_argument("--seconds", type=float,
                    default=json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"])
    ap.add_argument("--trace", action="store_true", help="also make one traced run per seed")
    args = ap.parse_args(argv)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    for w in WORKLOADS:
        for seed in args.seeds.split(","):
            for trace in (0, 1) if args.trace else (0,):
                record = out / f"{w}.{seed}.t{trace}.json"
                cmd = [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", w, "--seed", seed,
                       "--seconds", str(args.seconds), "--trace", str(trace),
                       "--record", str(record)]
                proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
                if proc.returncode != 0:
                    print(proc.stdout + proc.stderr, file=sys.stderr)
                    return proc.returncode
                print(f"ran {w} seed {seed} trace {trace}: {proc.stdout.splitlines()[-1][:100]}",
                      file=sys.stderr)
    records = load(out)
    print_table(records)
    print_layers(records)
    return 0


if __name__ == "__main__":
    sys.exit(main())
