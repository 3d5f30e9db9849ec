"""Seeded batch benchmark for treeca: one workload, one seed, one process.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
                             [--record FILE]

Run from the root of a checkout.  Set-up imports treeca from src/ and builds
the workload's corpus from the seed.  The timed phase then runs whole passes
over the corpus, one job at a time, until S seconds have gone.  Afterwards
every result of the first pass is checked against the references, and every
later pass must reproduce the first one's outputs exactly.

The last line of stdout is one JSON object: correct, attempted, failed and
metrics.  With --trace 0 the metrics are the end-to-end ones.  With --trace 1
every job runs twice per pass, traced and untraced back to back, and the
metrics are the per-layer ones from the traced calls' spans, per pass, plus
trace.overhead_ratio.  correct is false when a job other than a known-defect
job fails.  --record writes the full record (job counts, tail percentile,
digest, failures, raw timings) as JSON for suite.py and compare.py.

Times are reported at a reference machine speed.  The CPU this runs on can
change speed by a factor of two within seconds when other tenants load the
host, so a short fixed calibration (see Calibration) is timed before every
job, and each job's time is divided by the machine's slowdown at that
moment.  The record also keeps the raw end-to-end values.

End-to-end metrics: setup_s is the time from process start to the first
timed job: the median time for a fresh interpreter to start and import
treeca and the benchmark, plus the median time to build the corpus from the
seed, each measured SETUP_REPEATS times; jobs_per_s counts jobs over the
summed job times of the timed phase; a job's latency is the median over the
passes, and job_p50_ms and job_tail_ms are percentiles over the jobs of one
pass; peak_rss_mb is this process's peak resident memory at the end of the
timed phase.
"""

import argparse
import hashlib
import json
import math
import os
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
import warnings
from pathlib import Path

import reference as ref
from corpus import ABG, random_nbta

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
TAIL_LADDER = (99.9, 99.5, 99, 98, 95, 90, 75, 50)
SETUP_REPEATS = 3
CALIBRATION_S = 300e-6  # the calibration's time at the reference speed
SMOOTHING = 4  # a job's slowdown is the median over this many jobs each side

END_TO_END = [
    ("setup_s", "s"), ("jobs_per_s", "1/s"), ("job_p50_ms", "ms"),
    ("job_tail_ms", "ms"), ("peak_rss_mb", "MB"),
]


class Calibration:
    """A fixed piece of the benchmark's own pure-Python work: bottom-up runs
    of one automaton over the 74 trees of height <= 3 over a/0 b/0 g/1 f/2,
    the same kind of tuple, set and dict work treeca does.  Its time over
    CALIBRATION_S is the machine's slowdown at that moment."""

    def __init__(self) -> None:
        self.a = random_nbta(random.Random(1), ABG, 6)
        self.trees = ref.trees_upto(ABG, 3)

    def slowdown(self) -> float:
        t0 = time.perf_counter()
        runs = ref.Runs(self.a)
        for t in self.trees:
            runs.accepts(t)
        return (time.perf_counter() - t0) / CALIBRATION_S

    def settled(self) -> float:
        return statistics.median(self.slowdown() for _ in range(2 * SMOOTHING + 1))


def start_seconds() -> float:
    """Seconds for a fresh interpreter to start, import treeca and this
    benchmark's modules, and exit: the part of set-up one process pays once."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(ROOT / "src"), str(HERE)]))
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import treeca, checks, jobs, spans, workloads"],
                   env=env, cwd=ROOT, check=True, timeout=60)
    return time.perf_counter() - t0


def smooth(samples: list) -> list:
    """Centred running median, which keeps steps in machine speed and drops
    the noise of single calibrations."""
    n = len(samples)
    return [statistics.median(samples[max(0, i - SMOOTHING):min(n, i + SMOOTHING + 1)])
            for i in range(n)]


def tail(latencies: list) -> tuple[float, float]:
    """(percentile, value): the highest percentile of TAIL_LADDER with at
    least ten jobs beyond it, by the nearest-rank rule."""
    ordered = sorted(latencies)
    n = len(ordered)
    for p in TAIL_LADDER:
        rank = max(math.ceil(p / 100 * n), 1)
        if n - rank >= 10:
            return p, ordered[rank - 1]
    return 50.0, statistics.median(ordered)


def load_fixtures() -> dict:
    return {p.name: p.read_text(encoding="utf-8") for p in sorted((ROOT / "fixtures").iterdir())
            if p.suffix in (".bta", ".tta")}


def write_inputs(workdir: Path, texts: dict) -> None:
    workdir.mkdir(parents=True, exist_ok=True)
    for name, text in texts.items():
        path = workdir / name
        if isinstance(text, bytes):
            path.write_bytes(text)
        else:
            path.write_text(text, encoding="utf-8")


class Pass:
    """One pass over the jobs: untraced latencies, the machine's slowdown
    before each job, output fingerprints and, in a traced run, the traced
    latencies of the same jobs.  The first pass also keeps its full results
    and texts for the reference checks."""

    def __init__(self) -> None:
        self.results: list = []
        self.prints: list = []
        self.latency: list[float] = []
        self.slowdown: list[float] = []
        self.traced_latency: list[float] = []
        self.mismatch: set[int] = set()
        self.tracebacks = 0
        self.texts: dict = {}

    def scaled(self) -> list[float]:
        """Untraced latencies at the reference speed."""
        return [t / s for t, s in zip(self.latency, smooth(self.slowdown))]


def run_pass(number: int, jobs, texts, runner, order, calibration, tracer) -> Pass:
    """Run every job once untraced or, in a traced run, twice: traced and
    untraced back to back in the given order, so both see the same machine.
    A job's saved output becomes an input of later jobs."""
    p = Pass()
    texts = dict(texts)
    clock = time.perf_counter
    for i, job in enumerate(jobs):
        if tracer is not None:
            tracer.job = (number, i)
        p.slowdown.append(calibration.slowdown())
        seen = None
        for traced in order:
            t0 = clock()
            res = runner(job, texts, traced)
            t1 = clock()
            fingerprint = (res.code, res.exc, hashlib.sha1(res.out.encode()).digest())
            if traced:
                p.traced_latency.append(t1 - t0)
                tracer.spans.append((tracer.job, "job." + job.verb, t0, t1, None))
            else:
                p.latency.append(t1 - t0)
                p.prints.append(fingerprint)
                p.tracebacks += "Traceback" in res.err
                if number == 0:
                    p.results.append(res)
            if seen not in (None, fingerprint):
                p.mismatch.add(i)
            seen = fingerprint
        if job.save_as:
            texts[job.save_as] = res.out
    if number == 0:
        p.texts = texts
    return p


def digest_of(results) -> str:
    h = hashlib.sha256()
    for r in results:
        h.update(f"{r.code}\0{r.exc}\0{len(r.out)}\0".encode())
        h.update(r.out.encode())
    return h.hexdigest()


def end_to_end(setup_s: float, latencies: list, peak_rss_mb: float) -> tuple[dict, float]:
    """The end-to-end metrics from per-pass job latencies, and the tail percentile."""
    n = len(latencies[0])
    per_job = [statistics.median(lat[i] for lat in latencies) for i in range(n)]
    tail_pct, tail_s = tail(per_job)
    return {
        "setup_s": setup_s,
        "jobs_per_s": n * len(latencies) / sum(map(sum, latencies)),
        "job_p50_ms": 1000 * statistics.median(per_job),
        "job_tail_ms": 1000 * tail_s,
        "peak_rss_mb": peak_rss_mb,
    }, tail_pct


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--record", help="write the full run record here as JSON")
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "treeca" / "__init__.py").is_file() or not (ROOT / "fixtures").is_dir():
        print("error: run from a treeca checkout: src/treeca and fixtures/ are missing",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import treeca  # noqa: F401

    import checks
    import jobs as J
    import spans
    from workloads import WORKLOADS, build

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; one of {', '.join(WORKLOADS)}",
              file=sys.stderr)
        return 2
    warnings.filterwarnings("ignore", message="pre_context removes unreachable states")
    calibration = Calibration()

    cli = args.workload == "cli-batch"
    workdir = ROOT / ".perfbench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        raw_starts, starts, raw_builds, builds = [], [], [], []
        for _ in range(SETUP_REPEATS):
            raw_starts.append(start_seconds())
            starts.append(raw_starts[-1] / calibration.settled())
            t0 = time.perf_counter()
            texts, joblist = build(args.workload, args.seed, load_fixtures())
            if cli:
                write_inputs(workdir, texts)
            raw_builds.append(time.perf_counter() - t0)
            builds.append(raw_builds[-1] / calibration.settled())
        setup_s = statistics.median(starts) + statistics.median(builds)
        raw_setup_s = statistics.median(raw_starts) + statistics.median(raw_builds)

        tracer = spans.Tracer() if args.trace else None
        plain = spans.make_api(None)
        traced_api = spans.make_api(tracer) if tracer else None
        child_spans = workdir / "spans.jsonl"

        def runner(job, texts, traced):
            if not cli:
                return J.run_inprocess(traced_api if traced else plain, job, texts)
            if not traced:
                return J.run_cli(job, ROOT, workdir)
            res = J.run_cli(job, ROOT, workdir, child_spans)
            tracer.spans.extend((tracer.job,) + tuple(s[1:]) for s in J.read_child_spans(child_spans))
            child_spans.unlink(missing_ok=True)
            return res

        # A traced run alternates which of the pair goes first, starting with
        # the traced one, so the traced calls also meet the cold caches.
        passes: list[Pass] = []
        deadline = time.perf_counter() + args.seconds
        while not passes or time.perf_counter() < deadline or (args.trace and len(passes) < 2):
            order = ((True, False), (False, True))[len(passes) % 2] if args.trace else (False,)
            passes.append(run_pass(len(passes), joblist, texts, runner, order, calibration, tracer))
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

        # Correctness: the first pass against the references, the rest against the first.
        first = passes[0]
        ctx = checks.Context({k: v for k, v in first.texts.items() if not isinstance(v, bytes)})
        reasons = [checks.check(job, res, ctx) for job, res in zip(joblist, first.results)]
        for p in passes:
            for i, (a, b) in enumerate(zip(first.prints, p.prints)):
                if a != b and reasons[i] is None:
                    reasons[i] = "output differs between passes"
            for i in p.mismatch:
                reasons[i] = reasons[i] or "output differs when traced"
        failed_jobs = [i for i, r in enumerate(reasons) if r is not None]
        unexpected = [i for i in failed_jobs if not joblist[i].defect]
        attempted = len(joblist) * len(passes)
        failed = len(failed_jobs) * len(passes)
        digest = digest_of(first.results)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass

    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "passes": len(passes), "jobs_per_pass": len(joblist),
        "latency_us": [[round(1e6 * t) for t in p.latency] for p in passes],
        "slowdown": [[round(s, 3) for s in p.slowdown] for p in passes],
        "fail_ratio": failed / attempted, "digest": digest,
        "failures": [
            {"job": i, "verb": joblist[i].verb, "files": joblist[i].files,
             "reason": reasons[i], "defect": joblist[i].defect}
            for i in failed_jobs
        ],
    }
    print(f"workload {args.workload}  seed {args.seed}  passes {len(passes)}  "
          f"jobs/pass {len(joblist)}  digest {digest}")
    print(f"  {'fail_ratio':<12} {record['fail_ratio']:12.4f} ratio  "
          f"({failed} of {attempted} jobs)")
    for f in record["failures"]:
        tag = f"known defect: {f['defect']}" if f["defect"] else "UNEXPECTED"
        print(f"  failed job {f['job']} {f['verb']} {' '.join(f['files'])}: {f['reason']} [{tag}]")

    if args.trace:
        jobs_range = range(len(joblist))
        overhead = sum(min(p.traced_latency[i] for p in passes) for i in jobs_range) / \
            sum(min(p.latency[i] for p in passes) for i in jobs_range)
        factors = {(n, i): s for n, p in enumerate(passes)
                   for i, s in enumerate(smooth(p.slowdown))}
        scaled = [p.scaled() for p in passes]
        cli_numbers = {
            "startup": [statistics.median(lat[i] for lat in scaled)
                        for i in jobs_range if joblist[i].trivial],
            "invocations": len(joblist) if cli else 0,
            "tracebacks": sum(p.tracebacks for p in passes) / len(passes),
        }
        layers = spans.layer_metrics(tracer.spans, factors, len(passes), cli_numbers, overhead)
        record["per_layer"] = layers
        for name, unit in spans.PER_LAYER:
            print(f"  {name:<34} {layers[name]:14.6f} {unit}")
        metrics = {name: {"value": layers[name], "unit": unit} for name, unit in spans.PER_LAYER}
    else:
        e2e, tail_pct = end_to_end(setup_s, [p.scaled() for p in passes], peak_rss_mb)
        raw, _ = end_to_end(raw_setup_s, [p.latency for p in passes], peak_rss_mb)
        record.update(end_to_end=e2e, raw_end_to_end=raw, tail_percentile=tail_pct,
                      tail_jobs=len(joblist))
        print(f"  {'metric':<12} {'at reference speed':>18} {'raw':>12}")
        for name, unit in END_TO_END:
            extra = f"  (p{tail_pct:g} of {len(joblist)} jobs)" if name == "job_tail_ms" else ""
            print(f"  {name:<12} {e2e[name]:18.4f} {raw[name]:12.4f} {unit}{extra}")
        metrics = {name: {"value": e2e[name], "unit": unit} for name, unit in END_TO_END}

    if args.record:
        Path(args.record).write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    print(json.dumps({"correct": not unexpected, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
