#!/usr/bin/env python3
"""berklab benchmark: one closed-loop client driving the program in-process.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  With ``--trace 0`` the run sets up (once
here and a few times in child interpreters, reporting the median), warms up
with one request, then times requests for S seconds and reports the
end-to-end metrics.  With ``--trace 1`` it alternates a fixed round of
requests untraced and under the per-layer tracer for S seconds and reports
the per-layer metrics.  The last stdout line is the result object;
the line before it holds the inputs, the environment and the raw samples.

Times are rescaled to a reference machine speed.  On a shared 2-vCPU Xeon
host the same code ran up to 1.5x slower for minutes at a time from
neighbour load (process CPU time drifted with wall time, so it is
contention, not descheduling).  A fixed CPU kernel is timed at most every
REF_EVERY_S between requests (median of REF_REPEATS timings), and each request's (or set-up sample's, or
round's) seconds are multiplied by ``REF_S / kernel seconds`` (for a timed
request, the geometric mean of that factor just before and just after it);
raw seconds are in the detail line.
"""

import os

# pin thread pools before numpy can be imported, here and in child processes
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import itertools  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import workloads  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SETUP_CHILDREN = 4  # set-up samples in fresh interpreters, besides this process's
CHILD_TIMEOUT_S = 120
REF_S = 0.012  # reference kernel time at the nominal machine speed
REF_EVERY_S = 0.25  # re-time the kernel when the last sample is this old
REF_REPEATS = 3  # kernel timings per sample, against the kernel's own noise


class SpeedReference:
    """A fixed CPU kernel in the program's mix: interpreter loops, numpy
    calls on 200-element arrays and scipy.special, about 12 ms."""

    def __init__(self):
        import numpy as np
        from scipy.special import erfcx
        self.np, self.erfcx = np, erfcx
        self.x = np.linspace(0.1, 1.0, 200)
        self.samples = []
        self.last = 0.0

    def _kernel(self):
        np, erfcx, x = self.np, self.erfcx, self.x
        acc = 0.0
        for i in range(100_000):
            acc += i * 0.5
        for i in range(1000):
            acc += float(np.exp(-x * i * 1e-3).sum())
            erfcx(x + i * 1e-3)
        y = x.copy()
        for i in range(250):
            y = np.where(y > 0.5, y * 0.999, y + 1e-3)
            acc += float(erfcx(y).sum()) + sum(range(50))
        return acc

    def sample(self) -> float:
        """Time the kernel REF_REPEATS times; the median is one sample."""
        times = []
        for _ in range(REF_REPEATS):
            t0 = time.perf_counter()
            self._kernel()
            times.append(time.perf_counter() - t0)
        self.last = time.perf_counter()
        self.samples.append(statistics.median(times))
        return REF_S / self.samples[-1]

    def scale(self) -> float:
        """Factor from seconds now to seconds at the reference speed."""
        if time.perf_counter() - self.last >= REF_EVERY_S:
            return self.sample()
        return REF_S / self.samples[-1]


def child_setup_seconds(name: str, seed: int) -> float:
    code = (f"import sys; sys.path.insert(0, {str(BENCH)!r}); import workloads; "
            f"print(workloads.setup_seconds({name!r}, {seed}))")
    done = subprocess.run([sys.executable, "-c", code], cwd=ROOT, capture_output=True,
                          text=True, timeout=CHILD_TIMEOUT_S, check=True)
    return float(done.stdout.strip().splitlines()[-1])


def environment() -> dict:
    import numpy
    import scipy
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as f:
            cpu = next((line.split(":", 1)[1].strip() for line in f
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "nproc": os.cpu_count(),
            "pinned_cpus": sorted(os.sched_getaffinity(0)),
            "cpu": cpu, "commit": git_commit(),
            "threads": {v: os.environ[v] for v in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS")}}


def git_commit() -> str:
    """HEAD of the checkout's own .git, if it has one (never a parent's)."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def timed_requests(workload, speed, budget_s: float):
    """Requests 1, 2, ... until the next would overrun ``budget_s``, but at
    least the workload's ``min_requests`` (default one).

    Returns (outcome, scale) pairs.
    """
    least = getattr(workload, "min_requests", 1)
    done = []
    start = time.perf_counter()
    for i in itertools.count(1):
        before = speed.scale()
        outcome = workload.request(i)
        # a long request is bracketed by two kernel samples; a short one
        # (under REF_EVERY_S) reuses the sample taken before it
        done.append((outcome, math.sqrt(before * speed.scale())))
        typical = statistics.median(o.seconds for o, _ in done)
        if len(done) >= least and time.perf_counter() - start + typical > budget_s:
            return done


def timed_round(workload, speed, tracer=None):
    """One fixed round of requests: (outcomes, scale, tracer stats or None)."""
    scale = speed.sample()
    outcomes = [workload.request(i) for i in range(workload.round_size)]
    stats = None if tracer is None else {n: s.as_dict() for n, s in tracer.stats.items()}
    return outcomes, scale, stats


def totals(outcomes) -> dict:
    return {key: sum(getattr(o, key) for o in outcomes)
            for key in ("seconds", "ops", "failed", "known", "solves", "run_periods",
                        "output_bytes")}


def quantile_summary(values) -> dict:
    values = sorted(values)
    out = {"n": len(values), "median": statistics.median(values)}
    # highest percentile with at least ten samples beyond it
    for pct in (99, 90):
        if len(values) * (100 - pct) / 100 >= 10:
            out[f"p{pct}"] = statistics.quantiles(values, n=100)[pct - 1]
            break
    return out


def measure(workload, args) -> tuple[dict, dict, list]:
    """Untraced run: end-to-end metrics."""
    t0 = time.perf_counter()
    workload.setup()
    raw_setup = [time.perf_counter() - t0]
    speed = SpeedReference()
    setup = [raw_setup[0] * speed.sample()]
    for _ in range(SETUP_CHILDREN):
        scale = speed.sample()
        raw_setup.append(child_setup_seconds(workload.name, args.seed))
        setup.append(raw_setup[-1] * scale)
    warm = workload.request(0)
    pairs = timed_requests(workload, speed, args.seconds)
    outcomes = [o for o, _ in pairs]
    scaled = [o.seconds * scale for o, scale in pairs]
    tot = totals(outcomes)
    metrics = {
        "setup_s": (statistics.median(setup), "s"),
        "wall_s": (statistics.median(scaled), "s"),
        "solves_per_s": (statistics.median(o.solves / s for o, s in zip(outcomes, scaled)),
                         "1/s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "ops_ok_frac": (1.0 - (tot["failed"] + warm.failed) / (tot["ops"] + warm.ops),
                        "frac"),
    }
    detail = {"kernel_s": quantile_summary(speed.samples),
              "raw_setup_s": raw_setup, "raw_warmup_s": warm.seconds,
              "raw_request_s": quantile_summary(o.seconds for o in outcomes),
              "scaled_request_s": quantile_summary(scaled), "totals": tot}
    return metrics, detail, [warm, *outcomes]


def measure_traced(workload, args) -> tuple[dict, dict, list]:
    """Traced run: per-layer metrics for one fixed round of requests."""
    import tracer as tracing
    workload.setup()
    speed = SpeedReference()
    warm = [workload.request(i) for i in range(workload.round_size)]
    # alternate untraced and traced rounds so that machine drift hits both
    plain, traced = [], []
    start = time.perf_counter()
    while True:
        plain.append(timed_round(workload, speed))
        with tracing.Tracer() as tr:
            traced.append(timed_round(workload, speed, tr))
        spent = time.perf_counter() - start
        if spent + spent / len(plain) > args.seconds:
            break
    plain_s = statistics.median(totals(o)["seconds"] * scale for o, scale, _ in plain)
    traced_s = statistics.median(totals(o)["seconds"] * scale for o, scale, _ in traced)
    per_round = []
    for outcomes, scale, stats in traced:
        values = tracing.layer_metrics(stats, totals(outcomes)["run_periods"])
        per_round.append({k: v / scale if k.endswith("_per_s") else
                          v * scale if k.endswith("_s") else v for k, v in values.items()})
    counts = [{k: v for k, v in m.items() if not k.endswith("_s")} for m in per_round]
    metrics = {}
    for name, value in per_round[0].items():
        if name.endswith("_per_s"):
            metrics[name] = (statistics.median(m[name] for m in per_round), "1/s")
        elif name.endswith("_s"):
            metrics[name] = (statistics.median(m[name] for m in per_round), "s")
        else:
            metrics[name] = (value, "count")
    metrics["cli.output_bytes"] = (totals(traced[0][0])["output_bytes"], "bytes")
    metrics["trace.overhead_frac"] = (traced_s / plain_s - 1.0, "frac")
    detail = {"kernel_s": quantile_summary(speed.samples),
              "rounds": {"untraced": len(plain), "traced": len(traced)},
              "scaled_round_s": {"untraced": plain_s, "traced": traced_s},
              "counts_repeat": all(c == counts[0] for c in counts),
              "layer_stats": traced[0][2]}
    outcomes = warm + [o for rounds in (plain, traced) for os_, _, _ in rounds for o in os_]
    return metrics, detail, outcomes


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    needed = ["src/berklab/__init__.py"]
    config = getattr(workloads.WORKLOADS[args.workload], "config", None)
    if config:
        needed.append(config)
    missing = [p for p in needed if not (ROOT / p).is_file()]
    if missing:
        print(f"missing {', '.join(missing)} under {ROOT}; run from a full checkout",
              file=sys.stderr)
        return 2

    # one CPU for the run, its children and the speed reference alike, so the
    # reference sees the same core (and hyperthread neighbour) as the requests
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    with tempfile.TemporaryDirectory(prefix=".bench_tmp-", dir=ROOT) as tmp:
        workload = workloads.WORKLOADS[args.workload](args.seed, Path(tmp))
        run = measure_traced if args.trace else measure
        metrics, detail, outcomes = run(workload, args)

    tot = totals(outcomes)
    # a failure outside the documented enumeration defect means wrong output
    correct = tot["failed"] == tot["known"] and detail.get("counts_repeat", True)
    notes = [n for o in outcomes for n in o.notes][:10]
    print(json.dumps({"detail": {
        "workload": args.workload, "why": workload.why, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace, "inputs": workload.inputs(),
        "env": environment(), "ref_s": REF_S, "failures_known": tot["known"],
        "failure_notes": notes, **detail}}))
    print(json.dumps({
        "correct": bool(correct), "attempted": tot["ops"], "failed": tot["failed"],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
