"""triholo benchmark: one closed-loop client running seeded exact jobs.

    python3 perfbench/run.py --workload surface-solve --seed 1 --seconds 20 --trace 0

One process, one thread: each job starts when the previous one ends.  Every
input comes from --seed.  The runner sets up the workload several times and
reports the median set-up time, then runs whole decks of jobs (see
workloads.py) until the timed job time reaches --seconds and at least
MIN_JOBS jobs ran.  Each job's answer is checked exactly, outside the timed
interval.

Reported times are scaled to a nominal host speed.  The speed of the shared
hosts this runs on drifts by up to 2x over minutes, which no run length
averages away.  So a fixed reference task (pure-Python Fraction arithmetic,
like the library's own work) is timed after every job and around every
set-up, and each measured time is multiplied by REFERENCE_S over the mean of
the reference times just before and just after it.  The raw wall times are
printed too, and written per job to the jobs file.

--trace 0 prints the end-to-end metrics.  --trace 1 runs the same decks a
second time with the tracer installed and prints the per-layer metrics; the
traced time against the untraced time of the same decks gives
trace.overhead_frac.  The last stdout line is one JSON object:
{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}.

`failed` counts jobs that raised or gave a wrong answer, including malformed
cli-small inputs that did not end in a typed error; fail_frac is failed /
attempted.  `correct` is false when a job on well-formed input failed.
Per-job sizes and times go to .perfbench_out/ in the checkout, and the spans
of a traced run with them.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import random
import resource
import shutil
import statistics
import sys
import tempfile
import time
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

from spans import LAYER_METRICS, Tracer
from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
MODULES = ("ratmat", "mesh", "connection", "solver", "lattice", "opalgebra",
           "simplicial", "io", "cli", "svgplot", "fixtures")
TRACED = MODULES[:-1]      # fixtures only makes inputs at set-up
SETUP_ROUNDS = 3
MIN_JOBS = 100             # p90 then has at least ten samples beyond it
REFERENCE_S = 0.005        # nominal duration of reference_task()

END_TO_END = {
    "setup_s": "s",
    "jobs_per_s": "1/s",
    "job_p50_ms": "ms",
    "job_p90_ms": "ms",
    "peak_rss_mb": "MB",
}


def reference_task() -> Fraction:
    """Fixed exact arithmetic whose time measures the host's current speed."""
    acc = Fraction(0)
    seen = {}
    for i in range(1, 800):
        x = Fraction(i % 7 + 1, i % 5 + 1)
        acc += x * x
        seen[(i, i % 3)] = acc.numerator & 1023
    return acc


def time_reference() -> float:
    start = time.perf_counter()
    reference_task()
    return time.perf_counter() - start


def parse_args(argv):
    p = argparse.ArgumentParser(prog="perfbench/run.py", description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true",
                   help="tiny inputs, one set-up round and one deck (for the smoke test)")
    return p.parse_args(argv)


def setup(workload: str, seed: int, workdir: str, smoke: bool):
    """Import triholo afresh, make the inputs and run the warm-up jobs.
    Returns (raw seconds, scaled seconds, lib, workload)."""
    for name in [m for m in sys.modules if m == "triholo" or m.startswith("triholo.")]:
        del sys.modules[name]
    before = time_reference()
    start = time.perf_counter()
    lib = SimpleNamespace(**{m: importlib.import_module(f"triholo.{m}") for m in MODULES})
    wl = WORKLOADS[workload](lib, random.Random(seed), workdir, smoke)
    for job in wl.warmup():
        job.run()
    elapsed = time.perf_counter() - start
    scale = 2 * REFERENCE_S / (before + time_reference())
    return elapsed, elapsed * scale, lib, wl


def run_decks(decks, seconds: float, min_jobs: int = 0,
              tracer: Tracer | None = None) -> list:
    """Run whole decks until the raw timed job time reaches `seconds` and at
    least `min_jobs` jobs ran.  `decks` is an iterator; returns one record
    per job."""
    records = []
    timed = 0.0
    gc.collect()
    ref_before = time_reference()
    for deck in decks:
        for job in deck:
            if tracer is not None:
                tracer.job = len(records)
                tracer.active = True
            start = time.perf_counter()
            try:
                out, error = job.run(), None
            except Exception as exc:        # a failed job is counted, not fatal
                out, error = None, type(exc).__name__
            elapsed = time.perf_counter() - start
            if tracer is not None:
                tracer.active = False
            ref_after = time_reference()
            scale = 2 * REFERENCE_S / (ref_before + ref_after)
            ref_before = ref_after
            ok = False
            if error is None:
                try:
                    ok = bool(job.check(out))
                except Exception as exc:    # a malformed answer fails its check
                    error = f"check:{type(exc).__name__}"
            records.append({"job": job, "raw_s": elapsed, "s": elapsed * scale,
                            "scale": scale, "ok": ok, "error": error,
                            "bytes": job.out_bytes(out) if out is not None else 0})
            timed += elapsed
        if timed >= seconds and len(records) >= min_jobs:
            break
    return records


def seeded_decks(wl, seed: int, store: list):
    rng = random.Random(seed)
    while True:
        deck = wl.deck(rng)
        store.append(deck)
        yield deck


def end_to_end(records: list, setup_times: list, key: str = "s") -> dict:
    times = [r[key] for r in records]
    ms = sorted(t * 1000 for t in times)
    deciles = statistics.quantiles(ms, n=10) if len(ms) > 1 else ms * 9
    return {
        "setup_s": statistics.median(setup_times),
        "jobs_per_s": sum(r["ok"] for r in records) / sum(times),
        "job_p50_ms": statistics.median(ms),
        "job_p90_ms": deciles[8],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def write_jobs(path: Path, passes: dict) -> None:
    keys = sorted({k for recs in passes.values() for r in recs for k in r["job"].size})
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(",".join(["pass", "index", "kind"] + keys
                          + ["ms", "raw_ms", "ok", "error"]) + "\n")
        for name, recs in passes.items():
            for i, r in enumerate(recs):
                size = r["job"].size
                fh.write(",".join([name, str(i), r["job"].kind]
                                  + [str(size.get(k, "")) for k in keys]
                                  + [repr(r["s"] * 1000), repr(r["raw_s"] * 1000),
                                     str(int(r["ok"])), r["error"] or ""]) + "\n")


def main(argv=None) -> int:
    args = parse_args(argv)
    src = ROOT / "src"
    if not (src / "triholo" / "__init__.py").is_file():
        print(f"perfbench: no triholo sources under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    work_root = ROOT / ".perfbench_work"
    work_root.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=work_root)
    try:
        raw_setup, setup_times = [], []
        for _ in range(1 if args.smoke else SETUP_ROUNDS):
            raw, scaled, lib, wl = setup(args.workload, args.seed, workdir, args.smoke)
            raw_setup.append(raw)
            setup_times.append(scaled)
        seconds, min_jobs = (0, 0) if args.smoke else (args.seconds, MIN_JOBS)
        decks: list = []
        untraced = run_decks(seeded_decks(wl, args.seed, decks), seconds, min_jobs)
        passes = {"untraced": untraced}
        if args.trace:
            tracer = Tracer({m: getattr(lib, m) for m in TRACED})
            tracer.install()
            try:
                traced = run_decks(iter(decks), float("inf"), tracer=tracer)
            finally:
                tracer.uninstall()
            passes["traced"] = traced
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    out_dir = ROOT / ".perfbench_out"
    out_dir.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    write_jobs(out_dir / f"{stem}-jobs.csv", passes)

    records = [r for recs in passes.values() for r in recs]
    attempted = len(records)
    failed = sum(not r["ok"] for r in records)
    correct = all(r["ok"] for r in records if not r["job"].hostile)
    if args.trace:
        tracer.write(out_dir / f"{stem}-spans.jsonl")
        values = tracer.metrics([r["scale"] for r in traced])
        traced_s = sum(r["s"] for r in traced)
        values["cli.bytes_out"] = sum(r["bytes"] for r in traced)
        values["trace.job_s"] = traced_s
        values["trace.overhead_frac"] = traced_s / sum(r["s"] for r in untraced) - 1
        metrics = {k: {"value": values[k], "unit": LAYER_METRICS[k][0]} for k in LAYER_METRICS}
    else:
        values = end_to_end(untraced, setup_times)
        metrics = {k: {"value": values[k], "unit": unit} for k, unit in END_TO_END.items()}

    kinds: dict = {}
    for r in records:
        k = kinds.setdefault(r["job"].kind, [0, 0])
        k[0] += 1
        k[1] += not r["ok"]
    print(f"workload {args.workload} seed {args.seed}: {len(decks)} decks, "
          f"{attempted} jobs attempted, {failed} failed, "
          f"fail_frac {failed / attempted:.6f} ratio")
    for kind, (n, bad) in sorted(kinds.items()):
        print(f"  {kind:24s} {n:6d} jobs {bad:6d} failed")
    print(f"host speed: median job scale {statistics.median(r['scale'] for r in records):.4f}"
          f" (reference task {REFERENCE_S * 1000:g} ms nominal)")
    if not args.trace:
        print(f"latency samples: {len(untraced)} jobs")
        raw = end_to_end(untraced, raw_setup, key="raw_s")
        for name, unit in END_TO_END.items():
            print(f"raw.{name:20s} {raw[name]!r:>24} {unit}")
    for name, m in metrics.items():
        print(f"{name:24s} {m['value']!r:>24} {m['unit']}")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
