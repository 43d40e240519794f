"""teqtools benchmark: one workload per process, closed loop, one client.

    python3 bench/run.py --workload {search,regular,cli,all} --seed N --seconds S --trace {0,1}

Runs from any directory; it benchmarks the ``src/teqtools`` next to this
directory and refuses to run without it. With ``--trace 0`` it times ops for
at least ``--seconds`` busy seconds (and at least MIN_OPS ops, in whole
rounds) and reports the end-to-end metrics. With ``--trace 1`` it runs a
fixed op set (the rounds that hold the first MIN_OPS ops) once untraced and
once traced, and reports the per-layer metrics plus the tracing overhead.
The last stdout line is the JSON result; the lines before it are a readable
summary and a ``record`` line with the run's environment and results digest.
Exit status: 0 when every check passed, 1 when one failed or the checkout has
no package to measure, 2 on bad usage.
See bench/README.md for the workloads and how to read a traced run.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = BENCH_DIR / "out"
REFERENCE_FILE = BENCH_DIR / "reference.json"

WORKLOAD_NAMES = ("search", "regular", "cli")
DEFAULT_SEED = 0
MIN_OPS = 100
SETUP_REPS = 7
WARMUP_OPS = 3
STARTUP_REPS = 7

LAYER_SECONDS = ("core.derive_seed", "core.random_tournament", "search.compose_structured",
                 "core.tournament_init", "core.parse", "core.serialize", "core.find_isomorphism",
                 "teq.recursion", "teq.top_scc", "counterexample.verify_claims")
LAYER_CALLS = ("core.random_tournament", "core.find_isomorphism")
LAYER_COUNTS = ("core.parse.bytes", "core.find_isomorphism.found", "teq.memo_entries",
                "teq.query_hits", "teq.query_misses", "counterexample.claims_passed")


def use_checkout() -> None:
    """Put this checkout's sources first on sys.path and prove they are what imports."""
    if not (SRC / "teqtools" / "__init__.py").is_file():
        raise SystemExit(f"bench: no teqtools sources at {SRC}")
    sys.path.insert(0, str(SRC))
    import teqtools
    origin = Path(teqtools.__file__).resolve()
    if not origin.is_relative_to(SRC.resolve()):
        raise SystemExit(f"bench: teqtools imported from {origin}, not from {SRC}")


def git_rev() -> str:
    """HEAD of the checkout, read from .git without running git; 'unknown' outside a repository."""
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


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def run_workload(name: str, seed: int, seconds: float, trace: bool, min_ops: int = MIN_OPS,
                 reference: list[str] | None = None) -> dict:
    """Run one workload in this process and return its result and record.

    ``reference`` holds the expected per-op digests of the fixed op set, if known.
    """
    import workloads
    from tracing import Tracer

    wl = workloads.WORKLOADS[name]()
    record = {"workload": name, "seed": seed, "trace": int(trace), "git_rev": git_rev(),
              "python": platform.python_version(), "nproc": os.cpu_count(),
              "loadavg_start": list(os.getloadavg())}
    OUT_DIR.mkdir(exist_ok=True)
    failures: list[str] = []

    def fail(where: str, error: Exception) -> None:
        if len(failures) < 10:
            failures.append(f"{where}: {type(error).__name__}: {error}")

    with tempfile.TemporaryDirectory(dir=OUT_DIR) as tmp:
        work = Path(tmp)
        # Set-up, repeated: fresh-interpreter import plus building and writing round 0.
        setup_times = []
        workloads.child_import_seconds(wl.import_module, work)  # compiles and caches bytecode
        for k in range(SETUP_REPS):
            import_s = workloads.child_import_seconds(wl.import_module, work)
            started = time.perf_counter()
            first_round = wl.make_round(workloads.round_rng(name, seed, 0), work / f"round0-{k}")
            setup_times.append(import_s + time.perf_counter() - started)

        for spec in first_round[:WARMUP_OPS]:
            try:
                wl.run(spec)
            except Exception:
                pass  # the same op runs again in the window, where a failure is counted

        per_round = len(first_round)
        fixed_rounds = math.ceil(min_ops / per_round)
        latencies, ok_latencies, kept = [], [], []
        busy = 0.0
        r = 0
        while r < fixed_rounds or (not trace and busy < seconds):
            specs = first_round if r == 0 else wl.make_round(
                workloads.round_rng(name, seed, r), work / f"round{r}")
            for spec in specs:
                canonical = None
                started = time.perf_counter()
                try:
                    raw = wl.run(spec)
                except Exception as e:
                    elapsed = time.perf_counter() - started
                    fail(f"op {len(latencies)}", e)
                else:
                    elapsed = time.perf_counter() - started
                    try:
                        canonical = wl.verify(spec, raw)
                    except Exception as e:
                        fail(f"op {len(latencies)} check", e)
                    raw = None
                latencies.append(elapsed)
                busy += elapsed
                if canonical is not None:
                    ok_latencies.append(elapsed)
                if r < fixed_rounds:
                    kept.append((spec, canonical, elapsed))
            r += 1
        attempted = len(latencies)
        failed = attempted - len(ok_latencies)

        canonicals = [c for _, c, _ in kept]
        op_digests = [workloads.digest(c) for c in canonicals]
        record["results_digest"] = workloads.digest(op_digests)
        record["reference"] = "not checked"
        if reference is not None:
            wrong = [i for i, (got, want) in enumerate(zip(op_digests, reference))
                     if got != want and canonicals[i] is not None]
            failed += len(wrong)
            if wrong:
                failures.append(f"ops {wrong[:10]} differ from the recorded reference")
            record["reference"] = "match" if op_digests == reference else "mismatch"

        if trace:
            tracer = Tracer()
            traced_busy = 0.0
            for i, (spec, canonical, _) in enumerate(kept):
                tracer.op_id = i
                attempted += 1
                started = time.perf_counter()
                try:
                    with tracer.span("op"):
                        raw = wl.run_traced(spec, tracer)
                    traced_busy += time.perf_counter() - started
                    if wl.verify_traced(spec, raw) != canonical:
                        raise workloads.CheckFailed("traced result differs from the untraced one")
                    raw = None
                    wl.replay(spec, tracer)
                except Exception as e:
                    failed += 1
                    fail(f"traced op {i}", e)
            untraced_busy = sum(elapsed for _, _, elapsed in kept)
            startup = wl.startup_seconds(work, STARTUP_REPS) if name == "cli" else {}

        try:
            record["cross_checked"] = workloads.cross_check(seed)
            cross_ok = True
        except Exception as e:
            cross_ok = False
            fail("cross-check", e)

    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    record["samples"] = {"ops": attempted, "ok_ops": len(ok_latencies), "rounds": r,
                         "ops_per_round": per_round, "fixed_ops": len(kept),
                         "setup_reps": SETUP_REPS, "busy_s": busy}
    record["failures"] = failures
    correct = failed == 0 and cross_ok and record["reference"] != "mismatch"

    if not trace:
        lat = sorted(ok_latencies) or [math.inf]
        p90 = statistics.quantiles(lat, n=10, method="inclusive")[8] if len(lat) > 1 else lat[0]
        record["samples"]["beyond_p90"] = sum(1 for x in lat if x > p90)
        metrics = {
            "ops_per_s": metric(len(ok_latencies) / busy, "1/s"),
            "op_p50_ms": metric(statistics.median(lat) * 1000, "ms"),
            "op_p90_ms": metric(p90 * 1000, "ms"),
            "setup_s": metric(statistics.median(setup_times), "s"),
            "peak_rss_mb": metric(peak_rss_mb, "MB"),
        }
    else:
        metrics = {f"{layer}.s": metric(tracer.seconds(layer), "s") for layer in LAYER_SECONDS}
        metrics.update({f"{layer}.calls": metric(tracer.calls(layer), "count") for layer in LAYER_CALLS})
        for counter in LAYER_COUNTS:
            unit = "bytes" if counter.endswith(".bytes") else "count"
            metrics[counter] = metric(tracer.counts.get(counter, 0), unit)
        metrics["teq.memo_entries_max"] = metric(tracer.maxima.get("teq.memo_entries_max", 0), "count")
        queries = tracer.counts.get("teq.query_hits", 0) + tracer.counts.get("teq.query_misses", 0)
        metrics["teq.query_hit_ratio"] = metric(
            tracer.counts.get("teq.query_hits", 0) / queries if queries else 0.0, "ratio")
        metrics["cli.interp_s"] = metric(startup.get("cli.interp_s", 0.0), "s")
        metrics["cli.import_s"] = metric(startup.get("cli.import_s", 0.0), "s")
        metrics["trace.overhead_frac"] = metric(traced_busy / untraced_busy - 1, "ratio")
        trace_file = OUT_DIR / f"trace-{name}-seed{seed}.json"
        tracer.write(trace_file)
        record["trace_file"] = str(trace_file.relative_to(ROOT))
        record["samples"]["spans"] = len(tracer.spans)
        record["samples"]["query_base"] = queries
        record["samples"]["traced_busy_s"] = traced_busy
        record["samples"]["untraced_busy_s"] = untraced_busy

    return {"correct": correct, "attempted": attempted, "failed": failed,
            "metrics": metrics, "record": record, "op_digests": op_digests}


def summary_lines(result: dict) -> list[str]:
    record, samples = result["record"], result["record"]["samples"]
    lines = [f"workload {record['workload']}  seed {record['seed']}  trace {record['trace']}  "
             f"correct {result['correct']}"]
    counts = {"ops_per_s": f"n={samples['ok_ops']} ops, {samples['busy_s']:.2f} s busy",
              "op_p50_ms": f"n={samples['ok_ops']}",
              "op_p90_ms": f"n={samples['ok_ops']}, {samples.get('beyond_p90')} beyond",
              "setup_s": f"median of {samples['setup_reps']}"}
    for name, m in result["metrics"].items():
        note = f"  ({counts[name]})" if name in counts else ""
        lines.append(f"  {name:34s} {m['value']:>14.6g} {m['unit']}{note}")
    lines.append(f"  {'failed_frac':34s} {result['failed'] / result['attempted']:>14.6g} ratio"
                 f"  ({result['failed']}/{result['attempted']})")
    for failure in record["failures"]:
        lines.append(f"  failure: {failure}")
    return lines


def run_all(args) -> int:
    """Each workload in its own process, so peak RSS and imports are per workload."""
    status = 0
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        status = max(status, subprocess.run(cmd).returncode)
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES + ("all",), required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    use_checkout()
    reference = None
    if args.seed == DEFAULT_SEED:
        reference = json.loads(REFERENCE_FILE.read_text())[args.workload]
    result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace),
                          reference=reference)
    for line in summary_lines(result):
        print(line)
    del result["op_digests"]
    print("record " + json.dumps(result.pop("record"), sort_keys=True))
    print(json.dumps(result), flush=True)
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
