#!/usr/bin/env python3
"""Benchmark for the MOAS detection simulator's three pipelines.

Run from the repository root:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --all [--seconds S] [--trace 0|1] [--smoke]

Workloads (perfbench/schema.json says why each exists and which layers it
exercises): sweep_fig9, wave_multiprefix, stream_replay, stream_overload.
BENCHMARK.json names the first three; stream_overload runs by name or with
--all (its timings spread too widely on a loaded 4-vCPU host to gate on).

The script builds perfbench_runner from ../src with CMake (build directory:
$CARGO_TARGET_DIR if set, else .bench_build), then starts one runner process
per repetition until S seconds have passed (at least three repetitions), so
no repetition runs on state an earlier one warmed. It prints every
end-to-end metric of the workload by name and unit, writes the full report
to .bench_out/, and ends with one JSON line:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end_to_end metrics of BENCHMARK.json,
medians over the repetitions. With --trace 1 the runner records bench-side
spans around its calls into each layer and the metrics are the per_layer
metrics of BENCHMARK.json; a layer the workload does not call reports 0.
The traced run repeats rounds of three fresh processes: untraced and traced
at jobs=N, so the tracing overhead shows, and traced at jobs=1, for
util.pool.speedup and the check that outputs do not depend on jobs.

The report, .bench_out/report-<workload>-seed<N>-trace<T>.json, has one
schema for every workload: workload, seed, size, traced, repetitions; host
(nproc, hardware_concurrency, jobs, build_type, compiler, git_describe);
metrics (untraced) or layers (traced), each {unit, median, high: {percentile,
value}, samples} over the repetitions, where `high` is the highest percentile
with at least ten samples beyond it, else the maximum (the pooled day-lag
percentiles and failed_share are {unit, value, samples}); checks, attempted
and failed.

Exit status: 0 when every output check passed, 1 when a check failed (the
JSON line is still printed), 2 when the benchmark could not run at all.
"""

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SCHEMA = json.loads((HERE / "schema.json").read_text())
DIGESTS = json.loads((HERE / "digests.json").read_text())
WORKLOADS = list(SCHEMA["workloads"])
MIN_REPS = 3
# Per-layer metrics defined at jobs=1, where the sweep's execute time is the
# sum of its run times; every other one comes from the jobs=N pass.
FROM_JOBS1_PASS = {"core.run_other_s", "sim.event_propagation_s", "sim.events_per_s"}
REP_TIMEOUT_S = 170


class BenchError(Exception):
    """The benchmark could not run (as opposed to a failed output check)."""


def log(message):
    print(message, file=sys.stderr, flush=True)


def benchmark_spec():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def default_jobs():
    return min(4, len(os.sched_getaffinity(0)))


# ------------------------------------------------------------------ build

def build_dir():
    configured = os.environ.get("CARGO_TARGET_DIR")
    path = Path(configured) if configured else Path(".bench_build")
    return path if path.is_absolute() else ROOT / path


def build():
    """Configure and build perfbench_runner; return its path."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        raise BenchError(f"no library sources at {ROOT / 'src'}: run from a full checkout")
    out = build_dir() / "perfbench"
    steps = []
    if not (out / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(HERE), "-B", str(out),
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", str(out), "--target", "perfbench_runner",
                  "-j", str(default_jobs())])
    for step in steps:
        result = subprocess.run(step, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                                text=True, timeout=850)
        if result.returncode != 0:
            log(result.stdout[-4000:])
            raise BenchError("build failed: " + " ".join(step))
    return out / "perfbench_runner"


def git_describe():
    try:
        result = subprocess.run(["git", "-C", str(ROOT), "describe", "--always", "--dirty"],
                                capture_output=True, text=True, timeout=10)
    except OSError:
        return "unavailable (no git)"
    if result.returncode != 0:
        return "unavailable (not a git checkout)"
    return result.stdout.strip()


# ------------------------------------------------------------------ repetitions

def run_rep(runner, workload, seed, jobs, smoke, traced=False, spans=None,
            corrupt_digest=False):
    """One repetition in a fresh process; returns its parsed JSON record."""
    cmd = [str(runner), "--workload", workload, "--seed", str(seed), "--jobs", str(jobs)]
    if smoke:
        cmd.append("--smoke")
    if traced:
        cmd.append("--trace")
    if spans:
        cmd += ["--spans", str(spans)]
    if corrupt_digest:
        cmd.append("--corrupt-digest")
    try:
        result = subprocess.run(cmd, capture_output=True, text=True, timeout=REP_TIMEOUT_S)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{workload} repetition exceeded {REP_TIMEOUT_S} s") from exc
    if result.returncode != 0:
        log(result.stderr[-4000:])
        raise BenchError(f"{workload} repetition exited with {result.returncode}")
    return json.loads(result.stdout.strip().splitlines()[-1])


def repeat(seconds, make_rep, min_reps=MIN_REPS):
    """Start repetitions until `seconds` have passed and `min_reps` are done."""
    reps = []
    start = time.monotonic()
    while len(reps) < min_reps or time.monotonic() - start < seconds:
        reps.append(make_rep())
    return reps


# ------------------------------------------------------------------ statistics

def summarize(values, unit):
    """Median plus the highest percentile with at least ten samples beyond it."""
    values = sorted(values)
    n = len(values)
    summary = {"unit": unit, "median": statistics.median(values), "samples": n}
    level = None
    for p in (99.9, 99.0, 90.0):
        if n * (1.0 - p / 100.0) >= 10.0:
            level = p
            break
    if level is None:
        summary["high"] = {"percentile": "max", "value": values[-1]}
    else:
        summary["high"] = {"percentile": f"p{level:g}", "value": percentile(values, level / 100)}
    return summary


def percentile(values, q):
    values = sorted(values)
    rank = q * (len(values) - 1)
    lo = math.floor(rank)
    hi = min(lo + 1, len(values) - 1)
    return values[lo] + (rank - lo) * (values[hi] - values[lo])


def applies(metric, workload, table):
    return workload in SCHEMA[table][metric]["workloads"]


def end_to_end_summary(workload, reps, extra_checks=()):
    """Every end-to-end metric of the workload, summarised over `reps`."""
    out = {}
    for name, spec in SCHEMA["end_to_end"].items():
        if not applies(name, workload, "end_to_end"):
            continue
        unit = spec["unit"]
        if name in ("setup_s", "peak_rss_mb"):
            out[name] = summarize([r[name] for r in reps], unit)
        elif name.startswith("day_lag_ms_"):
            pooled = [v for r in reps for v in r["day_lag_ms"]]
            q = 0.50 if name.endswith("p50") else 0.99
            out[name] = {"unit": unit, "value": percentile(pooled, q), "samples": len(pooled)}
        elif name == "failed_share":
            attempted, failed = failure_counts(reps, extra_checks)
            out[name] = {"unit": unit, "value": failed / attempted, "samples": attempted}
        else:
            out[name] = summarize([r["metrics"][name]["value"] for r in reps], unit)
    return out


def failure_counts(reps, extra_checks=()):
    """Operations plus output checks attempted and failed, over all reps,
    plus the cross-repetition `extra_checks`."""
    attempted = sum(r["attempted"] + len(r["checks"]) for r in reps) + len(extra_checks)
    failed = sum(r["failed"] + sum(not c["ok"] for c in r["checks"]) for r in reps)
    return attempted, failed + sum(not c["ok"] for c in extra_checks)


def headline(summary):
    return summary["median"] if "median" in summary else summary["value"]


# ------------------------------------------------------------------ checks

def digest_checks(workload, seed, smoke, reps):
    """Cross-repetition checks: the outcome digest is the same in every
    repetition, and for the workload's default seed it equals the recorded
    one, so a changed result fails even when the speed is unchanged."""
    checks = []
    digests = sorted({r["digest"] for r in reps})
    checks.append({"name": "digest.same_in_every_repetition", "ok": len(digests) == 1,
                   "detail": ", ".join(digests)})
    expected = DIGESTS["smoke" if smoke else "full"].get(workload)
    if seed == SCHEMA["workloads"][workload]["default_seed"] and expected:
        checks.append({"name": "digest.matches_recorded", "ok": digests == [expected],
                       "detail": f"got {', '.join(digests)}, recorded {expected}"})
    return checks


# ------------------------------------------------------------------ modes

def host_metadata(reps):
    first = reps[0]  # a repetition at the workload's own thread count
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "hardware_concurrency": first["hardware_concurrency"],
        "jobs": first["jobs"],
        "build_type": first["build_type"],
        "compiler": first["compiler"],
        "git_describe": git_describe(),
    }


def run_untraced(runner, workload, seed, seconds, smoke, jobs, corrupt_digest):
    reps = repeat(seconds, lambda: run_rep(runner, workload, seed, jobs, smoke,
                                           corrupt_digest=corrupt_digest))
    extra = digest_checks(workload, seed, smoke, reps)
    summary = end_to_end_summary(workload, reps, extra)
    checks = [c for r in reps for c in r["checks"]]
    attempted, failed = failure_counts(reps, extra)
    report = {
        "metrics": summary,
        "checks": checks + extra,
        "attempted": attempted,
        "failed": failed,
        "repetitions": len(reps),
        "host": host_metadata(reps),
        "digest": reps[0]["digest"],
    }
    metrics = {m["name"]: {"value": headline(summary[m["name"]]), "unit": m["unit"]}
               for m in benchmark_spec()["end_to_end"]}
    return report, metrics


def run_traced(runner, workload, seed, seconds, smoke, jobs, corrupt_digest):
    out_dir = ROOT / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    for stale in out_dir.glob(f"spans-{workload}-seed{seed}-*.jsonl"):
        stale.unlink()
    untraced, traced_n, traced_1 = [], [], []

    def round_of_three():
        """An untraced and a traced repetition at jobs=N, a traced one at jobs=1."""
        index = len(traced_n)
        spans_n = out_dir / f"spans-{workload}-seed{seed}-jobsN-{index}.jsonl"
        spans_1 = out_dir / f"spans-{workload}-seed{seed}-jobs1-{index}.jsonl"
        untraced.append(run_rep(runner, workload, seed, jobs, smoke,
                                corrupt_digest=corrupt_digest))
        traced_n.append(run_rep(runner, workload, seed, jobs, smoke, True, spans_n,
                                corrupt_digest))
        traced_1.append(run_rep(runner, workload, seed, 1, smoke, True, spans_1,
                                corrupt_digest))

    repeat(seconds, round_of_three, min_reps=1)

    layers = {}
    for name, spec in SCHEMA["per_layer"].items():
        if not applies(name, workload, "per_layer"):
            layers[name] = {"unit": spec["unit"], "median": 0.0, "samples": 0,
                            "bypassed": True}
            continue
        if name == "util.pool.speedup":
            values = [one["timed_s"] / many["timed_s"] for one, many in zip(traced_1, traced_n)]
        else:
            source = traced_1 if name in FROM_JOBS1_PASS else traced_n
            values = [r["layers"][name]["value"] for r in source]
        layers[name] = summarize(values, spec["unit"])

    all_reps = untraced + traced_n + traced_1
    checks = [c for r in all_reps for c in r["checks"]]
    extra = digest_checks(workload, seed, smoke, all_reps)
    extra[0]["name"] = "digest.same_at_jobs1_and_jobsN"
    attempted, failed = failure_counts(all_reps, extra)
    traced_e2e = end_to_end_summary(workload, traced_n)
    report = {
        "layers": layers,
        "traced_metrics": traced_e2e,
        "untraced_metrics": end_to_end_summary(workload, untraced),
        "trace_overhead_s": statistics.median(r["timed_s"] for r in traced_n)
        - statistics.median(r["timed_s"] for r in untraced),
        "checks": checks + extra,
        "attempted": attempted,
        "failed": failed,
        "repetitions": {"untraced": len(untraced), "traced_jobsN": len(traced_n),
                        "traced_jobs1": len(traced_1)},
        "host": host_metadata(all_reps),
        "spans": sorted(str(p.relative_to(ROOT)) for p in out_dir.glob(
            f"spans-{workload}-seed{seed}-*.jsonl")),
    }
    metrics = {m["name"]: {"value": layers[m["name"]]["median"], "unit": m["unit"]}
               for m in benchmark_spec()["per_layer"]}
    return report, metrics


def print_report(workload, seed, traced, report):
    print(f"== {workload} seed={seed} traced={int(traced)} "
          f"jobs={report['host']['jobs']} nproc={report['host']['nproc']} "
          f"build={report['host']['build_type']} ({report['host']['compiler']}) "
          f"git={report['host']['git_describe']}")
    if traced:
        for name, s in report["layers"].items():
            if s.get("bypassed"):
                print(f"  {name:32s} bypassed (layer not called by this workload)")
            else:
                print(f"  {name:32s} {s['median']:.6g} {s['unit']} "
                      f"(median of {s['samples']})")
        print(f"  trace overhead: {report['trace_overhead_s']:+.4f} s of timed region "
              f"(traced median minus untraced)")
    else:
        for name, s in report["metrics"].items():
            high = s.get("high")
            tail = f", {high['percentile']} {high['value']:.6g}" if high else ""
            print(f"  {name:16s} {headline(s):.6g} {s['unit']} "
                  f"(n={s['samples']}{tail})")
    for c in report["checks"]:
        if not c["ok"]:
            print(f"  FAILED CHECK {c['name']}: {c['detail']}")
    print(f"  failed/attempted: {report['failed']}/{report['attempted']}")


def run_workload(runner, args, workload, seed):
    jobs = default_jobs()
    mode = run_traced if args.trace else run_untraced
    report, metrics = mode(runner, workload, seed, args.seconds, args.smoke, jobs,
                           args.corrupt_digest)
    report.update({"schema": "moas-perfbench-report/1", "workload": workload, "seed": seed,
                   "size": "smoke" if args.smoke else "full", "traced": bool(args.trace)})
    out_dir = ROOT / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    path = out_dir / f"report-{workload}-seed{seed}-trace{args.trace}.json"
    path.write_text(json.dumps(report, indent=1) + "\n")
    print_report(workload, seed, args.trace, report)
    print(f"  report: {path.relative_to(ROOT)}")
    return {"correct": report["failed"] == 0, "attempted": report["attempted"],
            "failed": report["failed"], "metrics": metrics}


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--all", action="store_true", help="run every workload")
    parser.add_argument("--seed", type=int, default=None,
                        help="input seed (default: the workload's own, see schema.json)")
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="small inputs, for tests")
    parser.add_argument("--corrupt-digest", action="store_true",
                        help="perturb the outcome digest; the run must then fail")
    args = parser.parse_args()
    if bool(args.workload) == args.all:
        parser.error("give exactly one of --workload NAME and --all")
    try:
        runner = build()
        results = {}
        for workload in WORKLOADS if args.all else [args.workload]:
            seed = args.seed if args.seed is not None else \
                SCHEMA["workloads"][workload]["default_seed"]
            results[workload] = run_workload(runner, args, workload, seed)
    except (BenchError, OSError, ValueError, KeyError) as exc:
        log(f"perfbench: {exc}")
        return 2
    result = results[args.workload] if args.workload else {
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "workloads": results,
    }
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
