#!/usr/bin/env python3
"""End-to-end CrowdSky benchmark: crowd bill and machine time per workload.

    python3 perfbench/run.py --workload ant10k_sl|ind2k_capped|service_mix
                             [--seed 42] [--seconds 20] [--trace 0|1]

Run from the root of a CrowdSky checkout. The first run builds the driver
and the Release libraries into .bench_build/ (see perfbench/CMakeLists.txt).

--trace 0 prints the end-to-end metrics of untraced runs over the
workload's instances (datasets seeded from --seed); --trace 1 prints the
per-layer metrics of one traced run of instance 0, which --seed seeds
itself. Both also run instance 0 once with the invariant auditor on and
check that every call of an instance produced the same digest of skyline
ids, questions_per_round and cost. Every metric is printed
as "name value unit"; the last line is one JSON object with the keys
correct, attempted, failed and metrics. perfbench/NOTES.md explains the
workloads, the metrics and what each layer metric should move.
"""

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

WORKLOADS = ("ant10k_sl", "ind2k_capped", "service_mix")

# The seed later claims must also hold on (never used while tuning).
HELD_OUT_SEED = 20160315

# Deterministic results of instance 0 at --seed 42, in the units the
# metrics print.
GOLDEN_SEED = 42
GOLDEN = {
    "ant10k_sl": {"questions": 18934, "rounds": 41, "cost_usd": 380.60,
                  "f1": 0.836},
    "ind2k_capped": {"questions": 247, "rounds": 2, "cost_usd": 5.00},
    "service_mix": {"epochs": 14208, "hits": 30745,
                    "isolated_hits": 60097, "cost_usd": 3074.50},
}

END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "peak_rss_mb": "MB",
    "questions": "count",
    "rounds": "count",
    "hits": "count",
    "cost_usd": "usd",
    "ok_frac": "ratio",
}

PER_LAYER_UNITS = {
    "first_round_s": "s",
    "data.generate_s": "s",
    "skyline.build_s": "s",
    "skyline.build_mb": "MB",
    "skyline.known_skyline": "count",
    "skyline.dominator_pairs": "count",
    "pool.tasks_executed": "count",
    "pool.steals": "count",
    "crowd.oracle_s": "s",
    "crowd.pair_attempts": "count",
    "crowd.worker_answers": "count",
    "crowd.free_lookups": "count",
    "crowd.free_lookup_ratio": "ratio",
    "crowd.round_gap_ms.p50": "ms",
    "crowd.round_gap_ms.tail": "ms",
    "crowd.round_gap_ms.tail_pct": "%",
    "crowd.round_gaps": "count",
    "prefgraph.replay_s": "s",
    "prefgraph.construct_s": "s",
    "prefgraph.construct_mb": "MB",
    "prefgraph.edges": "count",
    "prefgraph.merges": "count",
    "prefgraph.contradictions": "count",
    "algo.driver_s": "s",
    "algo.evaluator_est_s": "s",
    "algo.undetermined": "count",
    "algo.f1": "ratio",
    "governor.denied_questions": "count",
    "governor.reason": "code",
    "governor.cost_spent_usd": "usd",
    "persist.records": "count",
    "persist.bytes": "bytes",
    "persist.checkpoint_bytes": "bytes",
    "persist.read_s": "s",
    "persist.append_s": "s",
    "service.epochs": "count",
    "service.packed_hits": "count",
    "service.isolated_hits": "count",
    "service.packing_ratio": "ratio",
    "service.isolated_sum_s": "s",
    "service.parallel_efficiency": "ratio",
    "trace_overhead_frac": "ratio",
    "host.ref_s": "s",
}

# Reference time (ReferenceS in driver.cc) of the host the baseline in
# NOTES.md was recorded on, when it was quiet, rounded. Times are reported
# in seconds of that host: measured / (median reference time of the run /
# REF_NOMINAL_S).
REF_NOMINAL_S = 0.03

# Every child process of one invocation must end within this many seconds
# after the build (the whole invocation has 180).
CHILD_BUDGET_S = 165.0

# Standard percentiles, lowest first, for the tail of a latency sample, in
# hundredths of a percent so that ranks are exact integers.
TAIL_LADDER = (5000, 7500, 9000, 9500, 9900, 9990, 9999)


# ---------------------------------------------------------------------------
# Arithmetic on the driver's raw numbers (tested by test_run.py).

def tail_percentile(samples, beyond=10):
    """Highest ladder percentile with at least `beyond` samples above it.

    Nearest-rank percentiles: p selects the ceil(p/100 * N)-th smallest
    sample, and the samples beyond it are the N - rank larger ranks.
    Returns (value, percentile, samples_beyond), or (None, None, 0) when
    even the median has fewer than `beyond` samples beyond it.
    """
    ordered = sorted(samples)
    best = (None, None, 0)
    for step in TAIL_LADDER:
        rank = -(-step * len(ordered) // 10000)
        if rank < 1 or len(ordered) - rank < beyond:
            break
        best = (ordered[rank - 1], step / 100, len(ordered) - rank)
    return best


def driver_residual(wall_s, build_s, oracle_s):
    """algo.driver_s: the engine's self time, what is left of the traced
    wall time after the structure build and the time inside the oracle."""
    return wall_s - build_s - oracle_s


def evaluator_estimate(driver_s, replay_s):
    """algo.evaluator_est_s: the driver's self time minus the replayed
    preference-graph time. An estimate: the replay redoes the graph work
    outside the run instead of measuring it inside."""
    return driver_s - replay_s


def parallel_efficiency(isolated_sum_s, wall_s, max_concurrent):
    """Share of the ideal max_concurrent-way speedup the service reached."""
    return isolated_sum_s / (wall_s * max_concurrent)


def host_factor(ref_s):
    """How much slower than the baseline host this run's host was: the
    median reference time over REF_NOMINAL_S."""
    return statistics.median(ref_s) / REF_NOMINAL_S


def ratio(part, whole):
    return part / whole if whole else 0.0


def digest(run):
    """Digest of what must not change between runs of one seed: every
    query's skyline ids, questions_per_round and cost, and the run's
    (packed) cost. Floats hash by their shortest round-trip repr, so two
    digests agree exactly when the doubles do."""
    payload = {
        "cost_usd": run["cost_usd"],
        "queries": [[q["skyline"], q["questions_per_round"], q["cost_usd"]]
                    for q in run["queries"]],
    }
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


# ---------------------------------------------------------------------------
# Build and child processes.

def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(1)


def build(root):
    build_dir = root / ".bench_build" / "perfbench"
    jobs = str(os.cpu_count() or 1)
    if not (build_dir / "CMakeCache.txt").exists():
        subprocess.run(["cmake", "-S", str(root / "perfbench"), "-B",
                        str(build_dir), "-DCMAKE_BUILD_TYPE=Release"],
                       check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", str(build_dir), "-j", jobs],
                   check=True, stdout=sys.stderr)
    return build_dir / "perfbench_driver"


def run_child(driver, mode, args, tmp, deadline, extra=()):
    cmd = [str(driver), mode, "--workload", args.workload, "--seed",
           str(args.seed), "--tmp", str(tmp), *extra]
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        fail(f"no time left for the {mode} run")
    try:
        done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=remaining)
    except subprocess.TimeoutExpired:
        fail(f"{mode} run exceeded the time budget")
    if done.returncode != 0:
        return None
    return json.loads(done.stdout.strip().splitlines()[-1])


# ---------------------------------------------------------------------------
# Metrics and checks.

def by_instance(runs):
    """The calls of each instance, in instance order."""
    groups = {}
    for r in runs:
        groups.setdefault(r["instance"], []).append(r)
    return [groups[i] for i in sorted(groups)]


def timed_runs(runs):
    """The calls whose timings count: the quiet ones (the host took little
    CPU time while they ran), or the least-stolen half when none was."""
    quiet = [r for r in runs if r["quiet"]]
    if quiet:
        return quiet
    by_steal = sorted(runs, key=lambda r: r["steal_share"])
    return by_steal[:max(1, len(by_steal) // 2)]


def raw_times(measure):
    """Measured set-up and wall time: the median set-up, and the median
    over each instance's timed calls averaged over the instances."""
    groups = by_instance(measure["runs"])
    return (statistics.median(measure["setup_s"]),
            statistics.fmean(
                statistics.median(r["wall_s"] for r in timed_runs(g))
                for g in groups))


def end_to_end(measure):
    """Times are raw_times in baseline-host seconds; the crowd bill is
    summed over the instances."""
    runs = measure["runs"]
    groups = by_instance(runs)
    firsts = [g[0] for g in groups]
    submitted = sum(r["submitted"] for r in runs)
    failed = sum(r["failed"] for r in runs)
    setup_s, wall_s = raw_times(measure)
    factor = host_factor(measure["ref_s"])
    return {
        "setup_s": setup_s / factor,
        "wall_s": wall_s / factor,
        "peak_rss_mb": statistics.fmean(
            statistics.median(r["peak_rss_mb"] for r in g) for g in groups),
        "questions": sum(r["questions"] for r in firsts),
        "rounds": sum(r["rounds"] for r in firsts),
        "hits": sum(r["hits"] for r in firsts),
        "cost_usd": round(sum(r["cost_usd"] for r in firsts), 6),
        "ok_frac": 1.0 - ratio(failed, submitted),
    }


def per_layer(trace, workload):
    untraced, traced = trace["runs"]
    service = workload == "service_mix"
    gaps = trace["round_gaps_ms"]
    tail, tail_pct, _ = tail_percentile(gaps)
    # Under the service the layers are measured on each query run alone,
    # so the engine's self time is taken from the sum of those runs.
    base_wall = trace["isolated_sum_s"] if service else traced["wall_s"]
    driver_s = driver_residual(base_wall, trace["build_s"],
                               trace["oracle_s"])
    m = {
        "first_round_s": untraced["first_round_s"],
        "data.generate_s": trace["data_generate_s"],
        "skyline.build_s": trace["build_s"],
        "skyline.build_mb": trace["build_mb"],
        "skyline.known_skyline": trace["known_skyline"],
        "skyline.dominator_pairs": trace["dominator_pairs"],
        "pool.tasks_executed": trace["pool_tasks"],
        "pool.steals": trace["pool_steals"],
        "crowd.oracle_s": trace["oracle_s"],
        "crowd.pair_attempts": trace["pair_attempts"],
        "crowd.worker_answers": trace["worker_answers"],
        "crowd.free_lookups": trace["free_lookups"],
        "crowd.free_lookup_ratio": ratio(
            trace["free_lookups"],
            trace["free_lookups"] + trace["pair_attempts"]),
        "crowd.round_gap_ms.p50": statistics.median(gaps) if gaps else 0.0,
        "crowd.round_gap_ms.tail": tail if tail is not None else 0.0,
        "crowd.round_gap_ms.tail_pct": tail_pct or 0.0,
        "crowd.round_gaps": len(gaps),
        "prefgraph.replay_s": trace["replay_s"],
        "prefgraph.construct_s": trace["construct_s"],
        "prefgraph.construct_mb": trace["construct_mb"],
        "prefgraph.edges": trace["edges"],
        "prefgraph.merges": trace["merges"],
        "prefgraph.contradictions": trace["contradictions"],
        "algo.driver_s": driver_s,
        "algo.evaluator_est_s": evaluator_estimate(driver_s,
                                                   trace["replay_s"]),
        "algo.undetermined": trace["undetermined"],
        "algo.f1": traced["f1"],
        "governor.denied_questions": trace["denied_questions"],
        "governor.reason": trace["termination_reason"],
        "governor.cost_spent_usd": trace["cost_spent_usd"],
        "persist.records": trace.get("persist_records", 0),
        "persist.bytes": trace.get("persist_bytes", 0),
        "persist.checkpoint_bytes": trace.get("checkpoint_bytes", 0),
        "persist.read_s": trace.get("read_s", 0.0),
        "persist.append_s": trace.get("append_s", 0.0),
        "service.epochs": traced["epochs"],
        "service.packed_hits": traced["hits"] if service else 0,
        "service.isolated_hits": traced["isolated_hits"],
        "service.packing_ratio": ratio(traced["hits"],
                                       traced["isolated_hits"])
        if service else 0.0,
        "service.isolated_sum_s": trace["isolated_sum_s"],
        "service.parallel_efficiency": parallel_efficiency(
            trace["isolated_sum_s"], untraced["wall_s"],
            trace["stamp"]["max_concurrent"]) if service else 0.0,
        "trace_overhead_frac": (traced["wall_s"] - untraced["wall_s"]) /
        untraced["wall_s"],
        "host.ref_s": statistics.median(trace["ref_s"]),
    }
    return m


def check_runs(workload, seed, runs, audit, problems):
    """Digest and ledger checks shared by both modes. The audited call is
    one of instance 0."""
    if audit is None:
        problems.append("the audited run failed (a broken invariant aborts)")
        audited = []
    else:
        audited = audit["runs"]
    for group in by_instance(runs + audited):
        instance = group[0]["instance"]
        digests = {digest(r) for r in group}
        if len(digests) != 1:
            problems.append(f"instance {instance}: {len(digests)} different "
                            f"digests across {len(group)} calls")
        for key in ("questions", "rounds", "hits", "cost_usd", "f1",
                    "epochs", "isolated_hits"):
            if len({r[key] for r in group}) != 1:
                problems.append(f"instance {instance}: {key} differs "
                                "between calls")
    for r in runs:
        if r["failed"]:
            problems.append(f"{r['failed']} of {r['submitted']} queries "
                            "failed or were rejected")
        if workload != "service_mix" and \
                round(r["cost_usd"], 2) != round(0.1 * r["hits"], 2):
            problems.append("cost_usd is not 0.02 * 5 * hits")
        if workload == "ind2k_capped" and r["cost_usd"] > 5.0:
            problems.append("capped run spent more than its $5 cap")
    if seed == GOLDEN_SEED:
        first = by_instance(runs)[0][0]
        for key, want in GOLDEN[workload].items():
            got = first[key]
            got = round(got, 3) if isinstance(want, float) else got
            if got != want:
                problems.append(f"seed {seed}: {key} is {got}, "
                                f"expected {want}")


def check_trace(workload, trace, metrics, problems):
    questions = trace["runs"][1]["questions"]
    if trace["pair_attempts"] != questions:
        problems.append("traced oracle saw a different number of paid "
                        "questions than the result reports")
    if workload == "ant10k_sl" and \
            trace["persist_records"] != trace["engine_journal_records"]:
        problems.append("journal read back a different record count")
    if metrics["prefgraph.edges"] + metrics["prefgraph.merges"] + \
            metrics["prefgraph.contradictions"] != questions:
        problems.append("replayed answers do not account for every paid "
                        "question")


def stamp(root, child_stamp, args):
    s = dict(child_stamp)
    s["git_rev"] = "none"
    try:
        top, rev = subprocess.run(
            ["git", "rev-parse", "--show-toplevel", "HEAD"],
            capture_output=True, text=True, check=True, cwd=root
        ).stdout.split()
        if Path(top).resolve() == root:
            s["git_rev"] = rev
    except (OSError, ValueError, subprocess.CalledProcessError):
        pass
    # A checkout without git history is still identified by its sources.
    sources = hashlib.sha256()
    for path in sorted((root / "src").rglob("*")):
        if path.is_file():
            sources.update(str(path.relative_to(root)).encode())
            sources.update(path.read_bytes())
    s["source_sha256"] = sources.hexdigest()
    s["trace"] = args.trace
    s["seconds"] = args.seconds
    s["held_out_seed"] = HELD_OUT_SEED
    return s


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=GOLDEN_SEED)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    root = Path(__file__).resolve().parent.parent
    if not (root / "CMakeLists.txt").exists() or \
            not (root / "src" / "core" / "engine.h").exists():
        fail(f"{root} is not a CrowdSky source tree")
    try:
        driver = build(root)
    except (OSError, subprocess.CalledProcessError) as e:
        fail(f"build failed: {e}")
    deadline = time.monotonic() + CHILD_BUDGET_S

    tmp = root / ".bench_build" / "tmp" / str(os.getpid())
    tmp.mkdir(parents=True, exist_ok=True)
    problems = []
    try:
        if args.trace == 0:
            main_run = run_child(driver, "measure", args, tmp, deadline,
                                 ("--seconds", str(args.seconds)))
        else:
            main_run = run_child(driver, "trace", args, tmp, deadline)
        if main_run is None:
            fail("the driver failed")
        audit = run_child(driver, "audit", args, tmp, deadline)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    runs = main_run["runs"]
    check_runs(args.workload, args.seed, runs, audit, problems)
    if args.trace == 0:
        metrics = end_to_end(main_run)
        units = END_TO_END_UNITS
    else:
        metrics = per_layer(main_run, args.workload)
        units = PER_LAYER_UNITS
        check_trace(args.workload, main_run, metrics, problems)
    attempted = sum(r["submitted"] for r in runs)
    failed = sum(r["failed"] for r in runs)

    info = stamp(root, main_run["stamp"], args)
    info["repetitions"] = len(runs)
    info["digest"] = digest(runs[0])
    seed_query = runs[0]
    info["seed_query"] = {key: seed_query[key] for key in
                          ("questions", "rounds", "hits", "cost_usd", "f1")}
    if args.trace == 0:
        info["instances"] = len(by_instance(runs))
        info["raw_setup_s"], info["raw_wall_s"] = raw_times(main_run)
        info["ref_s"] = statistics.median(main_run["ref_s"])
        info["quiet_repetitions"] = sum(r["quiet"] for r in runs)
        info["steal_share"] = [round(r["steal_share"], 4) for r in runs]
    else:
        info["governor.reason_name"] = main_run["termination_reason_name"]
        _, _, info["crowd.round_gap_ms.tail_beyond"] = tail_percentile(
            main_run["round_gaps_ms"])
    print("stamp " + json.dumps(info, sort_keys=True))
    for problem in problems:
        print("check failed: " + problem)
    for name, value in metrics.items():
        print(f"{name} {value} {units[name]}")
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))


if __name__ == "__main__":
    main()
