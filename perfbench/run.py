#!/usr/bin/env python3
"""Repository benchmark: one HybridDKG workload per invocation.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. Builds perfbench/ (the program's src/ plus the
two drivers in bench_main.cpp) into $CARGO_TARGET_DIR/perfbench, default
.bench_build/perfbench, then:

  --trace 0  runs the workload's scenarios back to back for --seconds
             through engine::run_scenario, with a fresh set-up process
             after each, and reports the end-to-end metrics;
  --trace 1  runs the same scenarios three ways (untraced with the verify
             pool; then, per seed and in one process, untraced and traced
             with one verify thread) and reports the per-layer metrics,
             after checking the trace against the program's own counters
             and the untraced runs.

The workload names and every metric's name and unit come from BENCHMARK.json
at the repository root; the workload shapes are defined in bench_main.cpp.

Prints a human summary and the full result document (host block, per-seed
verdicts, every check) first; the last line is the result object
{"correct", "attempted", "failed", "metrics"}. Exits non-zero without a
result if the program cannot be built or a driver process fails.
See perfbench/README.md for what each workload and metric is for.
"""

import argparse
import fcntl
import json
import os
import platform
import re
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
SPEC_PATH = os.path.join(os.path.dirname(HERE), "BENCHMARK.json")

BUILD_TIMEOUT_S = 840
# A run's deadline: a fixed margin for the warm-up and set-up processes plus
# a multiple of --seconds. --trace 1 needs the most: a pooled pass of a third
# of --seconds, then each of its seeds replayed twice with one verify thread,
# which is up to about 1.5 times slower per scenario than the pool.
RUN_MARGIN_S = 90
RUN_SECONDS_FACTOR = 3


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build_dir():
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    return os.path.join(os.path.abspath(target), "perfbench")


def build(bdir):
    """Configures and brings both drivers up to date (a no-op once built)."""
    os.makedirs(bdir, exist_ok=True)
    with open(os.path.join(bdir, ".lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        deadline = time.monotonic() + BUILD_TIMEOUT_S
        subprocess.run(["cmake", "-S", HERE, "-B", bdir, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
                       stdout=sys.stderr, check=True, timeout=BUILD_TIMEOUT_S)
        jobs = str(max(1, min(4, os.cpu_count() or 1)))
        subprocess.run(["cmake", "--build", bdir, "-j", jobs], stdout=sys.stderr, check=True,
                       timeout=max(1.0, deadline - time.monotonic()))


def host_block(bdir, seed, verify_threads):
    cache = {}
    with open(os.path.join(bdir, "CMakeCache.txt")) as f:
        for line in f:
            m = re.match(r"^(CMAKE_BUILD_TYPE|CMAKE_CXX_COMPILER):\w+=(.*)$", line.strip())
            if m:
                cache[m.group(1)] = m.group(2)
    compiler = cache.get("CMAKE_CXX_COMPILER", "")
    try:
        version = subprocess.run([compiler, "--version"], capture_output=True, text=True,
                                 timeout=10).stdout.splitlines()[0]
    except (OSError, IndexError, subprocess.SubprocessError):
        version = ""
    cpu_model = platform.processor()
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    cpu_model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model,
        "build_type": cache.get("CMAKE_BUILD_TYPE", ""),
        "compiler": version or compiler,
        "verify_pool_threads": verify_threads,
        "workload_seed": seed,
    }


def cpu_times():
    """Host-wide (total, steal) jiffies from /proc/stat, or None."""
    try:
        with open("/proc/stat") as f:
            fields = [int(x) for x in f.readline().split()[1:]]
    except (OSError, ValueError):
        return None
    return sum(fields[:8]), (fields[7] if len(fields) > 7 else 0)


def steal_share(before, after):
    """Share of the host's CPU time the hypervisor took from this VM between
    two cpu_times() readings. Wall-time metrics inflate by about this much
    while process CPU time does not, so a run with a high share is suspect."""
    if before is None or after is None or after[0] <= before[0]:
        return None
    return (after[1] - before[1]) / (after[0] - before[0])


def drive(binary, args, deadline):
    """Runs one driver process to completion and parses its JSON lines."""
    timeout = max(1.0, deadline - time.monotonic())
    proc = subprocess.run([binary] + args, capture_output=True, text=True, timeout=timeout)
    if proc.returncode != 0:
        raise RuntimeError(f"{os.path.basename(binary)} {' '.join(args)} exited "
                           f"{proc.returncode}: {proc.stderr.strip()}")
    return [json.loads(line) for line in proc.stdout.splitlines() if line.startswith("{")]


def setup_time(line):
    if not line.get("ok"):
        raise RuntimeError("set-up scenario did not complete")
    return line["setup_s"]


def median(values):
    return statistics.median(values) if values else 0.0


def split(lines):
    config = next(l for l in lines if l["kind"] == "config")
    check = next(l for l in lines if l["kind"] == "check")
    scenarios = [l for l in lines if l["kind"] == "scenario"]
    end = next(l for l in lines if l["kind"] == "end")
    return config, check, scenarios, end


def check_run_ok(config, check, scenarios):
    """The warm-up run's Definition 4.1 + secret checks, and for honest
    workloads bit-identity with the engine's run of the same seed."""
    checks = {
        "check_run.completed": check["completed"],
        "check_run.all_honest_completed": check["honest_completed"] == check["honest_total"],
        "check_run.outputs_consistent": check["outputs_consistent"],
        "check_run.secret_matches_public_key": check["secret_matches_public_key"],
    }
    if config["honest"] and scenarios:
        first = scenarios[0]
        checks["check_run.matches_engine_run"] = (
            first["seed"] == check["seed"]
            and all(first[k] == check[k] for k in ("messages", "wire_bytes", "completion_ticks")))
    return checks


def verdict_row(s, n_nodes):
    """Per-seed verdict row: safety, liveness and honest completion."""
    row = {k: s[k] for k in ("index", "seed", "ok", "completed", "safety_ok", "liveness_ok",
                             "wall_s", "cpu_s", "messages", "wire_bytes", "completion_ticks")}
    row["honest_completed"], row["honest_total"] = honest_share(s, n_nodes)
    return row


def honest_share(s, n_nodes):
    """(completed, total) honest nodes. Without an adversary the engine
    reports no per-node count: a completed run means every node output."""
    if s["honest_total"] is not None:
        return s["honest_completed"], s["honest_total"]
    return (n_nodes if s["completed"] else 0), n_nodes


def is_failed(s):
    """An operation failure: the run did not finish within its event budget,
    or its safety verdict (Definition 4.1 agreement) failed. A liveness-only
    verdict failure is measured (fail_frac, honest_completion_frac)."""
    return not s["completed"] or s["safety_ok"] is False


def scenario_summary(scenarios, n_nodes):
    attempted = len(scenarios)
    done = total = 0
    for s in scenarios:
        d, t = honest_share(s, n_nodes)
        done += d
        total += t
    return {
        "attempted": attempted,
        "failed": sum(1 for s in scenarios if is_failed(s)),
        "not_ok": sum(1 for s in scenarios if not s["ok"]),
        "fail_frac": sum(1 for s in scenarios if not s["ok"]) / attempted,
        "safety_fail_frac": sum(1 for s in scenarios if s["safety_ok"] is False) / attempted,
        "honest_completion_frac": done / total if total else 0.0,
    }


def with_units(values, specs):
    """The result's metrics: one {"value", "unit"} per BENCHMARK.json entry,
    in its order. A metric the run did not produce is a KeyError."""
    return {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in specs}


def run_untraced(args, spec, bdir, deadline):
    plain = os.path.join(bdir, "dkg_bench")
    before = cpu_times()
    lines = drive(plain, ["run", args.workload, str(args.seed), str(args.seconds), "setup"],
                  deadline)
    steal = steal_share(before, cpu_times())
    config, check, scenarios, end = split(lines)
    setup = [setup_time(l) for l in lines if l["kind"] == "setup"]
    n_nodes = check["honest_total"]
    summary = scenario_summary(scenarios, n_nodes)
    checks = check_run_ok(config, check, scenarios)
    wall = [s["wall_s"] for s in scenarios]
    metrics = with_units({
        "dkg_s": median(wall),
        "cpu_s": median([s["cpu_s"] for s in scenarios]),
        "setup_s": median(setup),
        "peak_rss_mb": end["peak_rss_mb"],
        "honest_completion_frac": summary["honest_completion_frac"],
        "messages": median([s["messages"] for s in scenarios]),
        "wire_bytes": median([s["wire_bytes"] for s in scenarios]),
        "completion_ticks": median([s["completion_ticks"] for s in scenarios]),
    }, spec["end_to_end"])
    document = {
        "workload": args.workload,
        "trace": 0,
        "host": host_block(bdir, args.seed, config["verify_threads"]),
        "loop": "closed, one client: each scenario starts after the previous one ends",
        "samples": {"scenarios": len(scenarios), "setup_processes": len(setup),
                    "not_ok_in_timing_sample": summary["not_ok"]},
        "timing": {"dkg_s_quartiles": quartiles(wall), "dkg_s_max": max(wall),
                   "setup_s_all": setup, "cpu_steal_share": steal},
        "verdicts": {k: summary[k] for k in ("attempted", "failed", "fail_frac",
                                             "safety_fail_frac", "honest_completion_frac")},
        "check_run": check,
        "checks": checks,
        "scenarios": [verdict_row(s, n_nodes) for s in scenarios],
    }
    return document, metrics, summary, all(checks.values())


def quartiles(values):
    if len(values) < 2:
        return [values[0]] * 3 if values else []
    return statistics.quantiles(values, n=4)


def trace_checks(t):
    """Checks one traced scenario against itself and the program's counters."""
    tr, sig = t["trace"], t["sig"]
    layers = tr["layers"]
    self_sum = sum(l["self_s"] for l in layers.values())
    return {
        "spans_balanced": tr["unclosed_spans"] == 0 and tr["off_thread_calls"] == 0,
        # Self times plus the unattributed remainder cover the root span,
        # and the root span is the scenario's own wall time.
        "self_times_add_up": (
            abs(self_sum + tr["root_self_s"] - tr["root_total_s"]) <= 1e-6 * tr["root_total_s"]
            and abs(tr["root_total_s"] - t["wall_s"]) <= 0.02 * t["wall_s"]),
        # Every memo miss in vss accept_point runs exactly one point check.
        "point_checks_equal_memo_misses": (
            layers["crypto.feldman.verify_point"]["calls"]
            + layers["crypto.feldman.verify_share"]["calls"] == sig["point_memo_misses"]),
        # Every signature handed to the keyring consults the verified-sig cache once.
        "keyring_calls_equal_cache_lookups": (
            layers["crypto.keyring.verify_from"]["calls"]
            + layers["crypto.keyring.verify_many"]["items"]
            == sig["cache_hits"] + sig["cache_misses"]),
    }


def run_traced(args, spec, bdir, deadline):
    plain = os.path.join(bdir, "dkg_bench")
    traced = os.path.join(bdir, "dkg_bench_traced")
    seed = str(args.seed)
    # The pooled pass picks how many seeds fit in a third of the budget; the
    # traced driver replays exactly those seeds, each untraced and traced.
    config, check, pooled, _ = split(
        drive(plain, ["run", args.workload, seed, str(args.seconds / 3.0)], deadline))
    _, tr_check, paired, _ = split(
        drive(traced, ["traced", args.workload, seed, str(len(pooled))], deadline))
    sequential = [s for s in paired if s["pass"] == "untraced"]
    traced_runs = [s for s in paired if s["pass"] == "traced"]

    checks = {}
    for name, c, runs in (("pool", check, pooled), ("traced", tr_check, sequential)):
        for k, v in check_run_ok(config, c, runs).items():
            checks[f"{name}.{k}"] = v
    sim_keys = ("messages", "wire_bytes", "completion_ticks")
    checks["traced_sim_metrics_equal_untraced"] = (
        len(traced_runs) == len(sequential) == len(pooled) and all(
            t["seed"] == p["seed"] == s["seed"] and all(t[k] == p[k] == s[k] for k in sim_keys)
            for t, p, s in zip(traced_runs, pooled, sequential)))

    per = []  # one dict of per-layer values per traced scenario
    for t, s in zip(traced_runs, sequential):
        tr, sig = t["trace"], t["sig"]
        layers = tr["layers"]
        for name, ok in trace_checks(t).items():
            checks[name] = checks.get(name, True) and ok
        row = {}
        for name, l in layers.items():
            row[f"{name}.calls"] = l["calls"]
            row[f"{name}.self_s"] = l["self_s"]
            row[f"{name}.total_s"] = l["total_s"]
            row[f"{name}.rejects"] = l["rejects"]
        lookups = sig["cache_hits"] + sig["cache_misses"]
        points = sig["point_memo_hits"] + sig["point_memo_misses"]
        row.update({
            "crypto.sigverify.cache_hit_ratio": sig["cache_hits"] / lookups if lookups else 0.0,
            "crypto.sigverify.batch_items": sig["batch_items"],
            "crypto.sigverify.batch_fallbacks": sig["batch_fallbacks"],
            "crypto.sigverify.comb_builds": sig["comb_builds"],
            "vss.point_memo.hit_ratio": sig["point_memo_hits"] / points if points else 0.0,
            "sim.metrics.vss_messages": t["vss_messages"],
            "sim.metrics.agreement_messages": t["agreement_messages"],
            "sim.metrics.dropped_messages": tr["dropped_messages"],
            "trace.unattributed_share": tr["root_self_s"] / tr["root_total_s"],
            "trace.overhead": t["wall_s"] / s["wall_s"] - 1.0,
        })
        per.append(row)

    # Per-scenario values are medians over the traced scenarios; the pool
    # and verdict values are the pooled pass's own.
    values = {key: median([r[key] for r in per]) for key in (per[0] if per else {})}
    summary = scenario_summary(pooled, check["honest_total"])
    values.update({
        "engine.verify_pool.threads": config["verify_threads"],
        "engine.verify_pool.parallelism": median([p["cpu_s"] / p["wall_s"] for p in pooled]),
        "engine.scenario.fail_frac": summary["fail_frac"],
        "engine.scenario.safety_fail_frac": summary["safety_fail_frac"],
    })
    metrics = with_units(values, spec["per_layer"])

    document = {
        "workload": args.workload,
        "trace": 1,
        "host": host_block(bdir, args.seed, config["verify_threads"]),
        "samples": {"pooled_scenarios": len(pooled), "traced_scenarios": len(traced_runs),
                    "sequential_scenarios": len(sequential)},
        "passes": {
            "pool_dkg_s": [p["wall_s"] for p in pooled],
            "sequential_dkg_s": [s["wall_s"] for s in sequential],
            "traced_dkg_s": [t["wall_s"] for t in traced_runs],
        },
        "verdicts": {k: summary[k] for k in ("attempted", "failed", "fail_frac",
                                             "safety_fail_frac", "honest_completion_frac")},
        "checks": checks,
        "scenarios": [verdict_row(p, check["honest_total"]) for p in pooled],
    }
    return document, metrics, summary, all(checks.values())


def print_summary(document, metrics):
    for name, m in metrics.items():
        print(f"{name:48s} {m['value']:>16.6g} {m['unit']}")
    print(json.dumps(document, sort_keys=False))


def main():
    with open(SPEC_PATH) as f:
        spec = json.load(f)
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=[w["name"] for w in spec["workloads"]])
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=float)
    p.add_argument("--trace", required=True, type=int, choices=[0, 1])
    args = p.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        p.error("--seed must be >= 0 and --seconds > 0")

    bdir = build_dir()
    try:
        build(bdir)
    except (OSError, subprocess.SubprocessError) as e:
        log(f"perfbench: build failed: {e}")
        return 1

    deadline = time.monotonic() + RUN_MARGIN_S + RUN_SECONDS_FACTOR * args.seconds
    try:
        if args.trace:
            document, metrics, summary, checks_ok = run_traced(args, spec, bdir, deadline)
        else:
            document, metrics, summary, checks_ok = run_untraced(args, spec, bdir, deadline)
    except (OSError, RuntimeError, subprocess.SubprocessError, StopIteration, KeyError,
            ValueError) as e:
        log(f"perfbench: run failed: {e!r}")
        return 1

    print_summary(document, metrics)
    result = {
        "correct": bool(checks_ok and summary["failed"] == 0),
        "attempted": summary["attempted"],
        "failed": summary["failed"],
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
