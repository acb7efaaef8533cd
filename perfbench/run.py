#!/usr/bin/env python3
"""hetscale benchmark: times the `bench-tables` CLI on one workload and
checks its answers.

    python3 perfbench/run.py --workload paper|mega|faults-recover \
        --seed N --seconds S --trace 0|1

Run from the root of a hetscale checkout. Builds `bench-tables` and the
benchmark's own harness (`perfbench/harness`) into `$CARGO_TARGET_DIR`
(default `.bench_build`), then spends S seconds invoking the CLI as a
fresh process per invocation (`--jobs 1` always), and finally runs the
harness, which re-checks the workload's answers across engine layers and
re-evaluates every required-N answer on the exact engine. Each timing is
read against CPU speed references taken on the same CPU right beside the
invocation, so that the host's speed states do not show as changes.

`--trace 0` reports the end-to-end metrics; `--trace 1` alternates
traced (`--stats-out` / `--profile-out`) and untraced invocations and
runs the harness with layer spans, reporting the per-layer metrics. The
last stdout line is one JSON object: correct, attempted, failed, metrics.
Scratch files go to `.perfbench/` in the checkout. See
perfbench/README.md for the metric definitions.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

WORKLOADS = {
    "paper": lambda seed: [],
    "mega": lambda seed: ["--quick", "mega"],
    "faults-recover": lambda seed: ["--faults", "recover", "--seed", str(seed)],
}

MIN_INVOCATIONS = 5

# The host-normalized times are read at a reference speed: the median
# times of perfbench-spawn's calibration loop and bare self-spawn on
# the host the benchmark was defined on (2-vCPU Intel Xeon VM).
CALIB_REF_S = 4.5e-3
SPAWN_REF_S = 1.2e-3


def fail(msg, code=2):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


def build(root, target):
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    for cmd in (
        ["cargo", "build", "--release", "--offline", "-q", "-p", "bench-tables"],
        ["cargo", "build", "--release", "--offline", "-q",
         "--manifest-path", os.path.join("perfbench", "harness", "Cargo.toml")],
    ):
        done = subprocess.run(cmd, cwd=root, env=env, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True)
        if done.returncode != 0:
            sys.stderr.write(done.stdout)
            fail(f"build failed: {' '.join(cmd)}", 1)


class Invocation:
    """One CLI process: host wall, the binary's own stopwatch, peak RSS,
    and the CPU's speed references taken beside it.

    The CLI is started by `perfbench-spawn`, which pins itself and the
    CLI to one CPU, times a calibration loop and a bare self-spawn on
    it, then times the CLI and reads its peak RSS from `wait4`; started
    from this (larger) process, the child would inherit this process's
    RSS high-water mark."""

    def __init__(self, spawner, binary, args, out_dir, tag):
        self.stdout_path = os.path.join(out_dir, f"{tag}.stdout")
        stderr_path = os.path.join(out_dir, f"{tag}.stderr")
        done = subprocess.run(
            [spawner, self.stdout_path, stderr_path, "--", binary] + args,
            stdout=subprocess.PIPE, text=True,
            env=dict(os.environ, BENCH_TABLES_STOPWATCH="1"),
        )
        wall_ns, rss_kb, code, calib_ns, spawn_ns = (int(x) for x in done.stdout.split())
        self.wall_s = wall_ns / 1e9
        self.calib_s = calib_ns / 1e9
        self.spawn_s = spawn_ns / 1e9
        self.rss_mb = rss_kb / 1024.0
        self.exit_code = code
        with open(stderr_path, "r", errors="replace") as f:
            lines = [l for l in f.read().splitlines() if l.startswith("stopwatch: ")]
        self.stopwatch_s = int(lines[-1].split()[1]) / 1e6 if lines else None

    def stdout(self):
        with open(self.stdout_path, "rb") as f:
            return f.read()

    @property
    def raw_setup_s(self):
        return self.wall_s - self.stopwatch_s

    @property
    def run_s(self):
        """Wall time at the reference CPU speed."""
        return self.wall_s * CALIB_REF_S / self.calib_s

    @property
    def setup_s(self):
        """Set-up time at the reference process-start speed."""
        return self.raw_setup_s * SPAWN_REF_S / self.spawn_s


def tail_percentile(values):
    """The highest of p90/p99/p99.9 with at least ten samples beyond it."""
    fits = [p for p in (90.0, 99.0, 99.9) if len(values) * (1 - p / 100) >= 10]
    if not fits:
        return None
    cuts = statistics.quantiles(values, n=1000, method="inclusive")
    return fits[-1], cuts[int(fits[-1] * 10) - 1]


def median_of(docs, path):
    """Median over profile documents of a nested µs value, in seconds."""
    vals = []
    for doc in docs:
        v = doc
        for key in path:
            v = v.get(key, 0) if isinstance(v, dict) else 0
        vals.append(v / 1e6)
    return statistics.median(vals)


def ratio(num, den):
    return num / den if den else 0.0


def declared_laps(root):
    """The `--profile-out` laps BENCHMARK.json declares as `id.<lap>.self_s`."""
    with open(os.path.join(root, "BENCHMARK.json")) as f:
        names = [m["name"] for m in json.load(f)["per_layer"]]
    return [n[len("id."):-len(".self_s")] for n in names
            if n.startswith("id.") and n.endswith(".self_s")]


def per_layer(stats, profiles, harness, stdout_len, traced_run, plain_run, laps):
    eng = stats["engine"]
    paths = eng["paths"]
    ed = paths["event_driven"]
    classes = eng["rank_classes"]
    cf = eng["closed_form"]
    layers = harness["layer_self_s"]
    spans = harness["span_self_s"]
    work = harness["work"]
    memo_touches = sum(k["touches"] for k in stats["memo"].values())
    memo_hits = sum(k["hits"] for k in stats["memo"].values())
    lockstep, fallbacks = paths["analytic_sims"], ed["fallback"]
    # The stats document counts class-aggregated ranks as simulated;
    # they are represented, not recorded, so they stay out of `record.*`.
    recorded_ranks = classes["ranks_simulated"] - classes["aggregated_ranks"]
    recorded_classes = classes["classes_simulated"] - classes["aggregated_classes"]
    m = {
        "record.self_s": (median_of(profiles, ["phases", "record_us"]), "s"),
        "record.classes": (recorded_classes, "count"),
        "record.ranks": (recorded_ranks, "count"),
        "record.dedup_factor": (ratio(recorded_ranks, recorded_classes), "1"),
        "replay.self_s": (layers.get("replay", 0.0), "s"),
        "replay.runs": (sum(ed.values()), "count"),
        "replay.events": (work["replay_events"], "count"),
        "replay.parks": (eng["ready_queue"]["parks"], "count"),
        "replay.retries": (eng["retries"]["attempts"], "count"),
        "replay.ns_per_event": (1e9 * ratio(layers.get("replay", 0.0), work["replay_events"]), "ns"),
        "lockstep.sims": (lockstep, "count"),
        "lockstep.fallbacks": (fallbacks, "count"),
        "lockstep.accept_ratio": (ratio(lockstep, lockstep + fallbacks), "1"),
        "lockstep.self_s": (layers.get("lockstep", 0.0), "s"),
        "closed_form.batches": (sum(k["batches"] for k in cf.values()), "count"),
        "closed_form.self_s": (layers.get("closed_form", 0.0), "s"),
        "closed_form.ns_per_ge_round": (1e9 * ratio(spans.get("closed_form.ge", 0.0), work["ge_rounds"]), "ns"),
        "aggregated.sims": (paths["aggregated_sims"], "count"),
        "aggregated.class_rounds": (work["class_rounds"], "count"),
        "aggregated.represented_ranks": (classes["aggregated_ranks"], "count"),
        "aggregated.self_s": (layers.get("aggregated", 0.0), "s"),
        "aggregated.ns_per_class_round": (1e9 * ratio(layers.get("aggregated", 0.0), work["class_rounds"]), "ns"),
        "distribute.self_s": (layers.get("distribute", 0.0), "s"),
        "fit.solves": (work["solves"], "count"),
        "fit.evals_per_inversion": (ratio(work["evals"], work["solves"]), "count"),
        "fit.self_s": (layers.get("fit", 0.0), "s"),
        "memo.touches": (memo_touches, "count"),
        "memo.hits": (memo_hits, "count"),
        "memo.hit_ratio": (ratio(memo_hits, memo_touches), "1"),
        "pool.cells": (stats["pool"]["cells"], "count"),
        "pool.batches": (stats["pool"]["batches"], "count"),
        "pool.queue_high_water": (stats["pool"]["queue_high_water"], "count"),
        "rate.self_s": (median_of(profiles, ["ids", "t1"]), "s"),
        "render.self_s": (layers.get("render", 0.0), "s"),
        "render.stdout_bytes": (stdout_len, "bytes"),
        "oracle.cells_checked": (harness["oracle_cells"], "count"),
        "oracle.self_s": (layers.get("oracle", 0.0), "s"),
        "trace.overhead_s": (traced_run - plain_run, "s"),
    }
    for kernel in ("ge", "mm", "power", "stencil"):
        m[f"closed_form.cells.{kernel}"] = (cf.get(kernel, {}).get("cells", 0), "count")
    for lap in laps:
        m[f"id.{lap}.self_s"] = (median_of(profiles, ["ids", lap]), "s")
    return m


def drive_checks(workload, stats, harness, profiles, laps):
    """Ties the harness's drive of the workload to what the CLI ran, on
    counts the memo cannot change, and the profile's laps to the ones
    BENCHMARK.json declares. Yields (check name, passed)."""
    eng = stats["engine"]
    paths, ed = eng["paths"], eng["paths"]["event_driven"]
    cli = {"aggregated": paths["aggregated_sims"], "analytic": paths["analytic_sims"],
           "fallback": ed["fallback"], "faulted": ed["faulted"], "traced": ed["traced"]}
    if workload == "faults-recover":
        # The recover id's traced decomposition runs are not driven.
        del cli["traced"]
    drive = harness["drive_paths"]
    yield "drive: engine runs per path match --stats-out", all(drive[k] == v for k, v in cli.items())
    if workload == "mega":
        classes, work = eng["rank_classes"], harness["work"]
        yield ("drive: aggregated classes and ranks match --stats-out",
               (work["agg_classes"], work["agg_ranks"])
               == (classes["aggregated_classes"], classes["aggregated_ranks"]))
    seen = set().union(*(p.get("ids", {}) for p in profiles))
    yield "every --profile-out lap is declared in BENCHMARK.json", seen <= set(laps)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    opts = ap.parse_args()
    if opts.seed < 0:
        fail("--seed must be a non-negative integer")

    root = os.getcwd()
    for needed in ("Cargo.toml", os.path.join("crates", "bench-tables", "Cargo.toml"),
                   os.path.join("perfbench", "harness", "Cargo.toml")):
        if not os.path.isfile(os.path.join(root, needed)):
            fail(f"run from the root of a hetscale checkout: {needed} is missing")

    target = os.path.abspath(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    build(root, target)
    cli = os.path.join(target, "release", "bench-tables")
    harness_bin = os.path.join(target, "release", "perfbench-harness")
    spawner = os.path.join(target, "release", "perfbench-spawn")
    out_dir = os.path.join(root, ".perfbench", opts.workload)
    os.makedirs(out_dir, exist_ok=True)

    args = ["--jobs", "1"] + WORKLOADS[opts.workload](opts.seed)
    traced_args = args + ["--stats-out", os.path.join(out_dir, "stats.json"),
                          "--profile-out", os.path.join(out_dir, "profile.json")]

    problems, failures = [], []
    reference = None
    plain, traced, stats_docs, profiles = [], [], [], []
    deadline = time.perf_counter() + opts.seconds

    def more():
        if time.perf_counter() < deadline:
            return True
        # Past the deadline, top up to the minimum sample counts unless
        # invocations are failing.
        short = len(plain) < MIN_INVOCATIONS or (opts.trace == 1 and len(traced) < MIN_INVOCATIONS)
        return short and not problems

    i = 0
    while more():
        is_traced = opts.trace == 1 and i % 2 == 1
        inv = Invocation(spawner, cli, traced_args if is_traced else args, out_dir, f"inv{i % 2}")
        i += 1
        ok = inv.exit_code == 0 and inv.stopwatch_s is not None
        stdout = inv.stdout()
        if reference is None and ok:
            reference = stdout
            os.replace(inv.stdout_path, os.path.join(out_dir, "reference.stdout"))
        if not ok or stdout != reference:
            problems.append(f"invocation {i}: exit {inv.exit_code}, stdout identical: {stdout == reference}")
            continue
        if i == 1:
            continue  # warm-up: checked, not timed
        if is_traced:
            traced.append(inv)
            with open(os.path.join(out_dir, "stats.json"), "rb") as f:
                stats_docs.append(f.read())
            with open(os.path.join(out_dir, "profile.json")) as f:
                profiles.append(json.load(f))
        else:
            plain.append(inv)
    # The whole set of invocations is one check: every one exits 0 and
    # prints the same bytes.
    attempted = 1
    if problems:
        failures.append(f"{len(problems)} of {i} invocations failed, first {problems[0]}")
    if opts.trace == 1:
        attempted += 1
        if not stats_docs or any(doc != stats_docs[0] for doc in stats_docs):
            failures.append("--stats-out not byte-identical across traced invocations")
    if not plain or (opts.trace == 1 and not traced):
        fail("too few invocations of bench-tables succeeded", 1)

    cmd = [harness_bin, "--workload", opts.workload, "--seed", str(opts.seed),
           "--stdout", os.path.join(out_dir, "reference.stdout")]
    if opts.trace == 1:
        cmd += ["--trace", "--spans-out", os.path.join(out_dir, "spans.json")]
    done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
    if done.returncode != 0:
        fail(f"harness exited {done.returncode}", 1)
    harness = json.loads(done.stdout.strip().splitlines()[-1])
    attempted += harness["attempted"]
    failures += harness["failures"]
    if opts.trace == 1:
        stats = json.loads(stats_docs[0])
        laps = declared_laps(root)
        for name, ok in drive_checks(opts.workload, stats, harness, profiles, laps):
            attempted += 1
            if not ok:
                failures.append(name)

    runs = [inv.run_s for inv in plain]
    walls = [inv.wall_s for inv in plain]
    med = statistics.median
    nproc = len(os.sched_getaffinity(0))
    tail = tail_percentile(runs)
    tail_text = f", p{tail[0]:g} {tail[1]:.6f} s" if tail else ""
    print(f"workload {opts.workload} seed {opts.seed}: {len(plain)} untraced invocations, "
          f"run_s median {med(runs):.6f} s{tail_text}")
    print(f"host: rate_host {harness['host_mflops']:.1f} Mflop/s, nproc {nproc}, "
          f"calibration loop {med(inv.calib_s for inv in plain) * 1e3:.3f} ms "
          f"(reference {CALIB_REF_S * 1e3:g}), bare spawn {med(inv.spawn_s for inv in plain) * 1e3:.3f} ms "
          f"(reference {SPAWN_REF_S * 1e3:g}); raw wall median {med(walls):.6f} s, "
          f"raw setup median {med(inv.raw_setup_s for inv in plain):.6f} s")
    for label, n, e_s, target in harness["answers"]:
        print(f"answer: {label} N = {n}: E_s = {e_s:.4f} against {target}")
    for failure in failures:
        print(f"FAILED: {failure}")

    if opts.trace == 0:
        metrics = {
            "run_s": (med(runs), "s"),
            "setup_s": (med(inv.setup_s for inv in plain), "s"),
            "peak_rss_mb": (med(inv.rss_mb for inv in plain), "MB"),
            "ge_inversion_residual": (harness["ge_residual"], "1"),
            "mm_inversion_residual": (harness["mm_residual"], "1"),
            "pass_share": (1.0 - len(failures) / attempted, "1"),
        }
    else:
        metrics = per_layer(
            stats, profiles, harness, len(reference),
            med(inv.run_s for inv in traced), med(runs), laps,
        )
    record = {
        "workload": opts.workload, "seed": opts.seed, "trace": opts.trace,
        "host_mflops": harness["host_mflops"], "nproc": nproc,
        "invocations": len(plain) + len(traced), "failures": failures,
        "walls_s": walls, "setups_s": [inv.raw_setup_s for inv in plain],
        "calibs_s": [inv.calib_s for inv in plain], "spawns_s": [inv.spawn_s for inv in plain],
        "metrics": {k: v for k, (v, _) in metrics.items()},
    }
    with open(os.path.join(root, ".perfbench", "runs.jsonl"), "a") as f:
        f.write(json.dumps(record) + "\n")
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))


if __name__ == "__main__":
    main()
