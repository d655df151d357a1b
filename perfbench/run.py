"""The repository's benchmark: one command, three workloads.

Usage (from the repository root)::

    python3 perfbench/run.py --workload served_reads --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload cluster_mixed --seed 1 --seconds 20 --trace 1
    python3 perfbench/run.py --workload all --seed 1 --seconds 20 --steadiness 5
    python3 perfbench/run.py --workload served_writes --seed 1 --seconds 2 --trace 0 --smoke

``--trace 0`` measures the workload untraced and prints its end-to-end
metrics.  ``--trace 1`` runs it untraced and then traced, prints both
sets of end-to-end figures side by side (the tracing overhead) and the
per-request accounting, and reports the per-layer metrics.  The last
line of standard output is always one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  ``--steadiness N`` runs the
workload N times with consecutive seeds, each in a fresh process, and
prints each end-to-end metric's spread against its bound in
``BENCHMARK.json``.  ``--smoke`` shrinks every input so all checks run
in seconds.  See ``README.md`` next to this file.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
from typing import Dict, List, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

WORKLOADS = ("served_reads", "served_writes", "cluster_mixed")

#: Per-layer metrics: name -> (span or counter, unit, denominator).
#: Denominators: ops (operations completed), writes, setups, recoveries.
LAYERS: Dict[str, Tuple[str, str, str]] = {
    "client.decode_s": ("client.decode", "s", "ops"),
    "client.wire_idle_s": ("client.wire_idle", "s", "ops"),
    "client.retries": ("client.retries", "count", "run"),
    "protocol.encode_s": ("protocol.encode", "s", "ops"),
    "protocol.decode_s": ("protocol.decode", "s", "ops"),
    "protocol.bytes_per_row": ("protocol.bytes_per_row", "B/row", "fact"),
    "server.wait_s": ("server.wait", "s", "ops"),
    "server.request_s": ("server.request", "s", "ops"),
    "sql.parse_s": ("sql.parse", "s", "ops"),
    "optimizer.optimize_s": ("optimizer.optimize", "s", "ops"),
    "query.execute_s": ("query.execute", "s", "ops"),
    "query.rows_out": ("query.rows_out", "count", "ops"),
    "relation.materialize_s": ("relation.materialize", "s", "ops"),
    "aggregate.group_s": ("aggregate.group", "s", "ops"),
    "xst.sets_built": ("xst.sets_built", "count", "ops"),
    "columnar.ops": ("columnar.ops", "count", "ops"),
    "tx.snapshot_s": ("tx.snapshot", "s", "ops"),
    "tx.commit_s": ("tx.commit", "s", "writes"),
    "constraints.check_s": ("constraints.check", "s", "writes"),
    "wal.append_s": ("wal.append", "s", "writes"),
    "wal.sync_s": ("wal.sync", "s", "writes"),
    "wal.bytes_per_commit": ("wal.bytes_per_commit", "B", "fact"),
    "wal.write_amplification": ("wal.write_amplification", "ratio", "fact"),
    "wal.scan_s": ("wal.scan", "s", "recoveries"),
    "wal.replay_s_per_commit": ("wal.replay", "s", "replayed"),
    "wal.records_replayed": ("wal.records_replayed", "count", "run"),
    "disk.load_s": ("disk.load", "s", "recoveries"),
    "disk.checkpoint_s": ("disk.checkpoint", "s", "setups"),
    "cluster.coordinate_s": ("cluster.coordinate", "s", "ops"),
    "cluster.bucket_eval_s": ("cluster.bucket_eval", "s", "ops"),
    "cluster.ship_s": ("cluster.ship", "s", "ops"),
    "cluster.messages": ("cluster.messages", "count", "ops"),
    "cluster.bytes_per_row_returned": ("cluster.bytes_per_row_returned",
                                       "B/row", "fact"),
    "cluster.write_fanout_s": ("cluster.write_fanout", "s", "writes"),
    "cluster.rebuild_s": ("cluster.rebuild", "s", "recoveries"),
    "cluster.retries": ("cluster.retries", "count", "run"),
}

E2E_UNITS = {
    "setup_s": "s", "ops_per_s": "ops/s", "peak_rss_mb": "MB",
    "light_read_p90_ms": "ms", "heavy_p50_ms": "ms", "round_p50_ms": "ms",
    "recover_s": "s",
}

#: A share of the client-observed latency within which one request's
#: self times, wire and idle must add up.
ACCOUNTING_TOLERANCE = 0.10


class Config:
    def __init__(self, args, workdir: str, traced: bool):
        import gen

        self.seed = args.seed
        self.seconds = args.seconds
        self.smoke = args.smoke
        self.size = gen.SIZES["smoke" if args.smoke else "full"]
        self.workdir = workdir
        # Set-up (and served_reads' restart) is timed several times per
        # run and the median kept; the traced pass sets up once (its
        # setup_s is not reported).
        self.setups = 1 if (traced or args.smoke) else 5
        # served_writes: a fixed write count per run length, so every
        # run at the same --seconds logs -- and recover_s replays -- the
        # same number of commits.
        self.write_rounds = 3 if args.smoke else 2 * args.seconds
        self.down_writes = 3 if args.smoke else 20


def _run_pass(workload: str, args, traced: bool):
    import spans

    workdir = os.path.join(ROOT, ".perfbench_work",
                           "%d-%s" % (os.getpid(), "t" if traced else "u"))
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)
    cfg = Config(args, workdir, traced)
    tracer = spans.Tracer("c") if traced else None
    try:
        if workload == "cluster_mixed":
            import cluster

            if tracer is not None:
                spans.install_cluster(tracer)
            return cluster.cluster_mixed(cfg, tracer)
        import served

        if tracer is not None:
            spans.install_client(tracer)
            spans.install_storage(tracer)
        if workload == "served_reads":
            return served.served_reads(cfg, tracer)
        return served.served_writes(cfg, tracer)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(workdir))
        except OSError:
            pass  # another pass still uses it


def end_to_end(out) -> Dict[str, float]:
    from common import p50, p90

    return {
        "setup_s": statistics.median(out.setup_s),
        "ops_per_s": out.ops.completed / out.window_s,
        "peak_rss_mb": out.peak_rss_mb,
        "light_read_p90_ms": p90(out.light) * 1e3,
        "heavy_p50_ms": p50(out.heavy) * 1e3,
        "round_p50_ms": p50(out.ops.rounds) * 1e3,
        "recover_s": out.recover_s,
    }


def accounting(out) -> List[Dict[str, float]]:
    import spans

    rows = spans.account_requests(out.client_spans, out.server_spans)
    if out.server_spans:
        rows = [row for row in rows if row["served"]]
    return rows


def per_layer(out, rows) -> Dict[str, float]:
    import spans

    totals = spans.layer_totals(out.client_spans + out.server_spans)
    counts = dict(out.counts)
    counts.update(out.facts)
    ops = max(1, out.ops.completed)
    writes = max(1, len(out.ops.kinds("insert", "update", "delete")))
    counts["client.wire_idle"] = sum(row["wire_idle"] for row in rows)
    if counts.get("protocol.page_rows"):
        counts["protocol.bytes_per_row"] = (counts["protocol.page_bytes"]
                                            / counts["protocol.page_rows"])
    if counts.get("cluster.rows_returned"):
        counts["cluster.bytes_per_row_returned"] = (
            counts["cluster.bytes_shipped"] / counts["cluster.rows_returned"])
    denominators = {
        "ops": ops, "writes": writes, "setups": max(1, len(out.setup_s)),
        "recoveries": 1, "run": 1, "fact": 1,
        "replayed": max(1, counts.get("wal.records_replayed", 0)),
    }
    metrics = {}
    for name, (source, unit, per) in LAYERS.items():
        if source in counts:  # counters and facts measured directly
            value = counts[source]
        elif unit == "s":
            value = totals.get(source, 0.0)
        else:
            value = 0
        metrics[name] = value / denominators[per]
    return metrics


def write_spans(args, out) -> str:
    """Write the traced pass's spans (both processes) and counters."""
    directory = os.path.join(ROOT, ".perfbench_spans")
    os.makedirs(directory, exist_ok=True)
    path = os.path.join(directory, "%s-seed%d.json" % (args.workload,
                                                        args.seed))
    with open(path, "w") as handle:
        json.dump({"fields": ["id", "parent", "name", "start", "end",
                              "request"],
                   "client": out.client_spans, "server": out.server_spans,
                   "counts": dict(out.counts)}, handle)
    return os.path.relpath(path, ROOT)


def report(workload: str, label: str, out, args) -> None:
    e2e = end_to_end(out)
    print("== %s  seed %d  %ss  %s ==" % (workload, args.seed, args.seconds,
                                           label))
    print("  window %.2f s, %d ops completed, %d setups" % (
        out.window_s, out.ops.completed, len(out.setup_s)))
    for name, (value, unit, n) in sorted(out.named.items()):
        print("  %-26s %12.4f %-5s (n=%d)" % (name, value, unit, n))
    for name, value in e2e.items():
        print("  %-26s %12.4f %s" % (name, value, E2E_UNITS[name]))
    for line in out.ops.lines():
        print(line)
    if "client.retries" in out.facts:
        print("  client retries %d" % out.facts["client.retries"])
    if not args.smoke:
        light_n = len(out.light)
        if light_n < 100:
            print("  WARNING: light_read_p90_ms rests on %d samples (< 100)"
                  % light_n)
    for problem in out.problems[:20]:
        print("  WRONG: %s" % problem)


def steadiness(args) -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        bounds = {m["name"]: m["bound"]
                  for m in json.load(handle)["end_to_end"]}
    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    for workload in workloads:
        results = []
        for seed in range(args.seed, args.seed + args.steadiness):
            command = [sys.executable, os.path.join(HERE, "run.py"),
                       "--workload", workload, "--seed", str(seed),
                       "--seconds", str(args.seconds), "--trace", "0"]
            if args.smoke:
                command.append("--smoke")
            done = subprocess.run(command, cwd=ROOT, capture_output=True,
                                  text=True, timeout=900)
            if done.returncode != 0:
                print(done.stdout[-2000:], done.stderr[-2000:])
                return done.returncode
            results.append(json.loads(done.stdout.strip().splitlines()[-1]))
        print("== steadiness %s: %d runs, seeds %d..%d ==" % (
            workload, len(results), args.seed,
            args.seed + args.steadiness - 1))
        print("  correct %s, failed share %s" % (
            all(r["correct"] for r in results),
            sorted({r["failed"] / r["attempted"] for r in results})))
        for name in bounds:
            values = [r["metrics"][name]["value"] for r in results]
            q1, median, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / median
            verdict = "ok" if spread <= bounds[name] / 3 else (
                "within bound" if spread <= bounds[name] else "WIDE")
            print("  %-20s median %12.4f  spread %6.3f  bound %.2f  %-12s %s"
                  % (name, median, spread, bounds[name], verdict,
                     " ".join("%.4g" % v for v in values)))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--steadiness", type=int, default=0, metavar="N")
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args(argv)
    if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
        print("perfbench: no src/repro next to %s; run it from a checkout "
              "of the repository" % HERE, file=sys.stderr)
        return 2
    sys.path.insert(0, os.path.join(ROOT, "src"))
    if args.steadiness:
        return steadiness(args)
    if args.workload == "all":
        parser.error("--workload all needs --steadiness")
    untraced = _run_pass(args.workload, args, traced=False)
    report(args.workload, "untraced", untraced, args)
    correct = not untraced.problems
    result = untraced
    if args.trace:
        traced = _run_pass(args.workload, args, traced=True)
        report(args.workload, "traced", traced, args)
        correct = correct and not traced.problems
        before, after = end_to_end(untraced), end_to_end(traced)
        print("== tracing overhead (untraced -> traced) ==")
        for name in ("ops_per_s", "light_read_p90_ms", "heavy_p50_ms",
                     "round_p50_ms", "recover_s"):
            print("  %-20s %12.4f -> %12.4f  %+6.1f%%" % (
                name, before[name], after[name],
                100.0 * (after[name] / before[name] - 1.0)))
        rows = accounting(traced)
        off = [row for row in rows if abs(row["sum"] - row["latency"])
               > ACCOUNTING_TOLERANCE * row["latency"]]
        worst = max((abs(r["sum"] / r["latency"] - 1.0) for r in rows),
                    default=0.0)
        idle = sum(r["wire_idle"] for r in rows) / max(
            1e-12, sum(r["latency"] for r in rows))
        print("== per-request accounting ==")
        print("  %d requests; %d add up within %d%% (worst %.1f%%); wire "
              "and idle are %.1f%% of latency" % (
                  len(rows), len(rows) - len(off),
                  ACCOUNTING_TOLERANCE * 100, worst * 100, idle * 100))
        correct = correct and bool(rows) and not off
        layers = per_layer(traced, rows)
        print("== per-layer (self time per operation) ==")
        for name, value in layers.items():
            print("  %-32s %14.6g %s" % (name, value, LAYERS[name][1]))
        metrics = {name: {"value": value, "unit": LAYERS[name][1]}
                   for name, value in layers.items()}
        print("  spans written to %s" % write_spans(args, traced))
        result = traced
    else:
        metrics = {name: {"value": value, "unit": E2E_UNITS[name]}
                   for name, value in end_to_end(untraced).items()}
    print(json.dumps({"correct": correct,
                      "attempted": result.ops.total_attempted,
                      "failed": result.ops.total_failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
