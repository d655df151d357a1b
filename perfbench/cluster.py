"""The ``cluster_mixed`` workload: one embedded caller on a 4-node,
replication-2 :class:`~repro.relational.distributed.Cluster`.

``emp`` and ``dept`` are partitioned on ``dept`` (so their join is
co-partitioned); ``asg`` is partitioned on ``emp``, so joining it with
``emp`` re-ships one side.  One round runs, in order: the co-partitioned
join, a repartition join of ``asg`` with one department's employees, a
group-by count, light reads (routed point lookups, routed department
filters and a broadcast salary filter pushed below the gather) and
single-row inserts, all through the plan API ``Cluster.execute`` except
the group-by, which is ``Cluster.aggregate`` (the plan API has no
aggregate node).
"""

from __future__ import annotations

import gc
import statistics
from typing import Optional

import gen
import oracle
import spans
from common import Outcome, now, peak_rss_mb

NODES, REPLICAS = 4, 2
LIGHT_PER_ROUND = 9
WRITES_PER_ROUND = 10
#: Node killed after the measured window, ``OUTAGES`` times; each time
#: it misses ``cfg.down_writes`` insert calls of ``DOWN_BATCH`` rows, and
#: the median revive (rebuild from the write log) is recover_s.
DOWN_NODE, DOWN_BATCH, OUTAGES = "node-1", 8, 3


def _setup(cfg):
    from repro.relational.distributed import Cluster
    from repro.relational.relation import Relation

    started = now()
    size = cfg.size
    emp = gen.emp_rows(cfg.seed, size["cluster_emp"], size["depts"])
    dept = gen.dept_rows(size["depts"])
    asg = gen.asg_rows(cfg.seed, size["cluster_asg"], size["cluster_emp"])
    cluster = Cluster(NODES, replication_factor=REPLICAS)
    cluster.create_table("emp", Relation.from_dicts(gen.EMP, emp), "dept")
    cluster.create_table("dept", Relation.from_dicts(gen.DEPT, dept), "dept")
    cluster.create_table("asg", Relation.from_dicts(gen.ASG, asg), "emp")
    return now() - started, cluster, emp, dept, asg


class _Caller:
    """Runs one timed operation with failure accounting and, when
    traced, a root span standing for the caller's request."""

    def __init__(self, out: Outcome, tracer: Optional[spans.Tracer]):
        self.out, self.tracer, self.ids = out, tracer, 0

    def __call__(self, kind: str, fn):
        from repro.errors import XSTError

        started = self.out.ops.begin(kind)
        span = None
        if self.tracer is not None:
            self.ids += 1
            span, token = self.tracer.open("client.request",
                                           rid="op-%d" % self.ids)
        try:
            result = fn()
        except XSTError as error:
            self.out.ops.fail(kind, error)
            return None, 0.0
        finally:
            if span is not None:
                self.tracer.close(span, token)
        return result, self.out.ops.done(kind, started)


def cluster_mixed(cfg, tracer: Optional[spans.Tracer]) -> Outcome:
    from repro.relational.query import Join, Project, Scan, SelectEq, SelectPred

    out = Outcome()
    if tracer is not None:
        tracer.reset()
    for _ in range(cfg.setups):
        seconds, cluster, emp, dept, asg = _setup(cfg)
        out.setup_s.append(seconds)
    call = _Caller(out, tracer)
    rng = gen.rng_for(cfg.seed, "cluster")
    depts = cfg.size["depts"]
    next_key = cfg.size["cluster_emp"]
    by_key = {row["emp"]: row for row in emp}
    net = cluster.network
    messages0, bytes0, retries0, rows_returned = \
        net.messages, net.bytes_shipped, net.retries, 0

    def check(expected, relation, label):
        nonlocal rows_returned
        rows_returned += len(relation)
        out.check(oracle.mismatch(expected, oracle.result_set(relation), label))

    def salary_below(limit):
        return SelectPred(Scan("emp"), lambda row: row["salary"] < limit,
                          "salary<%d" % limit)

    start = now()
    end = start + cfg.seconds
    while now() < end:
        spent = 0.0
        rows = list(by_key.values())
        result, seconds = call("join", lambda: cluster.execute(
            Join(Scan("emp"), Scan("dept"))))
        if result is not None:
            spent += seconds
            out.heavy.append(seconds)
            check(oracle.row_set(set(gen.EMP) | set(gen.DEPT),
                                 oracle.join(rows, dept)), result, "join")
        d = rng.randrange(depts)
        result, seconds = call("repartition", lambda: cluster.execute(
            Join(Scan("asg"), SelectEq(Scan("emp"), {"dept": d}))))
        if result is not None:
            spent += seconds
            check(oracle.row_set(set(gen.EMP) | set(gen.ASG), oracle.join(
                asg, oracle.select(rows, dept=d))), result, "repartition")
        result, seconds = call("aggregate", lambda: cluster.aggregate(
            "emp", ["dept"], {"n": ("count", "emp")}))
        if result is not None:
            spent += seconds
            check(oracle.row_set(("dept", "n"), oracle.group_count(
                rows, "dept", "emp", "n")), result, "aggregate")
        for index in range(LIGHT_PER_ROUND):
            if index % 3 == 0:
                row = by_key[rng.choice(sorted(by_key))]
                kind, plan = "point", SelectEq(
                    Scan("emp"), {"dept": row["dept"], "emp": row["emp"]})
                expected = oracle.row_set(gen.EMP, [row])
            elif index % 3 == 1:
                d = rng.randrange(depts)
                kind, plan = "dept_filter", Project(
                    SelectEq(Scan("emp"), {"dept": d}), ["emp", "name"])
                expected = oracle.row_set(("emp", "name"), oracle.project(
                    oracle.select(rows, dept=d), ("emp", "name")))
            else:
                limit = rng.randrange(1000, 1100)
                kind, plan = "salary_filter", salary_below(limit)
                expected = oracle.row_set(gen.EMP, [
                    r for r in rows if r["salary"] < limit])
            result, seconds = call(kind, lambda: cluster.execute(plan))
            if result is not None:
                spent += seconds
                out.light.append(seconds)
                check(expected, result, kind)
        for _ in range(WRITES_PER_ROUND):
            row = gen.emp_row(next_key, rng.randrange(depts),
                              rng.randrange(1000, 9000))
            result, seconds = call("insert", lambda: cluster.insert(
                "emp", [row]))
            if result is not None:
                spent += seconds
                by_key[row["emp"]] = row
                next_key += 1
        out.ops.rounds.append(spent)
    out.window_s = now() - start
    out.facts["cluster.messages"] = net.messages - messages0
    out.facts["cluster.bytes_shipped"] = net.bytes_shipped - bytes0
    out.facts["cluster.retries"] = net.retries - retries0
    out.facts["cluster.rows_returned"] = rows_returned
    out.peak_rss_mb = peak_rss_mb()
    if tracer is not None:
        # Layer spans of the measured window only: the recovery phase's
        # inserts are not operations of the workload.
        out.client_spans = list(tracer.spans)
        out.counts.update(tracer.counts)

    # Recovery: a node down through a batch of inserts catches up from
    # the write log on revive (median of several outages); then its
    # ring partners die so every bucket it holds is served by the
    # rebuilt copy, and a full scan must equal the reference.
    rebuilds = []
    for _ in range(OUTAGES):
        cluster.kill_node(DOWN_NODE)
        for _ in range(cfg.down_writes):
            batch = [gen.emp_row(next_key + i, rng.randrange(depts),
                                 rng.randrange(1000, 9000))
                     for i in range(DOWN_BATCH)]
            cluster.insert("emp", batch)
            by_key.update((row["emp"], row) for row in batch)
            next_key += DOWN_BATCH
        gc.collect()  # start the timed rebuild from a quiet collector
        started = now()
        cluster.revive_node(DOWN_NODE)
        rebuilds.append(now() - started)
    out.recover_s = out.facts["cluster.rebuild"] = statistics.median(rebuilds)
    down = int(DOWN_NODE.split("-")[1])
    for partner in ((down - 1) % NODES, (down + 1) % NODES):
        cluster.kill_node("node-%d" % partner)
    out.check(oracle.mismatch(oracle.row_set(gen.EMP, by_key.values()),
                              oracle.result_set(cluster.execute(Scan("emp"))),
                              "scan after revive"))
    ops = out.ops
    out.name("join_p50_ms", ops.latency["join"])
    out.name("repartition_join_p50_ms", ops.latency["repartition"])
    out.name("aggregate_p50_ms", ops.latency["aggregate"])
    out.name("light_read_p50_ms", out.light)
    out.name("write_p50_ms", ops.latency["insert"])
    out.name("write_p90_ms", ops.latency["insert"], q="p90")
    return out
