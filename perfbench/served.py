"""The served workloads: ``served_reads`` and ``served_writes``.

One load-generator process drives two client connections over loopback
TCP (``nproc`` is 2 on the reference machine) against a server in its
own process, so client decode and server execution overlap the way
they do in deployment.  Both clients are closed loops: each sends its
next request when the previous answer is in and checked.
"""

from __future__ import annotations

import asyncio
import csv
import gc
import json
import os
import statistics
from typing import Dict, List, Optional

import gen
import oracle
import spans
from common import Outcome, ServerProcess, now

HEAVY = (("join", gen.JOIN_SQL), ("scan", gen.SCAN_SQL), ("aggregate", gen.AGG_SQL))


def _write_csv(path: str, attrs, rows) -> None:
    with open(path, "w", newline="") as handle:
        out = csv.writer(handle)
        out.writerow(attrs)
        for row in rows:
            out.writerow([row[a] for a in attrs])


async def _connect(port: int, name: str):
    from repro.server import connect

    return await connect("127.0.0.1", port, client_id=name,
                         read_timeout_s=60.0)


async def _query(out: Outcome, client, kind: str, sql: str):
    """One timed query; None when it failed (counted, typed)."""
    from repro.errors import XSTError

    started = out.ops.begin(kind)
    try:
        relation = await client.query(sql)
    except XSTError as error:
        out.ops.fail(kind, error)
        return None, 0.0
    return relation, out.ops.done(kind, started)


async def _close(client, out: Optional[Outcome] = None) -> None:
    from repro.errors import XSTError

    if out is not None:
        out.facts["client.retries"] = \
            out.facts.get("client.retries", 0) + client.retries
    try:
        await client.close()
    except (XSTError, OSError):
        pass


async def _first_answer(port: int):
    client = await _connect(port, "restart")
    try:
        return await client.query(gen.point_sql(0))
    finally:
        await _close(client)


# -- served_reads ---------------------------------------------------------


class ReadsReference:
    """Expected answers for the read-only tables."""

    def __init__(self, emp, dept):
        self.by_key = {row["emp"]: row for row in emp}
        self.fixed = {
            gen.JOIN_SQL: oracle.row_set(set(gen.EMP) | set(gen.DEPT),
                                         oracle.join(emp, dept)),
            gen.SCAN_SQL: oracle.row_set(gen.EMP, emp),
            gen.AGG_SQL: oracle.row_set(
                ("dept", "n"), oracle.group_count(emp, "dept", "emp", "n")),
        }
        for d in {row["dept"] for row in dept}:
            self.fixed[gen.dept_sql(d)] = oracle.row_set(
                ("emp", "name"),
                oracle.project(oracle.select(emp, dept=d), ("emp", "name")))

    def point(self, key: int):
        row = self.by_key.get(key)
        return oracle.row_set(gen.EMP, [row] if row else [])

    def check(self, out: Outcome, sql: str, relation, key=None) -> None:
        expected = self.point(key) if key is not None else self.fixed[sql]
        out.check(oracle.mismatch(expected, oracle.result_set(relation), sql))


def _reads_setup(cfg, index: int, spanfile: Optional[str]):
    started = now()
    emp = gen.emp_rows(cfg.seed, cfg.size["read_emp"], cfg.size["depts"])
    dept = gen.dept_rows(cfg.size["depts"])
    datadir = os.path.join(cfg.workdir, "reads-%d" % index)
    os.makedirs(datadir)
    _write_csv(os.path.join(datadir, "emp.csv"), gen.EMP, emp)
    _write_csv(os.path.join(datadir, "dept.csv"), gen.DEPT, dept)
    server = ServerProcess("reads", datadir, cfg.workdir, "r%d" % index,
                           spanfile)
    return now() - started, server, emp, dept, datadir


#: Both served_reads clients keep going past --seconds until the light
#: reads have this many samples: a 90th percentile needs at least 100,
#: and the extra samples keep it steady from run to run.
MIN_LIGHT = 150


def _running(cfg, out, end) -> bool:
    return now() < end or (not cfg.smoke and len(out.light) < MIN_LIGHT)


async def _heavy_client(cfg, out, ref, port, end) -> None:
    client = await _connect(port, "heavy")
    try:
        while _running(cfg, out, end):
            spent = 0.0
            for kind, sql in HEAVY:
                relation, seconds = await _query(out, client, kind, sql)
                if relation is not None:
                    spent += seconds
                    ref.check(out, sql, relation)
            out.ops.rounds.append(spent)
    finally:
        await _close(client, out)


async def _light_client(cfg, out, ref, port, end) -> None:
    rng = gen.rng_for(cfg.seed, "light")
    client = await _connect(port, "light")
    keys = cfg.size["read_emp"] + cfg.size["read_emp"] // 10  # some miss
    try:
        while _running(cfg, out, end):
            key = rng.randrange(keys)
            relation, seconds = await _query(out, client, "point",
                                             gen.point_sql(key))
            if relation is not None:
                out.light.append(seconds)
                ref.check(out, None, relation, key=key)
            sql = gen.dept_sql(rng.randrange(cfg.size["depts"]))
            relation, seconds = await _query(out, client, "dept_filter", sql)
            if relation is not None:
                out.light.append(seconds)
                ref.check(out, sql, relation)
    finally:
        await _close(client, out)


def served_reads(cfg, tracer: Optional[spans.Tracer]) -> Outcome:
    out = Outcome()
    spanfile = os.path.join(cfg.workdir, "spans-reads.json") if tracer else None
    if tracer is not None:
        tracer.reset()
    server = None
    try:
        for index in range(cfg.setups):
            if server is not None:
                server.kill()
            seconds, server, emp, dept, datadir = _reads_setup(
                cfg, index, spanfile)
            out.setup_s.append(seconds)
        ref = ReadsReference(emp, dept)

        async def load() -> None:
            start = now()
            end = start + cfg.seconds
            await asyncio.gather(
                _heavy_client(cfg, out, ref, server.port, end),
                _light_client(cfg, out, ref, server.port, end),
            )
            out.window_s = now() - start

        asyncio.run(load())
        out.peak_rss_mb = server.peak_rss_mb()
        if tracer is not None:
            # Layer spans of the measured window only: the restarts
            # below are not operations of the workload.
            server.dump_spans()
            out.server_spans, out.counts = spans.load(spanfile)
            out.client_spans = list(tracer.spans)
            out.counts.update(tracer.counts)
        # Restart: the server dies without draining; time until a fresh
        # one serves the same data again (median of several restarts).
        restarts = []
        for index in range(cfg.setups):
            server.kill()
            started = now()
            server = ServerProcess("reads", datadir, cfg.workdir,
                                   "restart%d" % index)
            relation = asyncio.run(_first_answer(server.port))
            restarts.append(now() - started)
            ref.check(out, None, relation, key=0)
        out.recover_s = statistics.median(restarts)
    finally:
        if server is not None:
            server.kill()
    ops = out.ops
    out.heavy = ops.latency["join"]
    out.name("join_p50_ms", ops.latency["join"])
    out.name("scan_p50_ms", ops.latency["scan"])
    out.name("aggregate_p50_ms", ops.latency["aggregate"])
    return out


# -- served_writes --------------------------------------------------------

WAL = "wal.log"


def _writes_setup(cfg, index: int, spanfile: Optional[str]):
    from repro.relational.disk import DiskRelationStore
    from repro.relational.relation import Relation
    from repro.relational.wal import WriteAheadLog

    started = now()
    emp = gen.emp_rows(cfg.seed, cfg.size["write_emp"], cfg.size["depts"])
    dept = gen.dept_rows(cfg.size["depts"])
    datadir = os.path.join(cfg.workdir, "writes-%d" % index)
    os.makedirs(datadir)
    log = WriteAheadLog(os.path.join(datadir, WAL))
    try:
        DiskRelationStore(datadir).checkpoint(log, {
            "emp": Relation.from_dicts(gen.EMP, emp),
            "dept": Relation.from_dicts(gen.DEPT, dept),
        })
    finally:
        log.close()
    server = ServerProcess("writes", datadir, cfg.workdir, "w%d" % index,
                           spanfile)
    return now() - started, server, emp, dept, datadir


def _row_bytes(row: Dict) -> int:
    return len(json.dumps(row, sort_keys=True, separators=(",", ":")))


def _next_write(cfg, rng, model: oracle.WriteModel, kind: str, next_key: int):
    """The wire op for the next write, staged in the model."""
    if kind == "insert":
        row = gen.emp_row(next_key, rng.randrange(cfg.size["depts"]),
                          rng.randrange(1000, 9000))
        model.stage("insert", next_key, row)
        return next_key, ["insert", "emp", row], row
    key = rng.choice(sorted(model.live))
    if kind == "update":
        changes = {"salary": rng.randrange(1000, 9000)}
        _, _, after = model.stage("update", key, changes)
        return key, ["update", "emp", {"emp": key}, changes], after
    before = model.live[key]
    model.stage("delete", key)
    return key, ["delete", "emp", {"emp": key}], before


def _snapshot_answer(state, kind, param):
    if kind == "point":
        row = state.get(param)
        return oracle.row_set(gen.EMP, [row] if row else [])
    return oracle.row_set(("emp", "name"), oracle.project(
        oracle.select(state.values(), dept=param), ("emp", "name")))


def served_writes(cfg, tracer: Optional[spans.Tracer]) -> Outcome:
    from repro.errors import XSTError

    out = Outcome()
    spanfile = os.path.join(cfg.workdir, "spans-writes.json") if tracer else None
    if tracer is not None:
        tracer.reset()
    server = None
    try:
        for index in range(cfg.setups):
            if server is not None:
                server.kill()
            seconds, server, emp, dept, datadir = _writes_setup(
                cfg, index, spanfile)
            out.setup_s.append(seconds)
        wal_path = os.path.join(datadir, WAL)
        wal_start = os.path.getsize(wal_path)
        model = oracle.WriteModel(gen.EMP, "emp", emp)
        observations: List = []
        user_bytes: List[int] = []
        state = {"writing": True, "next_key": cfg.size["write_emp"]}
        rng = gen.rng_for(cfg.seed, "writes")

        async def writer(client) -> None:
            try:
                for _ in range(cfg.write_rounds):
                    spent = 0.0
                    for kind in ("insert", "update", "delete"):
                        key, op, image = _next_write(
                            cfg, rng, model, kind, state["next_key"])
                        if kind == "insert":
                            state["next_key"] += 1
                        started = out.ops.begin(kind)
                        try:
                            version = await client.mutate([op])
                        except XSTError as error:
                            # The write's fate is unknown from here on:
                            # it stays pending and writing stops.
                            out.ops.fail(kind, error)
                            return
                        spent += out.ops.done(kind, started)
                        out.heavy.append(out.ops.latency[kind][-1])
                        user_bytes.append(_row_bytes(image))
                        out.check(model.ack(version))
                        relation, seconds = await _query(
                            out, client, "ryw_point", gen.point_sql(key))
                        if relation is not None:
                            spent += seconds
                            row = model.live.get(key)
                            out.check(oracle.mismatch(
                                oracle.row_set(gen.EMP, [row] if row else []),
                                oracle.result_set(relation),
                                "read-your-write %s %d" % (kind, key)))
                    out.ops.rounds.append(spent)
            finally:
                state["writing"] = False

        async def reader(client) -> None:
            rng_r = gen.rng_for(cfg.seed, "reader")
            keys = cfg.size["write_emp"] + cfg.write_rounds + 10
            while state["writing"]:
                started = out.ops.begin("refresh")
                try:
                    version = await client.refresh()
                except XSTError as error:
                    out.ops.fail("refresh", error)
                    continue
                out.ops.done("refresh", started)
                key = rng_r.randrange(keys)
                relation, seconds = await _query(out, client, "point",
                                                 gen.point_sql(key))
                if relation is not None:
                    out.light.append(seconds)
                    observations.append((version, "point", key,
                                         oracle.result_set(relation)))
                d = rng_r.randrange(cfg.size["depts"])
                relation, seconds = await _query(out, client, "dept_filter",
                                                 gen.dept_sql(d))
                if relation is not None:
                    out.light.append(seconds)
                    observations.append((version, "dept_filter", d,
                                         oracle.result_set(relation)))

        async def load() -> None:
            wclient = await _connect(server.port, "writer")
            rclient = await _connect(server.port, "reader")
            start = now()
            await asyncio.gather(writer(wclient), reader(rclient))
            out.window_s = now() - start
            out.facts["client.retries"] = wclient.retries + rclient.retries
            out.peak_rss_mb = server.peak_rss_mb()
            if tracer is not None:
                server.dump_spans()
            # The kill lands while one more write is in flight: recovery
            # may keep it or not, but nothing else unacknowledged.  (After
            # a failed write, that write is the one left pending.)
            if model.pending is None:
                _, op, _ = _next_write(cfg, rng, model, "insert",
                                       state["next_key"])
                pending = asyncio.ensure_future(wclient.mutate([op]))
                for _ in range(3):
                    await asyncio.sleep(0)
                server.kill()
                try:
                    out.check(model.ack(await pending))
                except XSTError:
                    pass  # died with the server: the write stays pending
            server.kill()
            for client in (wclient, rclient):
                await _close(client)

        asyncio.run(load())
        out.problems.extend(
            model.check_snapshot_reads(observations, _snapshot_answer))
        wal_end = os.path.getsize(wal_path)
        out.recover_s, recovered = _recover(datadir)
        problem, kept = model.check_recovered(
            oracle.row_set(gen.EMP, recovered["emp"].iter_dicts()))
        out.check(problem)
        out.check(oracle.mismatch(
            oracle.row_set(gen.DEPT, dept),
            oracle.row_set(gen.DEPT, recovered["dept"].iter_dicts()),
            "recovered dept"))
        if kept:
            user_bytes.append(_row_bytes(model.pending[2]))
        out.facts["wal.bytes_per_commit"] = (wal_end - wal_start) / max(
            1, len(user_bytes))
        out.facts["wal.write_amplification"] = (wal_end - wal_start) / max(
            1, sum(user_bytes))
        if tracer is not None:
            out.server_spans, out.counts = spans.load(spanfile)
    finally:
        if server is not None:
            server.kill()
    if tracer is not None:
        out.client_spans = list(tracer.spans)
        out.counts.update(tracer.counts)
    ops = out.ops
    writes = ops.kinds("insert", "update", "delete")
    out.name("write_p50_ms", writes)
    out.name("write_p90_ms", writes, q="p90")
    return out


def _recover(datadir: str):
    """Rebuild the committed state from the checkpoint and the log alone."""
    from repro.relational.disk import DiskRelationStore
    from repro.relational.wal import WriteAheadLog

    gc.collect()  # start the timed recovery from a quiet collector
    started = now()
    log = WriteAheadLog(os.path.join(datadir, WAL))
    try:
        state = DiskRelationStore(datadir).recover(log)
    finally:
        log.close()
    return now() - started, state

