"""The served workloads' server process.

Usage::

    python perfbench/serve.py reads  DATADIR PORTFILE [SPANFILE]
    python perfbench/serve.py writes DATADIR PORTFILE [SPANFILE]

``reads`` is ``repro serve DATADIR`` itself (CSV tables, no result
cache, default capacity).  ``writes`` builds the server the same way
over the durable state in ``DATADIR`` -- a ``DiskRelationStore``
checkpoint plus its write-ahead log, recovered at start -- with a
``TransactionManager`` that appends and fsyncs one log record per
commit.  Both write the bound port to ``PORTFILE`` once listening.

With ``SPANFILE`` the process records layer spans (see ``spans.py``)
and writes them to ``SPANFILE`` on ``SIGUSR1``.
"""

from __future__ import annotations

import asyncio
import os
import signal
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)

WAL_NAME = "wal.log"


def serve_reads(datadir: str, portfile: str) -> int:
    from repro.cli import main

    return main(["serve", datadir, "--port-file", portfile])


def serve_writes(datadir: str, portfile: str) -> int:
    from repro.relational.constraints import KeyConstraint, Table
    from repro.relational.disk import DiskRelationStore
    from repro.relational.tx import TransactionManager
    from repro.relational.wal import WriteAheadLog
    from repro.server import Server

    log = WriteAheadLog(os.path.join(datadir, WAL_NAME), sync=True)
    state = DiskRelationStore(datadir).recover(log)
    keys = {"emp": [KeyConstraint(["emp"])]}
    manager = TransactionManager({
        name: Table(rel.heading, rel.iter_dicts(), keys.get(name, []))
        for name, rel in state.items()
    }, log=log)

    async def run() -> None:
        server = Server(manager)
        await server.start("127.0.0.1", 0)
        tmp = portfile + ".tmp"
        with open(tmp, "w") as handle:
            handle.write("%d\n" % server.port)
        os.replace(tmp, portfile)
        await asyncio.Event().wait()  # until killed

    asyncio.run(run())
    return 0


def main(argv) -> int:
    mode, datadir, portfile = argv[:3]
    if len(argv) > 3:
        import spans

        tracer = spans.Tracer("s")
        spans.install_server(tracer)
        spanfile = argv[3]
        signal.signal(signal.SIGUSR1,
                      lambda signum, frame: tracer.dump(spanfile))
    if mode == "reads":
        return serve_reads(datadir, portfile)
    return serve_writes(datadir, portfile)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
