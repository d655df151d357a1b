"""Shared pieces: timing records, percentiles, the server process."""

from __future__ import annotations

import math
import os
import signal
import statistics
import subprocess
import sys
import time
from collections import Counter, defaultdict
from typing import Dict, List, Optional

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

now = time.perf_counter


def p50(values: List[float]) -> float:
    return statistics.median(values) if values else float("nan")


def p90(values: List[float]) -> float:
    """Nearest-rank 90th percentile."""
    if not values:
        return float("nan")
    ordered = sorted(values)
    return ordered[max(0, math.ceil(0.9 * len(ordered)) - 1)]


class Ops:
    """Latencies, attempts and typed failures, per operation kind."""

    def __init__(self) -> None:
        self.latency: Dict[str, List[float]] = defaultdict(list)
        self.attempted: Counter = Counter()
        self.failed: Dict[str, Counter] = defaultdict(Counter)
        self.rounds: List[float] = []

    def begin(self, kind: str) -> float:
        self.attempted[kind] += 1
        return now()

    def done(self, kind: str, started: float) -> float:
        elapsed = now() - started
        self.latency[kind].append(elapsed)
        return elapsed

    def fail(self, kind: str, error: BaseException) -> None:
        self.failed[kind][getattr(error, "code", type(error).__name__)] += 1

    def kinds(self, *kinds: str) -> List[float]:
        out: List[float] = []
        for kind in kinds:
            out.extend(self.latency[kind])
        return out

    @property
    def total_attempted(self) -> int:
        return sum(self.attempted.values())

    @property
    def total_failed(self) -> int:
        return sum(sum(c.values()) for c in self.failed.values())

    @property
    def completed(self) -> int:
        return sum(len(v) for v in self.latency.values())

    def lines(self) -> List[str]:
        out = []
        for kind in sorted(self.attempted):
            failed = self.failed.get(kind, Counter())
            codes = ", ".join("%s=%d" % kv for kv in sorted(failed.items()))
            out.append("  ops %-14s attempted %5d  failed %3d%s" % (
                kind, self.attempted[kind], sum(failed.values()),
                "  (%s)" % codes if codes else ""))
        return out


def peak_rss_mb(pid: Optional[int] = None) -> float:
    """Peak resident size (VmHWM) of ``pid``, or of this process."""
    path = "/proc/%s/status" % ("self" if pid is None else pid)
    with open(path) as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("no VmHWM in %s" % path)


class ServerProcess:
    """One ``serve.py`` process; always reaped by :meth:`kill`."""

    def __init__(self, mode: str, datadir: str, workdir: str, tag: str,
                 spanfile: Optional[str] = None, timeout_s: float = 120.0):
        self.portfile = os.path.join(workdir, "port-%s" % tag)
        self.spanfile = spanfile
        self.errpath = os.path.join(workdir, "server-%s.err" % tag)
        args = [sys.executable, os.path.join(HERE, "serve.py"), mode,
                datadir, self.portfile]
        if spanfile is not None:
            args.append(spanfile)
        env = dict(os.environ)
        env["PYTHONPATH"] = SRC
        with open(self.errpath, "w") as err:
            self.proc = subprocess.Popen(
                args, cwd=ROOT, env=env, stdin=subprocess.DEVNULL,
                stdout=subprocess.DEVNULL, stderr=err,
            )
        try:
            self.port = self._wait_port(timeout_s)
        except BaseException:
            self.kill()
            raise

    def _wait_port(self, timeout_s: float) -> int:
        deadline = now() + timeout_s
        while now() < deadline:
            if self.proc.poll() is not None:
                with open(self.errpath) as err:
                    raise RuntimeError("server exited %s: %s" % (
                        self.proc.returncode, err.read()[-2000:]))
            try:
                with open(self.portfile) as handle:
                    return int(handle.read().strip())
            except (FileNotFoundError, ValueError):
                time.sleep(0.005)
        raise RuntimeError("server did not listen within %.0fs" % timeout_s)

    def peak_rss_mb(self) -> float:
        return peak_rss_mb(self.proc.pid)

    def dump_spans(self, timeout_s: float = 60.0) -> None:
        """Ask the server for its spans and wait until they are written."""
        assert self.spanfile is not None
        os.kill(self.proc.pid, signal.SIGUSR1)
        deadline = now() + timeout_s
        while not os.path.exists(self.spanfile):
            if now() > deadline or self.proc.poll() is not None:
                raise RuntimeError("server wrote no spans")
            time.sleep(0.005)

    def kill(self) -> None:
        """SIGKILL (no drain) and reap."""
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()


class Outcome:
    """Everything one pass of a workload measured."""

    def __init__(self) -> None:
        self.ops = Ops()
        self.setup_s: List[float] = []
        self.window_s = float("nan")
        self.peak_rss_mb = float("nan")
        self.recover_s = float("nan")
        #: Latencies behind the generic end-to-end metrics.
        self.heavy: List[float] = []
        self.light: List[float] = []
        #: Answers that disagreed with the oracle (empty = correct).
        self.problems: List[str] = []
        #: Per-kind figures printed by name (value, unit, samples).
        self.named: Dict[str, tuple] = {}
        #: Traced pass only: spans of both processes and counters.
        self.client_spans: list = []
        self.server_spans: list = []
        self.counts: Counter = Counter()
        self.facts: Dict[str, float] = {}

    def check(self, problem: Optional[str]) -> None:
        if problem:
            self.problems.append(problem)

    def name(self, metric: str, values: List[float], q: str = "p50") -> None:
        """Record a per-kind latency figure (ms) printed by name."""
        value = (p50 if q == "p50" else p90)(values)
        self.named[metric] = (value * 1e3, "ms", len(values))
