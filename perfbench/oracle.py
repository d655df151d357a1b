"""The reference oracle: every answer the program gives, recomputed apart.

Answers are computed in plain Python from the generated rows -- a dict
join on the shared attribute, list filters, counted groups -- and never
through ``repro``.  A result is compared as a *set of rows*, each row a
tuple over the attribute names in sorted order, so neither the heading's
order nor the row order matters, and a dropped, added or altered row
always shows.

:class:`WriteModel` keeps the writes the program acknowledged, in
commit-version order, so a snapshot read at version ``v`` and the state
recovered after a crash can both be checked against the exact state the
acknowledgements promise.
"""

from __future__ import annotations

from typing import Any, Dict, FrozenSet, Iterable, List, Optional, Sequence, Tuple

Row = Dict[str, Any]
RowSet = Tuple[Tuple[str, ...], FrozenSet[Tuple[Any, ...]]]


def row_set(attrs: Iterable[str], rows: Iterable[Row]) -> RowSet:
    """Rows as a comparable value: sorted attribute names plus tuples."""
    names = tuple(sorted(attrs))
    return names, frozenset(tuple(row[a] for a in names) for row in rows)


def result_set(relation) -> RowSet:
    """A program result (anything with ``heading.names`` and
    ``to_rows()``) in the same comparable form as :func:`row_set`."""
    heading = tuple(relation.heading.names)
    names = tuple(sorted(heading))
    order = [heading.index(name) for name in names]
    return names, frozenset(
        tuple(row[i] for i in order) for row in relation.to_rows()
    )


def mismatch(expected: RowSet, got: RowSet, label: str) -> Optional[str]:
    """None when equal, else a one-line description of the difference."""
    if expected == got:
        return None
    if expected[0] != got[0]:
        return "%s: heading %s, expected %s" % (label, got[0], expected[0])
    missing = expected[1] - got[1]
    extra = got[1] - expected[1]
    return "%s: %d rows missing (e.g. %s), %d unexpected (e.g. %s)" % (
        label, len(missing), sorted(missing, key=repr)[:1],
        len(extra), sorted(extra, key=repr)[:1],
    )


# -- relational reference operators ---------------------------------------


def join(left: Sequence[Row], right: Sequence[Row]) -> List[Row]:
    """Natural join by a dict index on the shared attributes."""
    if not left or not right:
        return []
    shared = sorted(set(left[0]) & set(right[0]))
    index: Dict[Tuple[Any, ...], List[Row]] = {}
    for row in right:
        index.setdefault(tuple(row[a] for a in shared), []).append(row)
    out = []
    for row in left:
        for match in index.get(tuple(row[a] for a in shared), ()):
            merged = dict(match)
            merged.update(row)
            out.append(merged)
    return out


def select(rows: Iterable[Row], **conditions: Any) -> List[Row]:
    return [row for row in rows
            if all(row[a] == v for a, v in conditions.items())]


def project(rows: Iterable[Row], attrs: Sequence[str]) -> List[Row]:
    return [{a: row[a] for a in attrs} for row in rows]


def group_count(rows: Iterable[Row], by: str, counted: str,
                alias: str) -> List[Row]:
    counts: Dict[Any, set] = {}
    for row in rows:
        counts.setdefault(row[by], set()).add(row[counted])
    return [{by: key, alias: len(values)} for key, values in counts.items()]


# -- acknowledged writes, by commit version -----------------------------


class WriteModel:
    """The keyed table state each acknowledged commit version promises.

    Writes are single-row ``insert``/``update``/``delete`` on the key
    attribute.  :meth:`stage` records a write before it is sent;
    :meth:`ack` files it under the version the program acknowledged.
    Versions must come back contiguous (one writer, one commit per
    write), and a write that was staged but never acknowledged stays
    ``pending`` -- the only write a crash may or may not have kept.
    """

    def __init__(self, attrs: Sequence[str], key: str,
                 base: Iterable[Row], base_version: int = 0):
        self.attrs = tuple(attrs)
        self.key = key
        self.base = {row[key]: dict(row) for row in base}
        self.base_version = base_version
        self.live = dict(self.base)
        self.writes: List[Tuple[str, Any, Optional[Row]]] = []
        self.pending: Optional[Tuple[str, Any, Optional[Row]]] = None

    @property
    def version(self) -> int:
        return self.base_version + len(self.writes)

    def stage(self, kind: str, key: Any,
              changes: Optional[Row] = None) -> Tuple[str, Any, Optional[Row]]:
        """Record the next write; returns ``(kind, key, row_after)``."""
        if self.pending is not None:
            raise ValueError("a write is already pending")
        if kind == "insert":
            after: Optional[Row] = dict(changes or {})
        elif kind == "update":
            after = dict(self.live[key])
            after.update(changes or {})
        elif kind == "delete":
            after = None
        else:
            raise ValueError("unknown write kind %r" % kind)
        self.pending = (kind, key, after)
        return self.pending

    def ack(self, version: int) -> Optional[str]:
        """File the pending write at ``version``; a mismatch string if
        the version is not the next one."""
        assert self.pending is not None
        expected = self.version + 1
        _, key, after = self.pending
        self.writes.append(self.pending)
        self.pending = None
        if after is None:
            self.live.pop(key, None)
        else:
            self.live[key] = after
        if version != expected:
            return "write acknowledged at version %d, expected %d" % (
                version, expected)
        return None

    def states(self, include_pending: bool = False):
        """Yield ``(version, {key: row})`` for every version in order.

        The same dict is mutated between yields; copy it to keep it.
        """
        state = dict(self.base)
        yield self.base_version, state
        writes = list(self.writes)
        if include_pending and self.pending is not None:
            writes.append(self.pending)
        for offset, (_, key, after) in enumerate(writes, 1):
            if after is None:
                state.pop(key, None)
            else:
                state[key] = after
            yield self.base_version + offset, state

    def state_at(self, version: int, include_pending: bool = False) -> Dict[Any, Row]:
        for at, state in self.states(include_pending):
            if at == version:
                return dict(state)
        raise KeyError("no state at version %d" % version)

    def rows(self, state: Dict[Any, Row]) -> RowSet:
        return row_set(self.attrs, state.values())

    def check_snapshot_reads(
        self, observations: Sequence[Tuple[int, str, Any, RowSet]],
        answer,
    ) -> List[str]:
        """Check ``(version, kind, param, got)`` reads against the state
        at their version; ``answer(state, kind, param)`` gives the
        expected :data:`RowSet`."""
        problems = []
        by_version: Dict[int, List] = {}
        for obs in observations:
            by_version.setdefault(obs[0], []).append(obs)
        seen = set()
        for version, state in self.states():
            for _, kind, param, got in by_version.get(version, ()):
                problem = mismatch(answer(state, kind, param), got,
                                   "%s(%r)@v%d" % (kind, param, version))
                if problem:
                    problems.append(problem)
            seen.add(version)
        for version in sorted(set(by_version) - seen):
            problems.append("snapshot read at version %d, which no "
                            "acknowledged write produced" % version)
        return problems

    def check_recovered(self, got: RowSet) -> Tuple[Optional[str], bool]:
        """The restart property: the recovered table holds every
        acknowledged write and nothing unacknowledged except, possibly,
        the one write still pending when the server died.

        Returns ``(problem or None, whether the pending write survived)``.
        """
        if got == self.rows(self.live):
            return None, False
        if self.pending is not None and got == self.rows(
                self.state_at(self.version + 1, include_pending=True)):
            return None, True
        return mismatch(self.rows(self.live), got, "recovered state"), False
