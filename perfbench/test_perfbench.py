"""The benchmark's own tests: the oracle rejects corrupted results, and
every workload runs every check at the smoke size.

Run from the repository root::

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import gen  # noqa: E402
import oracle  # noqa: E402
import run  # noqa: E402
from repro.relational.relation import Relation  # noqa: E402

EMP = gen.emp_rows(7, 40, 4)
DEPT = gen.dept_rows(4)


def _joined():
    return oracle.row_set(set(gen.EMP) | set(gen.DEPT), oracle.join(EMP, DEPT))


def _relation(rows):
    attrs = sorted(rows[0])
    return Relation.from_dicts(attrs, rows)


def test_oracle_accepts_the_true_answer():
    rows = oracle.join(EMP, DEPT)
    assert oracle.mismatch(_joined(), oracle.result_set(_relation(rows)),
                           "join") is None


def test_oracle_rejects_a_dropped_row():
    rows = oracle.join(EMP, DEPT)[1:]
    problem = oracle.mismatch(_joined(), oracle.result_set(_relation(rows)),
                              "join")
    assert problem and "1 rows missing" in problem


def test_oracle_rejects_an_altered_row():
    rows = oracle.join(EMP, DEPT)
    rows[3] = dict(rows[3], salary=rows[3]["salary"] + 1)
    problem = oracle.mismatch(_joined(), oracle.result_set(_relation(rows)),
                              "join")
    assert problem and "1 unexpected" in problem


def _model():
    model = oracle.WriteModel(gen.EMP, "emp", EMP)
    model.stage("insert", 100, gen.emp_row(100, 1, 5000))
    assert model.ack(1) is None
    model.stage("update", 3, {"salary": 1234})
    assert model.ack(2) is None
    model.stage("delete", 5)
    assert model.ack(3) is None
    return model


def test_write_model_versions_and_snapshots():
    model = _model()
    assert 100 in model.state_at(1) and 100 in model.state_at(3)
    assert model.state_at(1)[3]["salary"] == EMP[3]["salary"]
    assert model.state_at(2)[3]["salary"] == 1234
    assert 5 in model.state_at(2) and 5 not in model.state_at(3)
    model.stage("insert", 101, gen.emp_row(101, 2, 4000))
    assert "version 9" in model.ack(9)


def test_snapshot_reads_reject_a_stale_answer():
    model = _model()

    def answer(state, kind, key):
        return model.rows({key: state[key]} if key in state else {})

    fresh = answer(model.state_at(2), "point", 3)
    stale = answer(model.state_at(1), "point", 3)
    assert model.check_snapshot_reads([(2, "point", 3, fresh)], answer) == []
    assert model.check_snapshot_reads([(2, "point", 3, stale)], answer)


def test_restart_property():
    model = _model()
    model.stage("insert", 200, gen.emp_row(200, 0, 3000))
    acked = model.rows(model.live)
    with_pending = model.rows(model.state_at(4, include_pending=True))
    assert model.check_recovered(acked) == (None, False)
    assert model.check_recovered(with_pending) == (None, True)
    lost = model.rows(model.state_at(2))  # the delete at v3 is missing
    problem, _ = model.check_recovered(lost)
    assert problem
    extra = dict(model.live)
    extra[999] = gen.emp_row(999, 0, 1)  # a write nobody sent
    assert model.check_recovered(model.rows(extra))[0]


def _bench(*args, cwd=ROOT):
    done = subprocess.run(
        [sys.executable, os.path.join(cwd, "perfbench", "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )
    return done


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_smoke_untraced(workload):
    done = _bench("--workload", workload, "--seed", "3", "--seconds", "1",
                  "--trace", "0", "--smoke")
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] > 0
    assert set(result["metrics"]) == {m["name"] for m in spec["end_to_end"]}
    assert all(m["value"] > 0 for m in result["metrics"].values())


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_smoke_traced(workload):
    done = _bench("--workload", workload, "--seed", "4", "--seconds", "1",
                  "--trace", "1", "--smoke")
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    assert result["correct"] is True
    assert set(result["metrics"]) == {m["name"] for m in spec["per_layer"]}
    assert "tracing overhead" in done.stdout
    assert "per-request accounting" in done.stdout


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = _bench("--workload", "served_reads", "--seed", "1",
                  "--seconds", "1", "--trace", "0", cwd=str(tmp_path))
    assert done.returncode != 0
    assert not done.stdout.strip()
