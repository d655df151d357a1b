"""Seeded inputs for the benchmark, generated apart from the program.

Nothing here imports ``repro``: the rows, the query texts and the write
sequences come from :mod:`random` seeded by the ``--seed`` argument, so
a change to the program cannot change what the program is fed.

Tables
------
* ``emp(emp, name, dept, salary)`` -- ``emp`` is a dense integer key,
  ``name`` the string ``e<key>`` (never parses as a number, so it
  survives the CSV loader unchanged), ``dept`` uniform over the
  departments, ``salary`` uniform in ``[1000, 9000)``.
* ``dept(dept, dname, floor)`` -- one row per department.
* ``asg(task, emp, hours)`` -- task assignments, ``emp`` uniform over
  the employee keys (the cluster's second table).
"""

from __future__ import annotations

import random
from typing import Any, Dict, List

EMP = ("emp", "name", "dept", "salary")
DEPT = ("dept", "dname", "floor")
ASG = ("task", "emp", "hours")

#: Input sizes per workload; ``smoke`` is the small size the benchmark's
#: own tests use to exercise every check in a few seconds.
SIZES = {
    "full": {"read_emp": 2000, "write_emp": 1000, "cluster_emp": 2000,
             "cluster_asg": 2000, "depts": 16},
    "smoke": {"read_emp": 120, "write_emp": 80, "cluster_emp": 120,
              "cluster_asg": 120, "depts": 4},
}

Row = Dict[str, Any]


def rng_for(seed: int, stream: str) -> random.Random:
    """An independent generator per (seed, stream) pair."""
    return random.Random("%d/%s" % (seed, stream))


def emp_row(key: int, dept: int, salary: int) -> Row:
    return {"emp": key, "name": "e%d" % key, "dept": dept, "salary": salary}


def emp_rows(seed: int, count: int, depts: int) -> List[Row]:
    rng = rng_for(seed, "emp")
    return [emp_row(key, rng.randrange(depts), rng.randrange(1000, 9000))
            for key in range(count)]


def dept_rows(depts: int) -> List[Row]:
    return [{"dept": d, "dname": "d%d" % d, "floor": d % 4}
            for d in range(depts)]


def asg_rows(seed: int, count: int, emps: int) -> List[Row]:
    rng = rng_for(seed, "asg")
    return [{"task": task, "emp": rng.randrange(emps),
             "hours": rng.randrange(1, 40)} for task in range(count)]


# -- query texts (XQL) -------------------------------------------------

JOIN_SQL = "select * from emp join dept"
SCAN_SQL = "select * from emp"
AGG_SQL = "select dept, count(emp) as n from emp group by dept"


def point_sql(key: int) -> str:
    return "select * from emp where emp = %d" % key


def dept_sql(dept: int) -> str:
    return "select emp, name from emp where dept = %d" % dept
