"""The benchmark's worker (perfbench/worker.py) reads the program by name:
its oracle rebuilds transfer matrices and Murphy elements through the
package's API and the representation's fields.  This test keeps that
surface working, so a deletion the benchmark relies on fails here."""

import pathlib
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
PERFBENCH = str(ROOT / "perfbench")
if PERFBENCH not in sys.path:
    sys.path.insert(0, PERFBENCH)

from worker import Worker  # noqa: E402


def test_oracle_accepts_the_default_workload():
    worker = Worker(str(ROOT / "perfbench" / "workloads" / "suite-default.json"), 3)
    result = worker.oracle(worker.verify()["report"])["results"]
    assert result
    assert [r for r in result if not r["ok"]] == []
    checks = {c.split("/")[0] for r in result for c in r["checks"]}
    # the two-boundary, one-boundary and algebra branches all ran
    assert {"prop2", "prop1", "murphy-commute"} <= checks
