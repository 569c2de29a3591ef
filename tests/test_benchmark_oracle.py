"""The benchmark's worker (perfbench/worker.py) reads the program by name:
its oracle rebuilds transfer matrices and Murphy elements through the
package's API and the representation's fields, and its set-up probe
(perfbench/setup_probe.py) builds representations and kits through
``cli.SuiteContext``.  These tests keep that surface working, so a deletion
the benchmark relies on fails here."""

import pathlib
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
PERFBENCH = str(ROOT / "perfbench")
WORKLOADS = ROOT / "perfbench" / "workloads"
if PERFBENCH not in sys.path:
    sys.path.insert(0, PERFBENCH)

from worker import Worker  # noqa: E402


def _oracle_checks(workload: str) -> set:
    """The suites of the checks the oracle confirmed on ``workload``; every
    oracle result must hold."""
    worker = Worker(str(WORKLOADS / f"{workload}.json"), 3)
    result = worker.oracle(worker.verify()["report"])["results"]
    assert result
    assert [r for r in result if not r["ok"]] == []
    return {c.split("/")[0] for r in result for c in r["checks"]}


def test_oracle_accepts_the_default_workload():
    # the two-boundary, one-boundary and algebra branches all ran
    assert {"prop2", "prop1", "murphy-commute"} <= _oracle_checks("suite-default")


@pytest.mark.parametrize("workload,branch", [("two-boundary", "prop2"),
                                             ("one-boundary", "prop1")])
def test_oracle_accepts_the_transfer_workloads(workload, branch):
    # the algebra workload is left out: its oracle takes about 3 s
    assert branch in _oracle_checks(workload)


@pytest.mark.parametrize("workload", sorted(p.name for p in WORKLOADS.glob("*.json")))
def test_setup_probe_runs_each_workload(workload, monkeypatch):
    """The benchmark times ``setup_probe.py`` as its set-up: it builds every
    specialization's representation, and the kit where a suite reads one."""
    import setup_probe
    from heckeverify import baxter, cli

    kits = []
    build_kit = baxter.build_kit

    def counting(rep):
        kits.append(build_kit(rep))
        return kits[-1]

    monkeypatch.setattr(baxter, "build_kit", counting)
    path = WORKLOADS / workload
    monkeypatch.setattr(sys, "argv", ["setup_probe.py", str(path), "101"])
    setup_probe.main()
    suites = cli.load_config(str(path)).get("suites", cli.SUITE_NAMES)
    wants_kit = bool(setup_probe.KIT_SUITES & set(suites))
    assert len(kits) == (cli.SPECIALIZATIONS if wants_kit else 0)
