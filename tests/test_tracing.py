"""The benchmark's span tracer (perfbench/tracing.py) wraps the program from
outside, by name.  These tests keep that surface working: a traced run gives
the untraced report, and every per-layer metric the benchmark declares is
produced."""

import importlib.util
import json
import pathlib

import pytest

from heckeverify import cli, tensor
from heckeverify.reporting import render_report

ROOT = pathlib.Path(__file__).resolve().parent.parent
# added by the benchmark's worker and runner, not by the tracer
_NOT_FROM_TRACER = {"reporting.report_bytes", "trace.overhead_ratio"}


def _load_tracing():
    spec = importlib.util.spec_from_file_location("tracing", ROOT / "perfbench" / "tracing.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_run_matches_untraced_and_covers_metrics():
    config = cli.config_from_dict({"local_dim": 2, "sites": 2})
    plain = render_report(cli.run_suite(config), config.echo())
    matmul = tensor.PolyMatrix.__dict__["_matmul"]
    run_suite = cli.run_suite

    tracer = _load_tracing().Tracer()
    tracer.install()
    try:
        assert cli.run_suite is not run_suite
        traced = render_report(cli.run_suite(config), config.echo())
        metrics = tracer.metrics()
    finally:
        tracer.uninstall()
    assert cli.run_suite is run_suite
    assert tensor.PolyMatrix.__dict__["_matmul"] is matmul

    assert traced == plain
    declared = {m["name"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]}
    assert declared - _NOT_FROM_TRACER <= set(metrics)
    assert metrics["tensor.matmul.calls"] > 0
    assert metrics["cli.suite.relations.s"] > 0


# (rings.coeff_mults, tensor.matmul.calls, tensor.matmul.peak_nnz) of traced
# (2, 2) runs.  The tracer counts them through the entry-wise ``rows`` view,
# so the storage form of a matrix cannot move them; only a change in the
# products the program forms can.  A windowed product is counted on its whole
# operands, term pairs outside the window included.  Only ``_matmul`` is
# counted: the accumulations of ``tensor.commutes`` and ``trace_sandwich``
# are not.
@pytest.mark.parametrize("suites,counts", [
    (["relations", "tl", "murphy-commute", "central", "ybe", "re", "unitarity", "crossing",
      "prop1", "corollary", "hamiltonian", "commuting-family"], (19556, 513, 20)),
    (["prop2", "explore-generic"], (2853, 165, 14)),
    (["condition2", "factorized", "degeneration"], (3627, 168, 14)),
], ids=["other-suites", "lattice-suites", "claim-suites"])
def test_traced_counts_pinned(suites, counts):
    config = cli.config_from_dict({"local_dim": 2, "sites": 2, "suites": suites})
    tracer = _load_tracing().Tracer()
    tracer.install()
    try:
        cli.run_suite(config)
        metrics = tracer.metrics()
    finally:
        tracer.uninstall()
    assert (metrics["rings.coeff_mults"], metrics["tensor.matmul.calls"],
            metrics["tensor.matmul.peak_nnz"]) == counts


def test_one_boundary_suites_time_their_own_checks():
    """Each one-boundary suite's span holds the products of its own checks,
    so ``cli.suite.<name>.s`` is that suite's time."""
    suites = ["prop1", "corollary", "hamiltonian", "commuting-family"]
    config = cli.config_from_dict({"local_dim": 2, "sites": 3, "suites": suites})
    tracer = _load_tracing().Tracer()
    tracer.install()
    try:
        cli.run_suite(config)
        metrics = tracer.metrics()
    finally:
        tracer.uninstall()
    names, spans = tracer.names, tracer.spans

    def suite_of(idx):
        while not names[spans[idx][0]].startswith("cli.suite."):
            idx = spans[idx][3]
        return names[spans[idx][0]][len("cli.suite."):]

    assert {suite_of(i) for i, span in enumerate(spans)
            if names[span[0]] == "tensor.PolyMatrix._matmul"} == set(suites)
    assert all(metrics[f"cli.suite.{name}.s"] > 0 for name in suites)


def test_lattice_last_products_are_traced():
    """The lattice closes every member with ``trace_sandwich``, looked up
    when it runs, so the tracer sees the contractions inside the suite that
    reads the lattice."""
    config = cli.config_from_dict({"local_dim": 2, "sites": 3,
                                   "suites": ["prop2", "explore-generic"]})
    tracer = _load_tracing().Tracer()
    tracer.install()
    try:
        cli.run_suite(config)
    finally:
        tracer.uninstall()
    names, spans = tracer.names, tracer.spans

    def ancestors(idx):
        while (idx := spans[idx][3]) >= 0:
            yield names[spans[idx][0]]

    contractions = [i for i, span in enumerate(spans)
                    if names[span[0]] == "tensor.trace_sandwich"]
    assert any("cli.suite.prop2" in ancestors(i) for i in contractions)
