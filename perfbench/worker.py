"""In-process side of the benchmark: verify runs, traced runs and the oracle.

Started by ``run.py`` as ``python3 perfbench/worker.py <workload-config> <seed>``
with ``src`` on ``PYTHONPATH``.  It imports the package once, then answers
one JSON command per stdin line with one JSON line on stdout:

* ``{"cmd": "env"}``: scalar backend, Python version, CPU count, and
  whether bytecode is cached;
* ``{"cmd": "verify"}``: ``run_suite`` timed alone, plus the rendered report;
* ``{"cmd": "trace", "spans": path}``: the same run with the tracer
  installed, its per-layer metrics, and the spans written to ``path``;
* ``{"cmd": "oracle", "report": text}``: the oracle's verdicts on
  specialization 0 and on the checks of that canonical report.

The program never writes to stdout during a run, but stdout is kept for
replies only and everything else goes to stderr.
"""

from __future__ import annotations

import json
import os
import platform
import random
import sys
import time
from fractions import Fraction

from heckeverify import cli, hecke, reporting, rings, transfer

import oracle
from tracing import Tracer


def _frac(c) -> Fraction:
    return Fraction(int(c.numerator), int(c.denominator))


def _dense(m) -> list[list[Fraction]]:
    """A degree-0 program matrix as Fraction rows."""
    return [[_frac(m.get(r, c).coeff(0)) for c in range(m.dim)] for r in range(m.dim)]


def _laurent(m) -> list[list[dict[int, Fraction]]]:
    """A program Laurent matrix as rows of ``{degree: Fraction}``."""
    return [[{d: _frac(x) for d, x in m.get(r, c).terms.items()} for c in range(m.dim)]
            for r in range(m.dim)]


def _rat_str(x: Fraction) -> str:
    return f"{x.numerator}/{x.denominator}"


class Verdicts:
    """Oracle results, each naming the report checks it confirms."""

    def __init__(self, entries: list[dict]):
        self.entries = entries   # report entries of specialization 0
        self.results: list[dict] = []

    def entry(self, check: str) -> dict:
        return next((e for e in self.entries if e["check_name"] == check), {})

    def record(self, identity: str, ok: bool, checks=(), detail: str = "") -> None:
        self.results.append({"identity": identity, "ok": bool(ok), "checks": list(checks),
                             "detail": detail})

    def edge(self, identity: str, lm, lowest: bool, target, check: str) -> None:
        """The lowest (or highest) coefficient of ``lm`` is a nonzero scalar
        times ``target``, and the report's ratio and degrees say the same."""
        lo, hi = oracle.degree_span(lm)
        lam = oracle.scalar_ratio(oracle.coefficient(lm, lo if lowest else hi), target)
        entry = self.entry(check)
        problems = []
        if lam is None:
            problems.append("edge is not a nonzero multiple of the target")
        elif entry.get("ratio") != _rat_str(lam):
            problems.append(f"report ratio {entry.get('ratio')} != {_rat_str(lam)}")
        if "degrees" in entry and entry["degrees"] != f"[{lo}, {hi}]":
            problems.append(f"report degrees {entry['degrees']} != [{lo}, {hi}]")
        self.record(identity, not problems, [check], "; ".join(problems))


class Worker:
    def __init__(self, config_path: str, seed: int):
        self.config = cli.config_from_dict(cli.load_config(config_path), seed_override=seed)
        self.seed = seed

    def env(self) -> dict:
        backend = rings.Rational
        return {"scalar_backend": f"{backend.__module__}.{backend.__qualname__}",
                "python": platform.python_version(), "cpu_count": os.cpu_count(),
                # without cached bytecode every process compiles the package
                "dont_write_bytecode": sys.dont_write_bytecode}

    def verify(self) -> dict:
        t0 = time.perf_counter()
        reports = cli.run_suite(self.config)
        seconds = time.perf_counter() - t0
        return {"seconds": seconds,
                "report": reporting.render_report(reports, self.config.echo())}

    def trace(self, spans: str) -> dict:
        tracer = Tracer()
        tracer.install()
        try:
            t0 = time.perf_counter()
            reports = cli.run_suite(self.config)
            seconds = time.perf_counter() - t0
            text = reporting.render_report(reports, self.config.echo())
        finally:
            tracer.uninstall()
        metrics = tracer.metrics()
        metrics["reporting.report_bytes"] = len(text.encode("utf-8"))
        tracer.write(spans)
        return {"seconds": seconds, "report": text, "metrics": metrics}

    def oracle(self, report: str) -> dict:
        """Check specialization 0 of the workload, and the checks ``report``
        gives for it, against the dense oracle."""
        ctx = cli.SuiteContext(self.config)
        rep = ctx.rep(0)
        n = rep.sites
        echo = rep.params.echo()
        entries = [e for e in json.loads(report)["reports"]
                   if all(e["params"].get(k) == v for k, v in echo.items())]
        v = Verdicts(entries)
        tower = oracle.Tower(rep.local_dim, n, _dense(rep.g_local), _dense(rep.g0_local),
                             _dense(rep.gN_local))
        program = {(0, 1): rep.b0, (0, -1): rep.b0_inv, (n, 1): rep.bn, (n, -1): rep.bn_inv}
        for i in range(1, n):
            program[(i, 1)], program[(i, -1)] = rep.braid[i], rep.braid_inv[i]
        bad = tower.generator_mismatches({k: _dense(m) for k, m in program.items()})
        v.record("generators match their Kronecker rebuild", not bad, ["relations/C"],
                 ", ".join(bad))
        p = rep.params
        bad = tower.relation_failures(_frac(p.q), _frac(p.Q0), _frac(p.QN))
        v.record("quadratic, braid and boundary-braid relations", not bad, ["relations/C"],
                 ", ".join(bad))

        suites = set(self.config.suites)
        if "prop2" in suites:
            self._two_boundary(v, tower, rep, ctx.kit(0))
        if "prop1" in suites:
            self._one_boundary(v, tower, rep)
        if "murphy-commute" in suites:
            self._algebra(v, tower, rep)
        return {"spec0": echo, "results": v.results}

    def _two_boundary(self, v: Verdicts, tower, rep, kit) -> None:
        n = rep.sites
        for p, check, idx, inv in ((n, "prop2/minus", n - 1, False),
                                   (-n, "prop2/minus-opposite", n - 1, True),
                                   (1, "prop2/plus", 0, False),
                                   (-1, "prop2/plus-opposite", 0, True)):
            word = tower.murphy_word("C", idx)
            name = f"J_C[{idx}]" + ("^-1" if inv else "")
            lm = _laurent(transfer.t_two_boundary_direct(rep, kit, p))
            v.edge(f"lowest coefficient of T(p={p}) ~ {name}", lm, True,
                   tower.matrix(oracle.inverse_word(word) if inv else word), check)
            note = v.entry(f"explore/lattice[p={p}]").get("note")
            if note is not None:
                v.record(f"explore note at p={p} names {name}",
                         f"low~{name}" in note.split("; "), [f"explore/lattice[p={p}]"], note)

    def _one_boundary(self, v: Verdicts, tower, rep) -> None:
        n = rep.sites
        lm = _laurent(transfer.build_t_one_boundary(rep, n, cross_check=False).matrix)
        word = tower.murphy_word("B", n - 1)
        span = "[{}, {}]".format(*oracle.degree_span(lm))
        check = f"prop1/degree-span[n={n}]"
        v.record(f"T spans degrees [0, {2 * n}]",
                 span == f"[0, {2 * n}]" == v.entry(check).get("degrees"), [check], span)
        v.edge(f"lowest coefficient of T ~ J_B[{n - 1}]", lm, True, tower.matrix(word),
               f"prop1/low-edge[n={n}]")
        v.edge(f"highest coefficient of T ~ J_B[{n - 1}]^-1", lm, False,
               tower.matrix(oracle.inverse_word(word)), f"prop1/high-edge[n={n}]")
        check = "integrability/commuting-family"
        u0 = Fraction(v.entry(check)["params"]["inhomogeneity"])
        family = _laurent(transfer.t_open_inhomogeneous(
            rep, n, rings.rat(u0.numerator, u0.denominator)))
        rng = random.Random(self.seed)
        x1 = Fraction(rng.randrange(1, 50), rng.randrange(51, 100))
        x2 = Fraction(rng.randrange(51, 100), rng.randrange(1, 50))
        a, b = oracle.evaluate(family, x1), oracle.evaluate(family, x2)
        v.record(f"T({_rat_str(x1)}) and T({_rat_str(x2)}) commute at u0={_rat_str(u0)}",
                 oracle.matmul(a, b) == oracle.matmul(b, a), [check])

    def _algebra(self, v: Verdicts, tower, rep) -> None:
        for family in ("B", "C"):
            bad = tower.noncommuting_pairs(family)
            v.record(f"J_{family} commute pairwise", not bad, [f"murphy-commute/{family}"],
                     str(bad))
            bad = [i for i in range(rep.sites)
                   if _dense(hecke.murphy(rep, family, i))
                   != tower.matrix(tower.murphy_word(family, i))]
            v.record(f"program J_{family} equal the paper's words", not bad,
                     [f"murphy-commute/{family}"], str(bad))
        bad = tower.central_failures()
        v.record("sum of J_C + J_C^-1 commutes with every generator", not bad, ["central/C"],
                 str(bad))


def main() -> int:
    worker = Worker(sys.argv[1], int(sys.argv[2]))
    replies, sys.stdout = sys.stdout, sys.stderr
    for line in sys.stdin:
        cmd = json.loads(line)
        if cmd["cmd"] == "env":
            reply = worker.env()
        elif cmd["cmd"] == "verify":
            reply = worker.verify()
        elif cmd["cmd"] == "trace":
            reply = worker.trace(cmd["spans"])
        elif cmd["cmd"] == "oracle":
            reply = worker.oracle(cmd["report"])
        else:
            raise ValueError(f"unknown command {cmd['cmd']!r}")
        replies.write(json.dumps(reply) + "\n")
        replies.flush()
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
