"""Suite orchestration, configuration, and the command line interface."""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import sys
from dataclasses import dataclass, field

from . import baxter, hecke, transfer
from .errors import CalibrationFailure, ConfigError, HeckeVerifyError
from .params import PARAM_NAMES, parse_rational, sample_params
from .reporting import (CheckReport, failed, info, render_matrix_dump,
                        render_report)
from .rings import rat_str
from .tensor import PolyMatrix

DEFAULT_SEED = 101
SPECIALIZATIONS = 3

SUITE_NAMES = [
    "relations", "tl", "murphy-commute", "central", "ybe", "re", "unitarity",
    "crossing", "prop1", "corollary", "prop2", "hamiltonian",
    "commuting-family", "explore-generic", "condition2", "factorized", "degeneration",
]

CONFIG_KEYS = ("local_dim", "sites", "seed", "family", "suites", "out", *PARAM_NAMES)

_SITE_BOUNDS = {2: 6, 3: 4}


def _as_int(name: str, value) -> int:
    """A non-bool ``int``, or a decimal-integer string; nothing else (a float
    or a bool would be truncated or read as 0/1 silently)."""
    if isinstance(value, int) and not isinstance(value, bool):
        return value
    if isinstance(value, str):
        try:
            return int(value)
        except ValueError:
            pass
    raise ConfigError(f"{name} must be an integer, got {value!r}")


def _as_str(name: str, value) -> str:
    """A string; a number is not a file descriptor or a name."""
    if not isinstance(value, str):
        raise ConfigError(f"{name} must be a string, got {value!r}")
    return value


@dataclass
class RunConfig:
    local_dim: int = 2
    sites: int = 3
    family: str = "C"
    seed: int = DEFAULT_SEED
    overrides: dict = field(default_factory=dict)
    suites: list[str] = field(default_factory=lambda: list(SUITE_NAMES))
    out: str | None = None

    def validate(self) -> None:
        # representations beyond the bounded-time sizes are rejected
        bound = _SITE_BOUNDS.get(self.local_dim)
        if bound is None:
            raise ConfigError(f"local_dim must be one of {sorted(_SITE_BOUNDS)}")
        if not 1 <= self.sites <= bound:
            raise ConfigError(f"sites for local_dim {self.local_dim} must be 1..{bound}")
        if self.family not in hecke.FAMILIES:
            raise ConfigError(f"family must be one of {hecke.FAMILIES}")
        for name in self.overrides:
            if name not in PARAM_NAMES:
                raise ConfigError(f"unknown parameter override {name!r}")
        for name in self.suites:
            if name not in SUITE_NAMES:
                raise ConfigError(f"unknown suite {name!r}")
        # an empty list would verify nothing; a repeat would echo a suite run once
        if not self.suites or len(set(self.suites)) != len(self.suites):
            raise ConfigError(f"suites must be a non-empty list of distinct suite names, "
                              f"got {self.suites!r}")
        # reject overrides off the locus at any specialization, with a clear message
        for idx in range(SPECIALIZATIONS):
            sample_params(self.spec_seed(idx), self.overrides)

    def spec_seed(self, idx: int) -> int:
        """The seed of specialization ``idx``'s parameters and sample points."""
        return self.seed * 1000 + idx

    def families(self) -> tuple[str, ...]:
        """The family tag selects a level of the tower A < B < C; every
        family up to it is verified."""
        return hecke.FAMILIES[:hecke.FAMILIES.index(self.family) + 1]

    def echo(self) -> dict:
        return {
            "local_dim": self.local_dim,
            "sites": self.sites,
            "family": self.family,
            "seed": self.seed,
            "overrides": {k: rat_str(v) for k, v in sorted(self.overrides.items())},
            "suites": list(self.suites),
        }


def load_config(path: str) -> dict:
    """The table of a JSON or (by the ``.toml`` suffix) TOML config file; an
    unreadable or malformed file, or one that is not a table, is a
    ConfigError."""
    try:
        with open(path, "rb") as fh:
            text = fh.read().decode("utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    if path.endswith(".toml"):
        try:
            import tomllib  # Python >= 3.11
        except ImportError:  # pragma: no cover - depends on interpreter
            try:
                import tomli as tomllib
            except ImportError as exc:
                raise ConfigError("TOML config needs Python 3.11+ or tomli") from exc
        parse, malformed = tomllib.loads, tomllib.TOMLDecodeError
    else:
        parse, malformed = json.loads, json.JSONDecodeError
    try:
        data = parse(text)
    except malformed as exc:
        raise ConfigError(f"malformed config {path}: {exc}") from exc
    if not isinstance(data, dict):
        raise ConfigError(f"config {path} must hold a table of keys, "
                          f"not {type(data).__name__}")
    return data


def config_from_dict(data: dict, seed_override: int | None = None) -> RunConfig:
    """The validated config of ``data``; a key outside ``CONFIG_KEYS`` is a
    ConfigError, not a key silently dropped."""
    unknown = sorted(set(data) - set(CONFIG_KEYS))
    if unknown:
        raise ConfigError(f"unknown config keys {unknown}")
    cfg = RunConfig()
    for name in ("local_dim", "sites", "seed"):
        if name in data:
            setattr(cfg, name, _as_int(name, data[name]))
    if "family" in data:
        cfg.family = _as_str("family", data["family"])
    if "suites" in data:
        suites = data["suites"]
        if not isinstance(suites, list):
            raise ConfigError(f"suites must be a list of suite names, got {suites!r}")
        cfg.suites = [_as_str("suite name", name) for name in suites]
    if "out" in data:
        cfg.out = _as_str("out", data["out"])
    for name in PARAM_NAMES:
        if name in data:
            cfg.overrides[name] = parse_rational(str(data[name]))
    env_seed = os.environ.get("HECKE_SEED")
    if env_seed is not None:
        cfg.seed = _as_int("HECKE_SEED", env_seed)
    if seed_override is not None:
        cfg.seed = seed_override
    cfg.validate()
    return cfg


# ---------------------------------------------------------------------------
# execution context
# ---------------------------------------------------------------------------

class SuiteContext:
    """The representation, calibrated kit, Murphy towers, two-boundary
    lattice and one-boundary chain of each specialization, built on first
    use and shared by the suites.  ``run_suite`` takes a fresh context per
    specialization, so one specialization's objects are alive at a time."""

    def __init__(self, config: RunConfig):
        self.config = config
        self._built: dict[tuple, object] = {}

    def _memo(self, kind: str, idx: int, build):
        if (kind, idx) not in self._built:
            self._built[kind, idx] = build()
        return self._built[kind, idx]

    def rep(self, idx: int) -> hecke.HeckeRep:
        config = self.config
        return self._memo("rep", idx, lambda: hecke.build_glN_rep(
            config.local_dim, config.sites,
            sample_params(config.spec_seed(idx), config.overrides)))

    def tower(self, idx: int, family: str, inverse: bool = False) -> list[PolyMatrix]:
        """The family's Murphy elements (``hecke.murphy_tower``), or their
        inverses with ``inverse``, in index order."""
        return self._memo(("tower", family, inverse), idx,
                          lambda: hecke.murphy_tower(self.rep(idx), family, inverse))

    def kit(self, idx: int) -> baxter.Pencil:
        return self._memo("kit", idx, lambda: baxter.build_kit(self.rep(idx)))

    def lattice(self, idx: int) -> transfer.TwoBoundaryLattice:
        return self._memo("lattice", idx,
                          lambda: transfer.TwoBoundaryLattice(self.rep(idx), self.kit(idx)))

    def chain(self, idx: int, trivial_k: bool = False) -> transfer.OneBoundaryChain:
        """The chain on all sites, kept with the boundary on."""
        def build():
            return transfer.OneBoundaryChain(self.rep(idx), self.config.sites, trivial_k)
        return build() if trivial_k else self._memo("chain", idx, build)


# suite name -> (test, check name, note): run_suite gives a config passing
# ``test`` one ``info`` report instead of the suite
_SKIPS = {
    "tl": (lambda cfg: cfg.local_dim != 2 or cfg.sites < 2, "tl/quotient",
           "skipped: quotient relations need local dim 2 and >= 2 sites"),
    "corollary": (lambda cfg: cfg.sites < 2, "corollary/low-edge",
                  "skipped: needs at least 2 sites"),
    "hamiltonian": (lambda cfg: cfg.sites < 2, "hamiltonian/span",
                    "skipped: needs at least 2 sites"),
}


def _skipped(name: str, config: RunConfig) -> bool:
    return name in _SKIPS and _SKIPS[name][0](config)


def _murphy_families(config: RunConfig) -> list[str]:
    """Families with at least one Murphy element (A needs two sites)."""
    return [f for f in config.families() if f != "A" or config.sites >= 2]


def _calibrated(tag: str, check):
    """``check(ctx, idx)`` with a failing calibration of the kit it reads
    reported as the failed check ``<tag>/calibration``."""
    def run(ctx: SuiteContext, idx: int) -> list[CheckReport]:
        try:
            return check(ctx, idx)
        except CalibrationFailure as exc:
            return [failed(f"{tag}/calibration", params=hecke._echo(ctx.rep(idx)),
                           failure={"relation": str(exc)})]
    return run


def _edge_elements(ctx: SuiteContext, idx: int, family: str) -> tuple[PolyMatrix, PolyMatrix]:
    """``J[N - 1]`` of the family and its inverse: the last tower entries."""
    return ctx.tower(idx, family)[-1], ctx.tower(idx, family, True)[-1]


def _explore_generic(ctx: SuiteContext, idx: int) -> list[CheckReport]:
    """The lattice theorem at every ``p = +-1..+-N``, at the first
    specialization only."""
    if idx > 0:
        return []
    lattice, towers = ctx.lattice(idx), (ctx.tower(idx, "C"), ctx.tower(idx, "C", True))
    return [r for n in range(1, ctx.config.sites + 1)
            for r in transfer.explore_generic(lattice, n, *towers)]


# suite name -> callable(ctx, idx) giving its reports at specialization idx.
# run_suite looks an entry up each time it runs that suite, so a wrapper put
# in this table (perfbench's tracer puts one) takes effect.
_SUITES = {
    "relations": lambda ctx, i: [
        hecke.check_relations(ctx.rep(i), f) for f in ctx.config.families()],
    "tl": lambda ctx, i: [hecke.check_tl_report(ctx.rep(i))],
    "murphy-commute": lambda ctx, i: [
        hecke.check_murphy_commutation(ctx.rep(i), f, ctx.tower(i, f))
        for f in _murphy_families(ctx.config)],
    "central": lambda ctx, i: [
        hecke.check_symmetric_commutant(
            ctx.rep(i), f, ctx.tower(i, f) + (ctx.tower(i, f, True) if f == "C" else []))
        for f in _murphy_families(ctx.config)],
    "ybe": lambda ctx, i: [baxter.check_ybe(ctx.rep(i), seed=ctx.config.spec_seed(i))],
    "re": lambda ctx, i: [baxter.check_re(ctx.rep(i), end, seed=ctx.config.spec_seed(i))
                          for end in ("left", "right")],
    "unitarity": lambda ctx, i: baxter.check_unitarity(ctx.rep(i)),
    "crossing": lambda ctx, i: [baxter.check_crossing_report(ctx.rep(i))],
    "prop1": lambda ctx, i: [ctx.chain(i).check_aux_trace(),
                             *ctx.chain(i).murphy_edges(*_edge_elements(ctx, i, "B"))],
    "corollary": lambda ctx, i: ctx.chain(i, trivial_k=True).murphy_edges(
        *_edge_elements(ctx, i, "A")),
    "prop2": _calibrated("prop2", lambda ctx, i: transfer.verify_murphy_two_boundary(
        ctx.lattice(i), ctx.tower(i, "C"), ctx.tower(i, "C", True))),
    "hamiltonian": lambda ctx, i: ctx.chain(i).check_hamiltonian(),
    "commuting-family": lambda ctx, i: [
        ctx.chain(i).check_commuting_family(ctx.config.spec_seed(i))],
    "explore-generic": _calibrated("explore", _explore_generic),
    "condition2": _calibrated("condition2", lambda ctx, i: baxter.check_condition2(
        ctx.rep(i), ctx.kit(i))),
    "factorized": _calibrated("factorized", lambda ctx, i: transfer.check_factorized(
        ctx.lattice(i))),
    "degeneration": lambda ctx, i: [transfer.check_degeneration(
        hecke.scalar_right(ctx.rep(i)), ctx.chain(i), ctx.tower(i, "B")[-1])],
}


def run_suite(config: RunConfig) -> list[CheckReport]:
    """Execute the configured suites in canonical order, one specialization
    at a time on a fresh ``SuiteContext``.  A suite's reports come in
    specialization order; a suite raising HeckeVerifyError gives the one
    report ``<name>/error`` instead and is not run again."""
    config.validate()
    suites = [name for name in SUITE_NAMES if name in config.suites]
    done = {name for name in suites if _skipped(name, config)}   # or raised earlier
    reports = {name: [info(_SKIPS[name][1], note=_SKIPS[name][2])] if name in done else []
               for name in suites}
    for idx in range(SPECIALIZATIONS):
        ctx = SuiteContext(config)
        for name in suites:
            if name in done:
                continue
            try:
                reports[name] += _SUITES[name](ctx, idx)
            except HeckeVerifyError as exc:
                reports[name] = [failed(f"{name}/error", failure={"relation": str(exc)})]
                done.add(name)
    return [r for name in suites for r in reports[name]]


# ---------------------------------------------------------------------------
# command line
# ---------------------------------------------------------------------------

def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--local-dim", type=int, default=2)
    parser.add_argument("--sites", type=int, default=3)
    parser.add_argument("--seed", type=int, default=None)


def _cmd_suite(args) -> int:
    data = load_config(args.config) if args.config else {}
    cfg = config_from_dict(data, seed_override=args.seed)
    if args.out:
        cfg.out = args.out
    with _output(cfg.out) as out:
        reports = run_suite(cfg)
        out.write(render_report(reports, cfg.echo()))
    n_fail = sum(1 for r in reports if r.status == "fail")
    n_pass = sum(1 for r in reports if r.status == "pass")
    print(f"# {n_pass} passed, {n_fail} failed, "
          f"{len(reports) - n_pass - n_fail} informational", file=sys.stderr)
    return 1 if n_fail else 0


def _output(path: str | None):
    """``path`` opened for writing, or stdout without one.  Commands open it
    before any work, so an unwritable path is a ConfigError up front."""
    if not path:
        return contextlib.nullcontext(sys.stdout)
    try:
        return open(path, "w", encoding="utf-8")
    except OSError as exc:
        raise ConfigError(f"cannot write {path}: {exc.strerror}") from exc


def _default_rep(args) -> hecke.HeckeRep:
    """The first specialization of the config ``--local-dim``, ``--sites``
    and ``--seed`` give, as ``suite`` builds it."""
    config = config_from_dict({"local_dim": args.local_dim, "sites": args.sites},
                              seed_override=args.seed)
    return SuiteContext(config).rep(0)


def _cmd_murphy(args) -> int:
    rep = _default_rep(args)
    with _output(args.out) as out:
        out.write(render_matrix_dump(hecke.murphy(rep, args.family, args.n)))
    return 0


def _cmd_dump(args) -> int:
    rep = _default_rep(args)
    with _output(args.out) as out:
        if args.object == "t_open":
            m = transfer.t_open_factorized(rep, rep.sites)
        else:
            mode = "minus" if args.object == "t_minus" else "plus"
            m = transfer.t_two_boundary_factorized(rep, mode)
        out.write(render_matrix_dump(m))
    return 0


def _cmd_calibrate(args) -> int:
    rep = _default_rep(args)
    chi, ratio = baxter.calibrate_crossing(rep)
    print(f"crossing_unit = {rat_str(chi)}")
    print(f"crossing_ratio = {ratio}")
    kit = baxter.build_kit(rep)
    for rep_line in baxter.check_condition2(rep, kit):
        print(f"{rep_line.check_name}: {rep_line.status}"
              + (f" ratio={rep_line.ratio}" if rep_line.ratio else ""))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="heckeverify",
        description="Exact verification of boundary Hecke algebra transfer-matrix identities")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("suite", help="run verification suites")
    p.add_argument("--config", help="JSON or TOML config file")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--out", help="write the canonical JSON report here")
    p.set_defaults(func=_cmd_suite)

    p = sub.add_parser("murphy", help="dump a Murphy element matrix")
    p.add_argument("--family", choices=("A", "B", "C"), required=True)
    p.add_argument("--n", type=int, required=True, help="element index")
    _add_common(p)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_murphy)

    p = sub.add_parser("dump", help="dump a transfer matrix")
    p.add_argument("--object", choices=("t_minus", "t_plus", "t_open"), required=True)
    _add_common(p)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_dump)

    p = sub.add_parser("calibrate", help="run the crossing and boundary calibrations")
    _add_common(p)
    p.set_defaults(func=_cmd_calibrate)

    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except HeckeVerifyError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
