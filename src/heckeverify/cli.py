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
from .params import parse_rational, sample_params
from .reporting import (CheckReport, failed, info, render_matrix_dump,
                        render_report)
from .rings import rat_str

DEFAULT_SEED = 101
SPECIALIZATIONS = 3

SUITE_NAMES = [
    "relations", "tl", "murphy-commute", "central", "ybe", "re", "unitarity",
    "crossing", "prop1", "corollary", "prop2", "hamiltonian",
    "commuting-family", "explore-generic",
]

PARAM_NAMES = ("q", "Q0", "QN", "x0p", "x0m", "xNp", "xNm", "c_minus", "c_plus")

_SITE_BOUNDS = {2: 6, 3: 4}


def _check_size(local_dim: int, sites: int) -> None:
    """Reject representations beyond the bounded-time sizes."""
    if local_dim not in _SITE_BOUNDS:
        raise ConfigError(f"local_dim must be one of {sorted(_SITE_BOUNDS)}")
    if not 1 <= sites <= _SITE_BOUNDS[local_dim]:
        raise ConfigError(f"sites for local_dim {local_dim} must be 1..{_SITE_BOUNDS[local_dim]}")


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


def _env_seed() -> int | None:
    """The ``HECKE_SEED`` environment override, if set."""
    value = os.environ.get("HECKE_SEED")
    return None if value is None else _as_int("HECKE_SEED", value)


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
        _check_size(self.local_dim, self.sites)
        if self.family not in hecke.FAMILIES:
            raise ConfigError(f"family must be one of {hecke.FAMILIES}")
        for name in self.overrides:
            if name not in PARAM_NAMES:
                raise ConfigError(f"unknown parameter override {name!r}")
        for name in self.suites:
            if name not in SUITE_NAMES:
                raise ConfigError(f"unknown suite {name!r}")
        # reject override sets violating the locus early, with a clear message
        sample_params(self.seed, self.overrides)

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
    env_seed = _env_seed()
    if env_seed is not None:
        cfg.seed = env_seed
    if seed_override is not None:
        cfg.seed = seed_override
    cfg.validate()
    return cfg


# ---------------------------------------------------------------------------
# execution context
# ---------------------------------------------------------------------------

class SuiteContext:
    """Reps, calibrated kits, two-boundary lattices and one-boundary reports
    per specialization, built lazily and shared."""

    def __init__(self, config: RunConfig):
        self.config = config
        self._reps: dict[int, hecke.HeckeRep] = {}
        self._kits: dict[int, baxter.BaxterKit] = {}
        self._lattices: dict[int, transfer.TwoBoundaryLattice] = {}
        self._one_boundary: dict[int, dict] = {}

    def spec_seed(self, idx: int) -> int:
        return self.config.seed * 1000 + idx

    def rep(self, idx: int) -> hecke.HeckeRep:
        if idx not in self._reps:
            params = sample_params(self.spec_seed(idx), self.config.overrides)
            self._reps[idx] = hecke.build_glN_rep(self.config.local_dim,
                                                  self.config.sites, params)
        return self._reps[idx]

    def kit(self, idx: int) -> baxter.BaxterKit:
        if idx not in self._kits:
            self._kits[idx] = baxter.build_kit(self.rep(idx))
        return self._kits[idx]

    def lattice(self, idx: int) -> transfer.TwoBoundaryLattice:
        if idx not in self._lattices:
            self._lattices[idx] = transfer.TwoBoundaryLattice(self.rep(idx), self.kit(idx))
        return self._lattices[idx]

    def one_boundary(self, idx: int) -> dict[str, list[CheckReport] | HeckeVerifyError]:
        """Reports (or the error raised) of every configured one-boundary
        suite at one specialization, from one ``transfer.one_boundary_pass``."""
        if idx not in self._one_boundary:
            config = self.config
            names = [name for name in transfer.ONE_BOUNDARY_CHECKS
                     if name in config.suites and not _skipped(name, config)]
            self._one_boundary[idx] = transfer.one_boundary_pass(
                transfer.OneBoundaryChain(self.rep(idx), config.sites), names,
                self.spec_seed(idx))
        return self._one_boundary[idx]


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


def _one_boundary_reports(name: str):
    """The check reading suite ``name``'s reports from the one-boundary pass;
    an error the suite raised there is raised again here."""
    def check(ctx: SuiteContext, idx: int) -> list[CheckReport]:
        result = ctx.one_boundary(idx)[name]
        if isinstance(result, HeckeVerifyError):
            raise result
        return result
    return check


def _each_spec(check):
    """The suite running ``check(ctx, idx)`` at every specialization."""
    def suite(ctx: SuiteContext) -> list[CheckReport]:
        return [r for idx in range(SPECIALIZATIONS) for r in check(ctx, idx)]
    return suite


def _murphy_families(config: RunConfig) -> list[str]:
    """Families with at least one Murphy element (A needs two sites)."""
    return [f for f in config.families() if f != "A" or config.sites >= 2]


def _prop2(ctx: SuiteContext, idx: int) -> list[CheckReport]:
    try:
        lattice = ctx.lattice(idx)
    except CalibrationFailure as exc:
        return [failed("prop2/calibration", params=ctx.rep(idx).params.echo(),
                       failure={"relation": str(exc)})]
    return transfer.verify_murphy_two_boundary(lattice)


def _explore_generic(ctx: SuiteContext) -> list[CheckReport]:
    try:
        lattice = ctx.lattice(0)
    except CalibrationFailure as exc:
        return [info("explore/lattice", note=f"calibration unavailable: {exc}")]
    return [r for n in range(1, ctx.config.sites + 1)
            for r in transfer.explore_generic(lattice, n)]


# suite name -> callable(ctx) giving its reports.  run_suite looks an entry up
# when it runs that suite, so a wrapper put in this table (perfbench's tracer
# puts one) takes effect.
_SUITES = {
    "relations": _each_spec(lambda ctx, i: [
        hecke.check_relations(ctx.rep(i), f) for f in ctx.config.families()]),
    "tl": _each_spec(lambda ctx, i: [hecke.check_tl_report(ctx.rep(i))]),
    "murphy-commute": _each_spec(lambda ctx, i: [
        hecke.check_murphy_commutation(ctx.rep(i), f) for f in _murphy_families(ctx.config)]),
    "central": _each_spec(lambda ctx, i: [
        hecke.check_symmetric_commutant(ctx.rep(i), f, 2) for f in _murphy_families(ctx.config)]),
    "ybe": _each_spec(lambda ctx, i: [baxter.check_ybe(ctx.rep(i), seed=ctx.spec_seed(i))]),
    "re": _each_spec(lambda ctx, i: [
        baxter.check_re(ctx.rep(i), end, seed=ctx.spec_seed(i)) for end in ("left", "right")]),
    "unitarity": _each_spec(lambda ctx, i: baxter.check_unitarity(ctx.rep(i))),
    "crossing": _each_spec(lambda ctx, i: [baxter.check_crossing_report(ctx.rep(i))]),
    "prop1": _each_spec(_one_boundary_reports("prop1")),
    "corollary": _each_spec(_one_boundary_reports("corollary")),
    "prop2": _each_spec(_prop2),
    "hamiltonian": _each_spec(_one_boundary_reports("hamiltonian")),
    "commuting-family": _each_spec(_one_boundary_reports("commuting-family")),
    "explore-generic": _explore_generic,
}


def run_suite(config: RunConfig) -> list[CheckReport]:
    """Execute the configured suites in canonical dependency order."""
    config.validate()
    ctx = SuiteContext(config)
    reports: list[CheckReport] = []
    for name in SUITE_NAMES:  # canonical order regardless of request order
        if name not in config.suites:
            continue
        if _skipped(name, config):
            reports.append(info(_SKIPS[name][1], note=_SKIPS[name][2]))
            continue
        try:
            reports.extend(_SUITES[name](ctx))
        except HeckeVerifyError as exc:
            reports.append(failed(f"{name}/error", failure={"relation": str(exc)}))
    return reports


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
    _check_size(args.local_dim, args.sites)
    seed = args.seed if args.seed is not None else _env_seed()
    if seed is None:
        seed = DEFAULT_SEED
    params = sample_params(seed * 1000)
    return hecke.build_glN_rep(args.local_dim, args.sites, params)


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
