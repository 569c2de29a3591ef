"""Suite orchestration, configuration, and the command line interface."""

from __future__ import annotations

import argparse
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
        if self.local_dim not in _SITE_BOUNDS:
            raise ConfigError(f"local_dim must be one of {sorted(_SITE_BOUNDS)}")
        if not 1 <= self.sites <= _SITE_BOUNDS[self.local_dim]:
            raise ConfigError(
                f"sites for local_dim {self.local_dim} must be 1..{_SITE_BOUNDS[self.local_dim]}")
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
    with open(path, "rb") as fh:
        blob = fh.read()
    if path.endswith(".toml"):
        try:
            import tomllib  # Python >= 3.11
        except ImportError:  # pragma: no cover - depends on interpreter
            try:
                import tomli as tomllib
            except ImportError as exc:
                raise ConfigError("TOML config needs Python 3.11+ or tomli") from exc
        return tomllib.loads(blob.decode("utf-8"))
    return json.loads(blob.decode("utf-8"))


def config_from_dict(data: dict, seed_override: int | None = None) -> RunConfig:
    cfg = RunConfig()
    if "local_dim" in data:
        cfg.local_dim = int(data["local_dim"])
    if "sites" in data:
        cfg.sites = int(data["sites"])
    if "family" in data:
        cfg.family = str(data["family"])
    if "seed" in data:
        cfg.seed = int(data["seed"])
    if "suites" in data:
        cfg.suites = list(data["suites"])
    if "out" in data:
        cfg.out = data["out"]
    for name in PARAM_NAMES:
        if name in data:
            cfg.overrides[name] = parse_rational(str(data[name]))
    env_seed = os.environ.get("HECKE_SEED")
    if env_seed is not None:
        cfg.seed = int(env_seed)
    if seed_override is not None:
        cfg.seed = seed_override
    cfg.validate()
    return cfg


# ---------------------------------------------------------------------------
# execution context
# ---------------------------------------------------------------------------

class SuiteContext:
    """Reps, calibrated kits and two-boundary lattices per specialization,
    built lazily and shared."""

    def __init__(self, config: RunConfig):
        self.config = config
        self._reps: dict[int, hecke.HeckeRep] = {}
        self._kits: dict[int, baxter.BaxterKit] = {}
        self._lattices: dict[int, transfer.TwoBoundaryLattice] = {}

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


def _suite_relations(ctx: SuiteContext) -> list[CheckReport]:
    out = []
    for idx in range(SPECIALIZATIONS):
        rep = ctx.rep(idx)
        for family in ctx.config.families():
            out.append(hecke.check_relations(rep, family))
    return out


def _suite_tl(ctx: SuiteContext) -> list[CheckReport]:
    if ctx.config.local_dim != 2 or ctx.config.sites < 2:
        return [info("tl/quotient",
                     note="skipped: quotient relations need local dim 2 and >= 2 sites")]
    return [hecke.check_tl_report(ctx.rep(idx)) for idx in range(SPECIALIZATIONS)]


def _suite_murphy_commute(ctx: SuiteContext) -> list[CheckReport]:
    out = []
    for idx in range(SPECIALIZATIONS):
        rep = ctx.rep(idx)
        for family in ctx.config.families():
            if family == "A" and rep.sites < 2:
                continue
            out.append(hecke.check_murphy_commutation(rep, family))
    return out


def _suite_central(ctx: SuiteContext) -> list[CheckReport]:
    out = []
    for idx in range(SPECIALIZATIONS):
        rep = ctx.rep(idx)
        for family in ctx.config.families():
            if family == "A" and rep.sites < 2:
                continue
            out.append(hecke.check_symmetric_commutant(rep, family, 2))
    return out


def _suite_ybe(ctx: SuiteContext) -> list[CheckReport]:
    return [baxter.check_ybe(ctx.rep(idx), seed=ctx.spec_seed(idx))
            for idx in range(SPECIALIZATIONS)]


def _suite_re(ctx: SuiteContext) -> list[CheckReport]:
    out = []
    for idx in range(SPECIALIZATIONS):
        rep = ctx.rep(idx)
        out.append(baxter.check_re(rep, "left", seed=ctx.spec_seed(idx)))
        out.append(baxter.check_re(rep, "right", seed=ctx.spec_seed(idx)))
    return out


def _suite_unitarity(ctx: SuiteContext) -> list[CheckReport]:
    out = []
    for idx in range(SPECIALIZATIONS):
        out.extend(baxter.check_unitarity(ctx.rep(idx)))
    return out


def _suite_crossing(ctx: SuiteContext) -> list[CheckReport]:
    return [baxter.check_crossing_report(ctx.rep(idx))
            for idx in range(SPECIALIZATIONS)]


def _suite_prop1(ctx: SuiteContext) -> list[CheckReport]:
    out = []
    for idx in range(SPECIALIZATIONS):
        rep = ctx.rep(idx)
        out.append(transfer.check_aux_trace(rep, rep.sites))
        out.extend(transfer.verify_murphy_edges_one_boundary(rep, rep.sites))
    return out


def _suite_corollary(ctx: SuiteContext) -> list[CheckReport]:
    if ctx.config.sites < 2:
        return [info("corollary/low-edge", note="skipped: needs at least 2 sites")]
    out = []
    for idx in range(SPECIALIZATIONS):
        rep = ctx.rep(idx)
        out.extend(transfer.verify_murphy_edges_one_boundary(rep, rep.sites,
                                                             trivial_k=True))
    return out


def _suite_prop2(ctx: SuiteContext) -> list[CheckReport]:
    out = []
    for idx in range(SPECIALIZATIONS):
        rep = ctx.rep(idx)
        try:
            lattice = ctx.lattice(idx)
        except CalibrationFailure as exc:
            out.append(failed("prop2/calibration", params=rep.params.echo(),
                              failure={"relation": str(exc)}))
            continue
        out.extend(transfer.verify_murphy_two_boundary(lattice))
    return out


def _suite_hamiltonian(ctx: SuiteContext) -> list[CheckReport]:
    if ctx.config.sites < 2:
        return [info("hamiltonian/span", note="skipped: needs at least 2 sites")]
    out = []
    for idx in range(SPECIALIZATIONS):
        out.extend(transfer.check_hamiltonian(ctx.rep(idx), ctx.config.sites,
                                              seed=ctx.spec_seed(idx)))
    return out


def _suite_commuting_family(ctx: SuiteContext) -> list[CheckReport]:
    return [transfer.check_commuting_family(ctx.rep(idx), ctx.config.sites,
                                            seed=ctx.spec_seed(idx))
            for idx in range(SPECIALIZATIONS)]


def _suite_explore_generic(ctx: SuiteContext) -> list[CheckReport]:
    out = []
    rep = ctx.rep(0)
    try:
        lattice = ctx.lattice(0)
    except CalibrationFailure as exc:
        return [info("explore/lattice", note=f"calibration unavailable: {exc}")]
    candidates = transfer.murphy_candidates(rep)
    for n in range(1, rep.sites + 1):
        out.extend(transfer.explore_generic(lattice, n, candidates))
    return out


_SUITES = {
    "relations": _suite_relations,
    "tl": _suite_tl,
    "murphy-commute": _suite_murphy_commute,
    "central": _suite_central,
    "ybe": _suite_ybe,
    "re": _suite_re,
    "unitarity": _suite_unitarity,
    "crossing": _suite_crossing,
    "prop1": _suite_prop1,
    "corollary": _suite_corollary,
    "prop2": _suite_prop2,
    "hamiltonian": _suite_hamiltonian,
    "commuting-family": _suite_commuting_family,
    "explore-generic": _suite_explore_generic,
}


def run_suite(config: RunConfig) -> list[CheckReport]:
    """Execute the configured suites in canonical dependency order."""
    config.validate()
    ctx = SuiteContext(config)
    reports: list[CheckReport] = []
    for name in SUITE_NAMES:  # canonical order regardless of request order
        if name not in config.suites:
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
    reports = run_suite(cfg)
    text = render_report(reports, cfg.echo())
    if cfg.out:
        with open(cfg.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    n_fail = sum(1 for r in reports if r.status == "fail")
    n_pass = sum(1 for r in reports if r.status == "pass")
    print(f"# {n_pass} passed, {n_fail} failed, "
          f"{len(reports) - n_pass - n_fail} informational", file=sys.stderr)
    return 1 if n_fail else 0


def _default_rep(args) -> hecke.HeckeRep:
    seed = args.seed if args.seed is not None else DEFAULT_SEED
    env_seed = os.environ.get("HECKE_SEED")
    if args.seed is None and env_seed is not None:
        seed = int(env_seed)
    params = sample_params(seed * 1000)
    return hecke.build_glN_rep(args.local_dim, args.sites, params)


def _cmd_murphy(args) -> int:
    rep = _default_rep(args)
    m = hecke.murphy(rep, args.family, args.n)
    text = render_matrix_dump(m)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0


def _cmd_dump(args) -> int:
    rep = _default_rep(args)
    if args.object == "t_open":
        m = transfer.build_t_one_boundary(rep, rep.sites, cross_check=False).matrix
    else:
        mode = "minus" if args.object == "t_minus" else "plus"
        m = transfer.t_two_boundary_factorized(rep, mode)
    text = render_matrix_dump(m)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
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
