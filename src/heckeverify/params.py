"""Structural parameters and seeded sampling on the generic locus.

All identities checked by the library are polynomial in the structural
parameters, so verifying them at several independent rational
specializations on the generic locus (nonzero, pairwise distinct,
deformation parameters away from +-1) gives Schwartz-Zippel-style
confidence without a multivariate polynomial ring.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, fields

from .errors import ConfigError
from .rings import Rational, rat, rat_str

MAX_MAGNITUDE = 97  # numerators/denominators stay below this bound


@dataclass(frozen=True)
class Params:
    """Exact structural parameters of one specialization."""

    q: Rational
    Q0: Rational
    QN: Rational
    x0p: Rational
    x0m: Rational
    xNp: Rational
    xNm: Rational
    c_minus: Rational
    c_plus: Rational

    def echo(self) -> dict[str, str]:
        return {name: rat_str(getattr(self, name)) for name in PARAM_NAMES}


PARAM_NAMES = tuple(f.name for f in fields(Params))


def parse_rational(text: str) -> Rational:
    """Parse ``"p/q"`` or ``"p"`` into an exact rational."""
    parts = text.strip().split("/")
    try:
        if len(parts) == 1:
            return rat(int(parts[0]))
        if len(parts) == 2:
            num, den = int(parts[0]), int(parts[1])
            if den == 0:
                raise ConfigError(f"zero denominator in {text!r}")
            return rat(num, den)
    except ValueError as exc:
        raise ConfigError(f"malformed rational {text!r}") from exc
    raise ConfigError(f"malformed rational {text!r}")


def _draw(rng: random.Random) -> Rational:
    num = rng.randrange(1, MAX_MAGNITUDE + 1) * rng.choice((1, -1))
    den = rng.randrange(1, MAX_MAGNITUDE + 1)
    return rat(num, den)


def _deformation_ok(x: Rational) -> bool:
    return x != 0 and x != 1 and x != -1


def _nonzero(x: Rational) -> bool:
    return x != 0


# the sampled parameters in draw order, with their locus predicates; each
# must also differ from every one before it
_SAMPLED = (("q", _deformation_ok), ("Q0", _deformation_ok), ("QN", _deformation_ok),
            ("x0p", _nonzero), ("xNp", _nonzero), ("c_minus", _nonzero), ("c_plus", _nonzero))


def sample_params(seed: int, overrides: dict[str, Rational] | None = None) -> Params:
    """Deterministic generic-locus specialization for the given seed.

    Overridden values are taken as given (after validation); the remaining
    parameters are rejection-sampled until the locus constraints hold:
    everything nonzero, ``q, Q0, QN`` away from ``+-1`` and pairwise
    distinct, and ``x+ x- = 1`` at both boundaries.
    """
    overrides = overrides or {}
    rng = random.Random(seed)
    chosen: dict[str, Rational] = {}
    for name, ok in _SAMPLED:
        def fresh(v: Rational) -> bool:
            return ok(v) and v not in chosen.values()
        if name in overrides:
            val = overrides[name]
            if not fresh(val):
                raise ConfigError(f"override {name}={rat_str(val)} violates the generic locus")
        else:
            for _ in range(10_000):
                val = _draw(rng)
                if fresh(val):
                    break
            else:
                raise ConfigError(f"could not sample {name} on the generic locus")
        chosen[name] = val

    x0m = overrides.get("x0m", rat(1) / chosen["x0p"])
    xNm = overrides.get("xNm", rat(1) / chosen["xNp"])
    if chosen["x0p"] * x0m != 1 or chosen["xNp"] * xNm != 1:
        raise ConfigError("boundary parameters must satisfy x+ * x- = 1")
    return Params(**chosen, x0m=x0m, xNm=xNm)
