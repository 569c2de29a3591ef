from fractions import Fraction

import pytest

from heckeverify import build_glN_rep, build_kit
from heckeverify.hecke import murphy, murphy_tower
from heckeverify.params import Params, sample_params
from heckeverify.rings import rat

# A fixed generic-locus specialization used for frozen-value tests.
FIXED = Params(q=rat(3, 5), Q0=rat(2, 7), QN=rat(5, 3),
               x0p=rat(4, 9), x0m=rat(9, 4), xNp=rat(7, 2), xNm=rat(2, 7),
               c_minus=rat(1, 3), c_plus=rat(-2, 5))

SEEDS = (11, 23, 47)


@pytest.fixture(scope="session")
def fixed_params():
    return FIXED


@pytest.fixture(scope="session")
def rep22(fixed_params):
    return build_glN_rep(2, 2, fixed_params)


@pytest.fixture(scope="session")
def rep23(fixed_params):
    return build_glN_rep(2, 3, fixed_params)


@pytest.fixture(scope="session")
def rep32(fixed_params):
    return build_glN_rep(3, 2, fixed_params)


@pytest.fixture(scope="session")
def kit22(rep22):
    return build_kit(rep22)


@pytest.fixture(scope="session")
def kit23(rep23):
    return build_kit(rep23)


@pytest.fixture(scope="session")
def kit32(rep32):
    return build_kit(rep32)


def seeded_params(seed):
    return sample_params(seed)


def murphy_inv(rep, family, i):
    """The inverse of ``murphy(rep, family, i)``, read from the inverse tower."""
    return murphy_tower(rep, family, True)[i - (1 if family == "A" else 0)]


def chain_edges(chain):
    """``chain.murphy_edges`` against ``J[n - 1]`` and its inverse of the
    chain's family: A with the boundary off, B with it on."""
    family, k = ("A" if chain.trivial_k else "B"), chain.n - 1
    return chain.murphy_edges(murphy(chain.rep, family, k), murphy_inv(chain.rep, family, k))


def ref_rref(rows, ncols):
    """Gauss-Jordan on Fractions over the first ``ncols`` columns: normalize
    each pivot row, clear its column.  All rows are returned."""
    a = [[Fraction(x) for x in row] for row in rows]
    pivots = []
    for col in range(ncols):
        r = len(pivots)
        pr = next((i for i in range(r, len(a)) if a[i][col]), None)
        if pr is None:
            continue
        a[r], a[pr] = a[pr], a[r]
        a[r] = [x / a[r][col] for x in a[r]]
        for i in range(len(a)):
            if i != r and a[i][col]:
                f = a[i][col]
                a[i] = [x - f * y for x, y in zip(a[i], a[r])]
        pivots.append(col)
    return a, pivots
