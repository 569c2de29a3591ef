import pytest

from heckeverify import build_glN_rep, build_kit
from heckeverify.hecke import murphy, murphy_inverse
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


def chain_edges(chain):
    """``chain.murphy_edges`` against ``J[n - 1]`` and its inverse of the
    chain's family: A with the boundary off, B with it on."""
    family, k = ("A" if chain.trivial_k else "B"), chain.n - 1
    return chain.murphy_edges(murphy(chain.rep, family, k), murphy_inverse(chain.rep, family, k))
