"""Exact-arithmetic verification of boundary Hecke algebra structures and
their double-row transfer matrices."""

from .baxter import build_kit
from .hecke import build_glN_rep, check_relations, murphy
from .params import sample_params
from .tensor import mat_proportional
from .transfer import extract_edges, t_two_boundary_direct

__version__ = "0.1.0"
