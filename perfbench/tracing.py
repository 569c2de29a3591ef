"""Span tracer installed around the program's public functions from outside.

``Tracer.install()`` replaces each traced function by a wrapper in every
``heckeverify`` module namespace that holds it, so a name that one module
imports from another is wrapped where the caller looks it up.  Each call
records a span ``(name, start, end, parent)``; spans stay in memory until
``write``.  A few wrappers also count work at the call (coefficient
products per matrix product, result sizes), outside the span's own time.
``uninstall()`` restores every original reference.

The per-entry kernel ``rings._mul_into`` is not wrapped: it runs millions
of times, and its time is the self time of ``tensor.matmul``.
"""

from __future__ import annotations

import inspect
import json
import sys
import time
from collections import defaultdict

from heckeverify.cli import SUITE_NAMES

# module -> its traced public functions; None traces all of them
_TRACED = {"transfer": None, "baxter": None, "hecke": None, "tensor": None,
           "rings": ("lp_ratio", "lp_proportional"), "reporting": ("render_report",)}
_TRACED_METHODS = ("_matmul", "evaluate", "partial_trace_first")   # of tensor.PolyMatrix

# metric group -> span names; a group's time counts only its outermost spans
GROUPS = {
    "transfer.two_boundary": ("transfer.t_two_boundary_direct",),
    "transfer.one_boundary": ("transfer.t_open_direct", "transfer.t_open_factorized",
                              "transfer.t_open_inhomogeneous"),
    "transfer.hamiltonian": ("transfer.hamiltonian",),
    "transfer.extract_edges": ("transfer.extract_edges",),
    "baxter.build_kit": ("baxter.build_kit",),
    "baxter.checks": ("baxter.check_ybe", "baxter.check_re", "baxter.check_unitarity",
                      "baxter.check_crossing_report"),
    "hecke.build_rep": ("hecke.build_glN_rep",),
    "hecke.murphy": ("hecke.murphy", "hecke.murphy_inverse"),
    "hecke.checks": ("hecke.check_relations", "hecke.check_tl_report",
                     "hecke.check_murphy_commutation", "hecke.check_symmetric_commutant"),
    "tensor.matmul": ("tensor.PolyMatrix._matmul",),
    "tensor.proportional": ("tensor.mat_proportional",),
    "tensor.embed": ("tensor.embed_pair", "tensor.embed_site", "tensor.embed",
                     "tensor.kron", "tensor.permutation_pair"),
    "tensor.partial_trace": ("tensor.PolyMatrix.partial_trace_first",),
    "tensor.evaluate": ("tensor.PolyMatrix.evaluate",),
    "tensor.linalg": ("tensor.nullspace", "tensor.lin_solve"),
    "rings.lp_ratio": ("rings.lp_ratio",),
    "reporting.render": ("reporting.render_report",),
}
LAYERS = ("cli", "transfer", "baxter", "hecke", "tensor")


def _coeff_bits(matrix) -> int:
    bits = 0
    for row in matrix.rows.values():
        for poly in row.values():
            for c in poly.terms.values():
                bits = max(bits, int(c.numerator).bit_length(), int(c.denominator).bit_length())
    return bits


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.spans: list = []
        self._stack: list[int] = []
        self._patches: list = []   # (namespace, key, original)
        self.coeff_mults = 0
        self.peak_nnz = 0
        self.max_coeff_bits = 0
        self.two_boundary_keys: list = []
        self.max_degree_span = 0

    # -- wrapping -------------------------------------------------------
    def _wrap(self, name: str, fn, after=None):
        name_id = self._name_ids.setdefault(name, len(self._name_ids))
        if name_id == len(self.names):
            self.names.append(name)
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                spans[idx] = (name_id, t0, clock(), parent)
                stack.pop()
            if after is not None:
                after(args, result)
            return result

        return traced

    def _patch(self, namespace, key, new) -> None:
        self._patches.append((namespace, key, namespace[key]))
        namespace[key] = new

    def install(self) -> None:
        mods = {name: mod for name, mod in sys.modules.items()
                if name.startswith("heckeverify.") and mod is not None}
        hooks = {"tensor.PolyMatrix._matmul": self._after_matmul,
                 "transfer.t_two_boundary_direct": self._after_two_boundary,
                 "transfer.t_open_direct": self._after_transfer,
                 "transfer.t_open_factorized": self._after_transfer,
                 "transfer.t_open_inhomogeneous": self._after_transfer}
        for layer, only in _TRACED.items():
            mod = mods[f"heckeverify.{layer}"]
            for attr, fn in list(vars(mod).items()):
                if (not inspect.isfunction(fn) or fn.__module__ != mod.__name__
                        or attr.startswith("_") or (only and attr not in only)):
                    continue
                name = f"{layer}.{attr}"
                wrapped = self._wrap(name, fn, hooks.get(name))
                for other in mods.values():
                    ns = vars(other)
                    for key, val in list(ns.items()):
                        if val is fn:
                            self._patch(ns, key, wrapped)
        cls = mods["heckeverify.tensor"].PolyMatrix
        for meth in _TRACED_METHODS:
            name = f"tensor.PolyMatrix.{meth}"
            fn = cls.__dict__[meth]
            self._patches.append((cls, meth, fn))
            setattr(cls, meth, self._wrap(name, fn, hooks.get(name)))
        cli = mods["heckeverify.cli"]
        self._patch(vars(cli), "run_suite", self._wrap("cli.run_suite", cli.run_suite))
        for suite, fn in list(cli._SUITES.items()):
            self._patch(cli._SUITES, suite, self._wrap(f"cli.suite.{suite}", fn))

    def uninstall(self) -> None:
        for target, key, original in reversed(self._patches):
            if isinstance(target, type):
                setattr(target, key, original)
            else:
                target[key] = original
        self._patches.clear()

    # -- counters -------------------------------------------------------
    def _after_matmul(self, args, result) -> None:
        a, b = args
        row_terms = {k: sum(len(v.terms) for v in row.values()) for k, row in b.rows.items()}
        self.coeff_mults += sum(len(v.terms) * row_terms.get(k, 0)
                                for row in a.rows.values() for k, v in row.items())
        self.peak_nnz = max(self.peak_nnz, result.nnz)

    def _after_transfer(self, args, result) -> None:
        self.max_coeff_bits = max(self.max_coeff_bits, _coeff_bits(result))

    def _after_two_boundary(self, args, result) -> None:
        rep, _kit, p = args
        self.two_boundary_keys.append(
            (rep.params, rep.local_dim, rep.sites, rep.degenerate_right, p))
        if not result.is_zero:
            self.max_degree_span = max(self.max_degree_span,
                                       result.max_degree() - result.min_degree())
        self._after_transfer(args, result)

    # -- results --------------------------------------------------------
    def metrics(self) -> dict[str, float]:
        """Per-layer metrics from the recorded spans and counters."""
        names = self.names
        child_time = [0.0] * len(self.spans)
        for name_id, t0, t1, parent in self.spans:
            if parent >= 0:
                child_time[parent] += t1 - t0
        group_of = {name: group for group, members in GROUPS.items() for name in members}
        group_time: dict[str, float] = defaultdict(float)
        group_calls: dict[str, int] = defaultdict(int)
        self_time: dict[str, float] = defaultdict(float)
        suite_time: dict[str, float] = defaultdict(float)
        for idx, (name_id, t0, t1, parent) in enumerate(self.spans):
            name = names[name_id]
            self_time[name.split(".", 1)[0]] += t1 - t0 - child_time[idx]
            if name.startswith("cli.suite."):
                suite_time[name[len("cli.suite."):]] += t1 - t0
            group = group_of.get(name)
            if group is None:
                continue
            group_calls[group] += 1
            # skip spans nested inside a span of the same group
            p = parent
            while p >= 0 and group_of.get(names[self.spans[p][0]]) != group:
                p = self.spans[p][3]
            if p < 0:
                group_time[group] += t1 - t0

        out: dict[str, float] = {}
        for suite in SUITE_NAMES:
            out[f"cli.suite.{suite}.s"] = suite_time.get(suite, 0.0)
        for layer in LAYERS:
            out[f"{layer}.self_s"] = self_time.get(layer, 0.0)
        for group in GROUPS:
            out[f"{group}.s"] = group_time.get(group, 0.0)
        calls = len(self.two_boundary_keys)
        out["transfer.two_boundary.calls"] = calls
        out["transfer.two_boundary.useful_ratio"] = (
            len(set(self.two_boundary_keys)) / calls if calls else 1.0)
        out["transfer.two_boundary.max_degree_span"] = self.max_degree_span
        out["hecke.murphy.calls"] = group_calls.get("hecke.murphy", 0)
        out["tensor.matmul.calls"] = group_calls.get("tensor.matmul", 0)
        out["tensor.matmul.peak_nnz"] = self.peak_nnz
        out["tensor.proportional.calls"] = group_calls.get("tensor.proportional", 0)
        out["rings.coeff_mults"] = self.coeff_mults
        out["rings.max_coeff_bits"] = self.max_coeff_bits
        out["rings.lp_ratio.calls"] = group_calls.get("rings.lp_ratio", 0)
        return out

    def write(self, path: str) -> None:
        """Write the spans as ``{"names": [...], "spans": [[name, start, end, parent]]}``."""
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"names": self.names, "spans": self.spans}, fh)
