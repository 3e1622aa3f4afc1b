"""Per-layer tracing from outside the program.

``install(recorder)`` replaces public functions and methods of the jmatrix
modules with wrappers that record a span (name, start, end, parent, op) per
call, plus a few work counters.  Every module attribute bound to a wrapped
function is replaced too, so re-exports such as ``cli.tridiagonalize`` or
``opfamilies.loggamma`` are traced.  Nothing under ``src/`` changes, and the
untraced run never calls ``install``.

A span's self time is its duration minus the durations of its direct
children; a layer's self time is the sum over its spans.  Spans stay in
memory and are written out once, by ``Recorder.dump``, when the run ends.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import defaultdict

import numpy as np

# (module, attribute, span name); a span name's first component is its layer.
# Methods are named "Class.method".  Hot scalar helpers (scalar_mode,
# coerce_scalar, format_scalar, pochhammer, DegreeLoweringOperator.coefficient)
# are left unwrapped: their time counts in the calling span.
_ARITH = ("__add__", "__sub__", "__mul__", "__rmul__", "__neg__", "__divmod__")
TARGETS = (
    [("polycore", f"Polynomial.{m}", "polycore.poly_arith") for m in _ARITH]
    + [
        ("polycore", "Polynomial.__call__", "polycore.poly_eval"),
        ("polycore", "Polynomial.derivative", "polycore.derivative"),
        ("polycore", "Polynomial.shift_affine", "polycore.shift_affine"),
        ("polycore", "DegreeLoweringOperator.apply", "polycore.lowering_apply"),
        ("polycore", "DegreeLoweringOperator.__call__", "polycore.lowering_apply"),
        ("polycore", "parse_polynomial", "polycore.parse_polynomial"),
        ("polycore", "derivative_op", "polycore.derivative_op"),
        ("polycore", "second_derivative_op", "polycore.second_derivative_op"),
        ("polycore", "q_derivative_op", "polycore.q_derivative_op"),
        ("polycore", "compose", "polycore.compose"),
        ("tdop", "TDOperator.apply", "tdop.apply"),
        ("tdop", "TDOperator.__call__", "tdop.apply"),
        ("tdop", "Tridiagonalization.verify", "tdop.verify"),
        ("tdop", "ReconstructedOperator.apply", "tdop.reconstructed_apply"),
    ]
    + [("tdop", f, f"tdop.{f}") for f in (
        "validate_td", "tridiagonalize", "orthogonalize", "symmetrize",
        "reconstruct_diagonalizer", "weight_log_derivative", "eval_weight")]
    + [("opfamilies", f, f"opfamilies.{f}") for f in (
        "family_polynomial", "recurrence_coeffs", "eval_family", "eval_family_log",
        "bochner_ode", "bochner_residual", "asc_relation", "cdh_weight", "dual_hahn_value",
        "dual_hahn_weight", "dual_hahn_norm", "weight_mass", "family_jacobi_operator")]
    + [("gammafn", f, f"gammafn.{f}") for f in ("loggamma", "gammaln_real")]
    + [("jacspec", "symmetric_tridiagonal_eig", "jacspec.eig")]
    + [("jacspec", f, f"jacspec.{f}") for f in (
        "split_blocks", "eig_block", "eval_pn", "eval_pn_scaled", "golub_welsch",
        "gauss_legendre_rule", "adaptive_integrate", "halfline_integrate", "berezanskii_test")]
    + [("morse", f, f"morse.{f}") for f in (
        "build_morse_model", "conjugated_operator", "schrodinger_tridiag", "morse_jacobi_operator",
        "bound_state_energies", "bound_states", "eval_basis", "eval_basis_log", "action_residual",
        "discrete_eigvectors", "expansion_identity", "continuous_polys", "parseval_check")]
    + [("lame", f, f"lame.{f}") for f in (
        "build_lame_model", "algebraic_operator", "transformed_operator", "cheb_tridiag_coeffs",
        "chebyshev_poly", "tridiag_residual", "even_spectrum", "even_eigenfunction_residual",
        "orthonormal_form", "selfadjoint_diagnostic")]
    + [("cli", "main", "cli.main")]
)

LAYERS = ("polycore", "tdop", "opfamilies", "gammafn", "jacspec", "morse", "lame", "cli")

# Per-layer metrics reported by the traced run: (name, unit).
PER_LAYER = (
    ("polycore.poly_new.calls", "count"),
    ("polycore.poly_arith.calls", "count"),
    ("polycore.poly_arith.self_s", "s"),
    ("polycore.lowering_apply.calls", "count"),
    ("polycore.self_s", "s"),
    ("tdop.tridiagonalize.calls", "count"),
    ("tdop.tridiagonalize.self_s", "s"),
    ("tdop.verify.self_s", "s"),
    ("tdop.apply.calls", "count"),
    ("tdop.reconstruct_diagonalizer.self_s", "s"),
    ("tdop.self_s", "s"),
    ("opfamilies.recurrence_coeffs.calls", "count"),
    ("opfamilies.recurrence_coeffs.self_s", "s"),
    ("opfamilies.family_polynomial.calls", "count"),
    ("opfamilies.family_polynomial.self_s", "s"),
    ("opfamilies.cdh_weight.points", "count"),
    ("opfamilies.cdh_weight.self_s", "s"),
    ("opfamilies.self_s", "s"),
    ("gammafn.loggamma.points", "count"),
    ("gammafn.loggamma.self_s", "s"),
    ("gammafn.self_s", "s"),
    ("jacspec.eig.calls", "count"),
    ("jacspec.eig.n_sum", "count"),
    ("jacspec.eig.n3_sum", "count"),
    ("jacspec.eig.self_s", "s"),
    ("jacspec.golub_welsch.self_s", "s"),
    ("jacspec.eig_block.self_s", "s"),
    ("jacspec.integrand.calls", "count"),
    ("jacspec.integrand.points", "count"),
    ("jacspec.adaptive_integrate.self_s", "s"),
    ("jacspec.halfline_integrate.self_s", "s"),
    ("jacspec.berezanskii_test.self_s", "s"),
    ("morse.parseval_check.calls", "count"),
    ("morse.parseval_check.self_s", "s"),
    ("morse.bound_states.self_s", "s"),
    ("morse.expansion_identity.self_s", "s"),
    ("morse.action_residual.self_s", "s"),
    ("morse.self_s", "s"),
    ("lame.tridiag_residual.calls", "count"),
    ("lame.tridiag_residual.self_s", "s"),
    ("lame.even_spectrum.self_s", "s"),
    ("lame.orthonormal_form.self_s", "s"),
    ("lame.selfadjoint_diagnostic.self_s", "s"),
    ("lame.self_s", "s"),
    ("cli.main.calls", "count"),
    ("cli.self_s", "s"),
    ("cli.output_bytes", "bytes"),
    ("trace.overhead_ratio", "ratio"),
)

# Metrics counted by wrappers rather than derived from spans.
COUNTERS = (
    "polycore.poly_new.calls",
    "jacspec.eig.n_sum",
    "jacspec.eig.n3_sum",
    "jacspec.integrand.calls",
    "jacspec.integrand.points",
    "opfamilies.cdh_weight.points",
    "gammafn.loggamma.points",
)


class Recorder:
    """In-memory spans and counters of one traced run (single thread)."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.spans: list = []  # [name_id, start_ns, end_ns, parent_index, op]
        self.stack: list = []  # open frames: [span_index, start_ns, child_ns]
        self.calls = defaultdict(int)
        self.self_ns = defaultdict(int)
        self.counters = defaultdict(int)
        self.op = -1

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def layer_of_caller(self) -> str:
        if not self.stack:
            return "bench"
        return self.names[self.spans[self.stack[-1][0]][0]].split(".")[0]

    def span(self, name: str, fn):
        nid = self.name_id(name)
        spans, stack, calls, self_ns = self.spans, self.stack, self.calls, self.self_ns
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append([nid, 0, 0, stack[-1][0] if stack else -1, self.op])
            frame = [idx, clock(), 0]
            stack.append(frame)
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                dur = end - frame[1]
                self_ns[nid] += dur - frame[2]
                calls[nid] += 1
                if stack:
                    stack[-1][2] += dur
                spans[idx][1] = frame[1]
                spans[idx][2] = end

        return wrapper

    def counted(self, counter: str, fn, amount=lambda *a, **k: 1):
        counters = self.counters

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counters[counter] += amount(*args, **kwargs)
            return fn(*args, **kwargs)

        return wrapper

    def integrator(self, name: str, fn):
        """Span for an integrator that also wraps the integrand ``f`` it is given."""
        inner = self.span(name, fn)

        def wrap_f(f):
            if getattr(f, "_bench_integrand", False):
                return f
            traced = self.counted(
                "jacspec.integrand.calls", self.span(f"{self.layer_of_caller()}.integrand", f)
            )
            counted = self.counted("jacspec.integrand.points", traced, amount=lambda x, *a, **k: int(np.size(x)))
            counted._bench_integrand = True
            return counted

        @functools.wraps(fn)
        def wrapper(f, *args, **kwargs):
            return inner(wrap_f(f), *args, **kwargs)

        return wrapper

    # -- results -------------------------------------------------------------

    def metrics(self, output_bytes: int) -> dict:
        """Every PER_LAYER metric but the overhead ratio, which needs the untraced replay."""
        by_name = {n: i for i, n in enumerate(self.names)}
        layer_ns = defaultdict(int)
        for i, ns in self.self_ns.items():
            layer_ns[self.names[i].split(".")[0]] += ns
        out = {}
        for name, unit in PER_LAYER:
            head, _, tail = name.rpartition(".")
            if name == "trace.overhead_ratio":
                continue
            if name == "cli.output_bytes":
                value = output_bytes
            elif name in COUNTERS:
                value = self.counters[name]
            elif tail == "calls":
                value = self.calls[by_name[head]] if head in by_name else 0
            elif head in LAYERS:
                value = layer_ns[head] / 1e9
            else:
                value = self.self_ns[by_name[head]] / 1e9 if head in by_name else 0.0
            out[name] = {"value": value, "unit": unit}
        return out

    def layer_table(self) -> dict:
        """Self seconds and call counts for every span name seen."""
        return {
            n: {"calls": self.calls[i], "self_s": self.self_ns[i] / 1e9}
            for i, n in sorted(enumerate(self.names), key=lambda t: -self.self_ns[t[0]])
        }

    def dump(self, path) -> None:
        with open(path, "w") as fh:
            json.dump({"fields": ["name", "start_ns", "end_ns", "parent", "op"], "names": self.names}, fh)
            fh.write("\n")
            for s in self.spans:
                fh.write(json.dumps(s))
                fh.write("\n")


def _resolve(module, attr):
    owner_name, _, meth = attr.rpartition(".")
    owner = getattr(module, owner_name) if owner_name else module
    return owner, meth


def install(rec: Recorder) -> None:
    """Wrap every target in TARGETS and every module attribute bound to one."""
    modules = {name: sys.modules[name] for name in list(sys.modules) if name == "jmatrix" or name.startswith("jmatrix.")}
    replaced = {}
    for mod_name, attr, span_name in TARGETS:
        owner, meth = _resolve(modules[f"jmatrix.{mod_name}"], attr)
        original = owner.__dict__[meth]
        if span_name in ("jacspec.adaptive_integrate", "jacspec.halfline_integrate"):
            wrapped = rec.integrator(span_name, original)
        else:
            wrapped = rec.span(span_name, original)
        if span_name == "jacspec.eig":
            wrapped = rec.counted("jacspec.eig.n_sum", wrapped, amount=lambda d, *a, **k: len(d))
            wrapped = rec.counted("jacspec.eig.n3_sum", wrapped, amount=lambda d, *a, **k: len(d) ** 3)
        elif span_name == "opfamilies.cdh_weight":
            wrapped = rec.counted("opfamilies.cdh_weight.points", wrapped, amount=lambda b, N, g: int(np.size(g)))
        elif span_name == "gammafn.loggamma":
            wrapped = rec.counted("gammafn.loggamma.points", wrapped, amount=lambda z: int(np.size(z)))
        replaced[id(original)] = (original, wrapped)
        setattr(owner, meth, wrapped)
    poly = modules["jmatrix.polycore"].Polynomial
    poly.__init__ = rec.counted("polycore.poly_new.calls", poly.__init__)
    for module in modules.values():
        for attr, value in list(vars(module).items()):
            hit = replaced.get(id(value))
            if hit is not None and hit[0] is value:
                setattr(module, attr, hit[1])
