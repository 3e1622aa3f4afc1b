"""The three benchmark workloads: seeded inputs, the operation, the reference check.

Every workload is a closed loop with one client.  Inputs come from an
endless stream of *decks*: a deck is a balanced, seeded-shuffled list of
operation specs, so that every seed sees the same size and kind mix and
only the order and the drawn parameters differ.  A spec is plain data; the
program only ever sees the inputs built from it.

Each workload provides:

* ``decks(rng)``  -- endless iterator of decks (lists of specs);
* ``warmup()``    -- one fixed operation that fills the program's caches;
* ``run(spec)``   -- the timed operation; returns its output or raises;
* ``check(spec, out)`` -- the reference check, run after the timed loop.
  It returns the operation's error against its independent reference
  (0.0 for an exact match) or raises ``WrongAnswer``;
* ``key(spec)``   -- identity of the input, for the repeated-input share;
* ``describe(spec)`` -- one line naming the input, for the failure list;
* ``KNOWN_DEFECTS`` -- (label, spec) pairs of inputs that fail at this
  commit.  The draws stay clear of them, so that no timed operation fails;
  each run tries them once in a fresh process of their own (worker.py
  ``--mode defects``) and reports whether they still fail.

Scipy is imported inside the checks only, so that importing this module
adds nothing to the measured set-up time (the program imports numpy).
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import random
from fractions import Fraction

import numpy as np

from jmatrix import cli, jacspec, opfamilies, polycore, tdop


class WrongAnswer(Exception):
    """The program returned an output that fails its reference check."""


class ProgramFailure(Exception):
    """A CLI command exited with a nonzero status."""


def _frac(rng: random.Random, lo: Fraction, hi: Fraction, dens=(2, 3, 4, 5)) -> Fraction:
    """A rational in (lo, hi] with a denominator drawn from ``dens``."""
    q = rng.choice(dens)
    p_lo = math.floor(lo * q) + 1
    p_hi = math.floor(hi * q)
    return Fraction(rng.randint(p_lo, p_hi), q)


def _spell(value: Fraction, decimal: bool) -> str:
    """p/q spelling, or a finite decimal when asked for and one exists."""
    if decimal:
        d = value.denominator
        while d % 2 == 0:
            d //= 2
        while d % 5 == 0:
            d //= 5
        if d == 1:
            text = f"{float(value):.10f}".rstrip("0")
            return text + "0" if text.endswith(".") else text
    return str(value.numerator) if value.denominator == 1 else f"{value.numerator}/{value.denominator}"


def _shuffled(rng: random.Random, items) -> list:
    items = list(items)
    rng.shuffle(items)
    return items


# ---------------------------------------------------------------------------
# independent polynomial helpers (exact, over Fraction lists, ascending)


def _pmul(p, q):
    if not p or not q:
        return []
    out = [Fraction(0)] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        for j, b in enumerate(q):
            out[i + j] += a * b
    return out


def _padd(*ps):
    n = max((len(p) for p in ps), default=0)
    out = [sum((p[k] for p in ps if k < len(p)), Fraction(0)) for k in range(n)]
    while out and out[-1] == 0:
        out.pop()
    return out


def _pscale(p, c):
    return [a * c for a in p]


def _lower(p, shift, d):
    """Apply x^k -> d(k) x^(k - shift)."""
    return [p[k] * d(k) for k in range(shift, len(p))]


def _lowering_pair(q):
    """(d_S, d_T) monomial coefficients of S = d/dx or D_q, and T = S o S."""
    if q is None:
        return (lambda k: Fraction(k)), (lambda k: Fraction(k * (k - 1)))

    def d(k):
        return (1 - q**k) / (1 - q)

    return d, (lambda k: d(k) * d(k - 1))


def _random_td(rng: random.Random, pattern, q, n):
    """Random rational (A, B, C) of the given degree pattern whose leading
    action is nonzero at every k in [2, n] (the construction's precondition)."""
    d_s, d_t = _lowering_pair(q)

    def poly(deg):
        if deg < 0:
            return []
        cs = [Fraction(rng.randint(-5, 5), rng.randint(1, 4)) for _ in range(deg + 1)]
        while cs[-1] == 0:
            cs[-1] = Fraction(rng.randint(-5, 5), rng.randint(1, 4))
        return cs

    def coeff(p, k):
        return p[k] if k < len(p) else Fraction(0)

    while True:
        A, B, C = (poly(d) for d in pattern)
        if all(coeff(A, 3) * d_t(k) + coeff(B, 2) * d_s(k) + coeff(C, 1) != 0 for k in range(2, n + 1)):
            return A, B, C


_DEGREE_PATTERNS = [(3, b, c) for b in (-1, 0, 1, 2) for c in (-1, 0, 1)] + [
    (a, 2, c) for a in (-1, 0, 1, 2) for c in (-1, 0, 1)
]


# ---------------------------------------------------------------------------
# tridiag-exact


class TridiagExact:
    """Exact canonical tridiagonalization of random strict TD-operators.

    polycore and tdop do nearly all of the work; no other layer is called.
    A deck holds each of the 24 admissible degree patterns once; sizes come
    from twelve strata of [8, 41] (each twice per deck), one operator in four
    uses q-difference lowering operators, and one in four also rebuilds the
    diagonalizing operator and checks its anticommutator exactly.
    """

    name = "tridiag-exact"
    KNOWN_DEFECTS = ()
    STRATA = 12  # sizes are drawn from 12 equal strata of [8, 41], each twice per deck
    QS = (Fraction(1, 2), Fraction(2, 3), Fraction(3, 2), Fraction(2))

    def decks(self, rng):
        parity = rng.randrange(2)
        offset = 0.5
        while True:
            # Per deck: 12 plain operators, 6 q-difference ones and 6 that also
            # rebuild the diagonalizer; the last two alternate between the
            # even and odd strata from deck to deck.  The sizes inside each
            # stratum follow a golden-ratio sequence, the same for every seed.
            slots = []
            for j in range(self.STRATA):
                n1, n2 = (round(8 + 33 * (j + (offset + h) % 1.0) / self.STRATA) for h in (0.0, 0.5))
                slots.append((n1, None))
                slots.append((n2, "reconstruct" if j % 2 == parity else "q"))
            offset = (offset + 0.6180339887) % 1.0
            parity ^= 1
            deck = []
            for pattern, (n, variant) in zip(_shuffled(rng, _DEGREE_PATTERNS), slots):
                q = rng.choice(self.QS) if variant == "q" else None
                A, B, C = _random_td(rng, pattern, q, n)
                deck.append({"A": A, "B": B, "C": C, "q": q, "n": n, "reconstruct": variant == "reconstruct"})
            yield _shuffled(rng, deck)

    def key(self, spec):
        return (tuple(spec["A"]), tuple(spec["B"]), tuple(spec["C"]), spec["q"])

    def describe(self, spec):
        poly = lambda p: ",".join(_spell(c, False) for c in p)
        return (f"A={poly(spec['A'])} B={poly(spec['B'])} C={poly(spec['C'])} q={spec['q']} "
                f"n={spec['n']} reconstruct={spec['reconstruct']}")

    def warmup(self):
        self.run({"A": [0, 0, 0, 1], "B": [0, 0, 1], "C": [0, 1], "q": None, "n": 8, "reconstruct": True})

    def run(self, spec):
        P = polycore.Polynomial
        if spec["q"] is None:
            S, T = polycore.derivative_op(), polycore.second_derivative_op()
        else:
            S = polycore.q_derivative_op(spec["q"])
            T = polycore.compose(S, S)
        op = tdop.validate_td(
            P(spec["A"], polycore.Mode.EXACT), P(spec["B"], polycore.Mode.EXACT),
            P(spec["C"], polycore.Mode.EXACT), S, T,
        )
        n = spec["n"]
        tri = tdop.tridiagonalize(op, n)
        try:
            tri.verify(op)  # independent oracle: re-applies L to every y_k
        except tdop.TridiagonalizationError as exc:
            raise WrongAnswer(f"verify rejects the bands: {exc}") from None
        checked = 0
        if spec["reconstruct"]:
            D = tdop.reconstruct_diagonalizer(op, n)
            x = P.x()
            for j in range(n):
                mono = P.monomial(j)
                if not (D.apply(x * mono) + x * D.apply(mono) - op.apply(mono)).is_zero():
                    raise WrongAnswer(f"anticommutator D X + X D != L on x^{j}")
                checked += 1
        return {"n_max": tri.n_max, "monic_top": tri.y[-1].is_monic(), "anticommutator_checked": checked}

    def check(self, spec, out):
        want = spec["n"] if spec["reconstruct"] else 0
        if out["n_max"] != spec["n"] or not out["monic_top"] or out["anticommutator_checked"] != want:
            raise WrongAnswer(f"incomplete tridiagonalization {out}")
        return 0.0


# ---------------------------------------------------------------------------
# gauss-rules


def _normwise_error(got, want) -> float:
    got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
    if got.shape != want.shape:
        raise WrongAnswer(f"shape {got.shape} != reference {want.shape}")
    return float(np.max(np.abs(got - want)) / np.max(np.abs(want)))


def _ld(value):
    """A rational as a long double, rounded once."""
    value = Fraction(value)
    return np.longdouble(value.numerator) / np.longdouble(value.denominator)


def _reference_matrix(kind: str, params, n: int):
    """Textbook Jacobi matrix (diagonal, off-diagonal), in long double, and
    the weight mass of a family."""
    k = np.arange(n, dtype=np.longdouble)
    j = k[1:]
    if kind == "jacobi":
        a, b = (_ld(p) for p in params)
        s = 2 * k + a + b
        diag = np.empty(n, dtype=np.longdouble)
        diag[0] = (b - a) / (a + b + 2)
        diag[1:] = (b * b - a * a) / (s[1:] * (s[1:] + 2))
        s = 2 * j + a + b
        off2 = 4 * j * (j + a) * (j + b) * (j + a + b) / (s * s * (s + 1) * (s - 1))
        off2[:1] = 4 * (1 + a) * (1 + b) / ((2 + a + b) ** 2 * (3 + a + b))  # j = 1, (1+a+b) cancelled
        fa, fb = (float(p) for p in params)
        mass = 2 ** (fa + fb + 1) * math.gamma(fa + 1) * math.gamma(fb + 1) / math.gamma(fa + fb + 2)
    elif kind == "laguerre":
        diag, off2, mass = 2 * k + _ld(params[0]) + 1, j * (j + _ld(params[0])), math.gamma(float(params[0]) + 1)
    elif kind == "hermite":
        diag, off2, mass = np.zeros(n, dtype=np.longdouble), j / 2, math.sqrt(math.pi)
    elif kind == "chebyshev":
        diag, off2, mass = np.zeros(n, dtype=np.longdouble), np.full(n - 1, np.longdouble(0.25)), math.pi
        off2[:1] = 0.5
    else:
        raise ValueError(kind)
    return diag, np.sqrt(off2), mass


def _recurrence_sweep(diag, off, x):
    """Run the orthonormal recurrence at the points x.

    Returns (q, q', s): q = b_n p_n(x) (it has the nodes as its zeros), its
    derivative, and s = sum over k < n of p_k(x)^2, all for p_0 = 1 (the
    weight mass is applied by the caller).
    """
    n = len(diag)
    p_prev, p = np.zeros_like(x), np.ones_like(x)
    d_prev, d = np.zeros_like(x), np.zeros_like(x)
    total = np.ones_like(x)
    for k in range(n):
        q = (x - diag[k]) * p - (off[k - 1] * p_prev if k else 0)
        dq = p + (x - diag[k]) * d - (off[k - 1] * d_prev if k else 0)
        if k == n - 1:
            return q, dq, total
        p_prev, p = p, q / off[k]
        d_prev, d = d, dq / off[k]
        total += p * p


def _reference_rule(kind: str, params, n: int):
    """Gauss rule in long double: the nodes of scipy.special's roots_*,
    polished by Newton steps on the textbook recurrence, and the Christoffel
    weights mass / sum_k p_k(x_i)^2 (p_k orthonormal, p_0 = 1).

    Against a 40-digit mpmath rule from the same recurrences the nodes agree
    to the last bit of a double and the weights to 6e-16 for n <= 256 (see
    refcheck.py), below the program's errors of 1e-15 to 4e-12.
    """
    from scipy import special

    if np.finfo(np.longdouble).eps > 1e-18:
        raise RuntimeError("the Gauss-rule reference needs an extended-precision long double")
    diag, off, mass = _reference_matrix(kind, params, n)
    if kind == "jacobi":
        x0 = special.roots_jacobi(n, float(params[0]), float(params[1]))[0]
    elif kind == "laguerre":
        x0 = special.roots_genlaguerre(n, float(params[0]))[0]
    elif kind == "hermite":
        x0 = special.roots_hermite(n)[0]
    else:
        x0 = special.roots_chebyt(n)[0]
    x = x0.astype(np.longdouble)
    for _ in range(3):
        q, dq, _ = _recurrence_sweep(diag, off, x)
        x = x - q / dq
    weights = (mass / _recurrence_sweep(diag, off, x)[2]).astype(float)
    x = x.astype(float)
    # The reference guards itself: Newton stayed on scipy's roots, and the
    # rule integrates the constant 1 exactly.
    if not (_normwise_error(x, x0) <= 1e-12 and abs(weights.sum() / mass - 1) <= 1e-12):
        raise RuntimeError(f"reference rule for {kind}{params} n={n} did not converge")
    return x, weights


def _draw_family(rng: random.Random, kind: str):
    if kind == "jacobi":
        return (_frac(rng, Fraction(-1), Fraction(3)), _frac(rng, Fraction(-1), Fraction(3)))
    if kind == "laguerre":
        return (_frac(rng, Fraction(-1), Fraction(3)),)
    return ()


GAUSS_TOL = 1e-8  # normwise relative error of nodes and of weights


class GaussRules:
    """Gauss rules by Golub-Welsch for four classical families.

    The O(n^3) QL eigensolver in jacspec is almost all of the time; polycore
    and tdop are idle.  A deck gives every family one size from each of 9
    geometric strata of [16, N_MAX].  Laguerre rules stop at n = 180: from
    n = 194 to 199 on, depending on alpha, their smallest weights underflow
    and golub_welsch raises (a known defect, tried apart from the timed loop).
    """

    name = "gauss-rules"
    STRATA = 9  # n lies in each of 9 equal geometric strata of [16, N_MAX] once per family and deck
    KINDS = ("jacobi", "laguerre", "hermite", "chebyshev")
    N_MAX = {"jacobi": 256, "laguerre": 180, "hermite": 256, "chebyshev": 256}
    KNOWN_DEFECTS = (
        ("Laguerre rules with n >= 194..199 raise: the smallest weights underflow",
         {"kind": "laguerre", "params": (Fraction(0),), "n": 200}),
    )

    def decks(self, rng):
        offset = 0.5
        while True:
            # The position inside the strata follows a golden-ratio sequence
            # from deck to deck, the same for every seed, and the four
            # families sit a quarter stratum apart: sizes cover the strata
            # evenly, latencies spread without steps, and the percentiles do
            # not move with the seed.
            deck = []
            for j in range(self.STRATA):
                for f, kind in enumerate(self.KINDS):
                    width = math.log(self.N_MAX[kind] / 16) / self.STRATA
                    n = round(16 * math.exp(width * (j + (offset + f / 4) % 1.0)))
                    deck.append({"kind": kind, "params": _draw_family(rng, kind), "n": n})
            offset = (offset + 0.6180339887) % 1.0
            yield _shuffled(rng, deck)

    def key(self, spec):
        return (spec["kind"], spec["params"], spec["n"])

    def describe(self, spec):
        return f"{CliPipelines._family_spec(spec['kind'], spec['params'], False)} n={spec['n']}"

    def warmup(self):
        self.run({"kind": "jacobi", "params": (0, 0), "n": 16})

    def run(self, spec):
        fam = opfamilies.Family(opfamilies.FamilyKind(spec["kind"]), tuple(spec["params"]))
        J, mass = opfamilies.family_jacobi_operator(fam)
        rule = jacspec.golub_welsch(J, spec["n"], mass)
        return rule.nodes, rule.weights

    def check(self, spec, out):
        x_ref, w_ref = _reference_rule(spec["kind"], spec["params"], spec["n"])
        err = max(_normwise_error(out[0], x_ref), _normwise_error(out[1], w_ref))
        if not err <= GAUSS_TOL:
            raise WrongAnswer(f"rule differs from the reference by {err:.3e} (tol {GAUSS_TOL:g})")
        return err


# ---------------------------------------------------------------------------
# cli-pipelines


def run_cli(argv):
    """Run ``jmatrix argv`` in-process; return stdout, raise on a nonzero exit."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        status = cli.main(argv)
    if status != 0:
        msg = err.getvalue().strip().splitlines()
        raise ProgramFailure(f"exit {status}: {msg[-1] if msg else ''}")
    return out.getvalue()


def _morse_b(rng: random.Random) -> Fraction:
    """b in (0.6, 6.5], never in 1/2 + N (the model rejects those)."""
    while True:
        b = _frac(rng, Fraction(3, 5), Fraction(13, 2), dens=(3, 4, 5, 8))
        if not ((b - Fraction(1, 2)).denominator == 1):
            return b


def _lame_e(rng: random.Random):
    """Distinct rational branch values summing to zero, alpha != +-1."""
    while True:
        e1 = _frac(rng, Fraction(-4), Fraction(4))
        e2 = _frac(rng, Fraction(-4), Fraction(4))
        e3 = -e1 - e2
        if len({e1, e2, e3}) == 3 and abs(3 * e3 / (e1 - e2)) != 1:
            return e1, e2, e3


def _lame_odd_gap_m(rng: random.Random) -> Fraction:
    k = rng.randint(0, 3)
    return 2 * k + 1 + Fraction(rng.randint(1, 4), 5)


def _num(value) -> float:
    return float(Fraction(value)) if isinstance(value, str) else float(value)


def _rel(got, want) -> float:
    return abs(got - want) / max(1.0, abs(want))


def _family_values(kind, params, n, xs):
    """phi_n at xs from scipy's independent evaluators (0 for n < 0)."""
    from scipy import special

    if n < 0:
        return np.zeros_like(xs)
    if kind == "jacobi":
        return special.eval_jacobi(n, float(params[0]), float(params[1]), xs)
    if kind == "laguerre":
        return special.eval_genlaguerre(n, float(params[0]), xs)
    return special.eval_hermite(n, xs)


def _family_derivative(kind, params, n, xs):
    """phi_n' at xs from the classical derivative identities."""
    if n == 0:
        return np.zeros_like(xs)
    if kind == "jacobi":
        a, b = (float(p) for p in params)
        return 0.5 * (n + a + b + 1) * _family_values("jacobi", (a + 1, b + 1), n - 1, xs)
    if kind == "laguerre":
        return -_family_values("laguerre", (float(params[0]) + 1,), n - 1, xs)
    return 2 * n * _family_values("hermite", (), n - 1, xs)


_SAMPLES = (-0.83, -0.31, 0.27, 0.64, 0.95, 1.7)


def _relation_error(terms) -> float:
    """Relative size of sum(terms) (a relation that must vanish) at each sample."""
    total = sum(terms)
    scale = np.maximum(1e-300, np.max(np.abs(np.array(terms)), axis=0))
    return float(np.max(np.abs(total) / scale))


def _cdh_recurrence(params, n):
    """Koekoek-Lesky-Swarttouw (9.3.4) recurrence of the continuous dual Hahn
    S_n(x^2; a, b, c), multiplied through by (a+b)_n (a+c)_n."""
    a, b, c = params
    A = lambda k: (k + a + b) * (k + a + c)
    C = lambda k: k * (k + b + c - 1)
    w = -C(n) * A(n - 1) if n else 0
    return -1, A(n) + C(n) - a * a, w


CLI_TOL = 1e-7
CLI_MODE = ("--mode", "exact")  # pinned, so that JMATRIX_MODE in the caller's environment does not apply

# Commands whose cost or outcome swings most with their inputs cycle through
# one fixed set, in a seeded order, so that every run sees nearly the same
# mix.  Parseval integrals take most of the cli-pipelines time and their cost
# swings tenfold with (b, n, m): every unordered index pair n <= m <= 10 once,
# with b taken in turn from values that cover N = 1 .. 6 bound states.
# Family recurrence tables: Jacobi and Laguerre in both spellings, continuous
# dual Hahn in p/q spelling only, twice (decimal specs fail at this commit).
_PARSEVAL_B = tuple(Fraction(v) for v in ("4/5", "9/4", "13/5", "11/3", "21/5", "17/3"))
_CYCLES = {
    "parseval": tuple(
        (_PARSEVAL_B[i % len(_PARSEVAL_B)], n, m)
        for i, (n, m) in enumerate((n, m) for n in range(11) for m in range(n, 11))
    ),
    "recurrence": tuple((fam, dec) for fam in ("jacobi", "laguerre", "hermite") for dec in (False, True))
    + (("cdh", False), ("cdh", False)),
}


class CliPipelines:
    """A seeded mix of the README commands, run in-process through cli.main.

    A deck holds 30 commands.  The 19 light ones (levels, identities, family
    tables, orthonormal Lame bands; mostly 2 to 4 ms) set the median: it lies
    inside them, not on the step to the 6 middle-weight ones (band
    data, spectra, residuals, a small rule, a small tridiagonalization;
    5 to 20 ms).  The five Parseval integrals form the tail.  Family specs are spelled
    as decimals half of the time, except for the two commands whose float
    solve fails on decimal parameters at this commit (KNOWN_DEFECTS).
    """

    name = "cli-pipelines"
    KNOWN_DEFECTS = (
        ("decimal continuous dual Hahn specs: families --recurrence exits 2 from n = 3 or 4 on",
         {"kind": "recurrence", "family": "cdh", "params": (Fraction(11, 4), Fraction(1, 4), Fraction(7, 4)),
          "n": 4, "argv": [*CLI_MODE, "families", "--family", "cdh:2.75,0.25,1.75", "--n", "4", "--recurrence"]}),
        ("decimal Jacobi specs: families --asc exits 2 from n = 8 to 10 on",
         {"kind": "asc", "family": "jacobi", "params": (Fraction(9, 4), Fraction(1, 2)),
          "n": 10, "argv": [*CLI_MODE, "families", "--family", "jacobi:2.25,0.5", "--n", "10", "--asc"]}),
    )
    DECK = (
        "levels", "levels", "levels", "levels", "identity", "identity", "identity", "identity",
        "recurrence", "recurrence", "recurrence", "recurrence", "recurrence",
        "asc", "asc", "asc", "orthonormal", "orthonormal", "orthonormal",
        "residual", "spectrum", "residuals", "diagnostic", "quad", "tridiag",
        "parseval", "parseval", "parseval", "parseval", "parseval",
    )

    def decks(self, rng):
        cycles = {kind: [] for kind in _CYCLES}
        while True:
            deck = []
            for kind in _shuffled(rng, self.DECK):
                fixed = None
                if kind in cycles:
                    if not cycles[kind]:
                        cycles[kind] = _shuffled(rng, _CYCLES[kind])
                    fixed = cycles[kind].pop()
                deck.append(self._draw(rng, kind, fixed))
            yield deck

    def _draw(self, rng, kind, fixed):
        dec = rng.random() < 0.5
        if kind in ("levels", "identity", "residual", "parseval"):
            b = fixed[0] if kind == "parseval" else _morse_b(rng)
            N = math.floor(b + Fraction(1, 2))
            spec = {"kind": kind, "b": b, "N": N}
            argv = ["morse", f"--b={_spell(b, dec)}"]
            if kind == "levels":
                argv.append("--levels")
            elif kind == "identity":
                spec["m"] = rng.randrange(N)
                argv += ["--identity", str(spec["m"])]
            elif kind == "residual":
                argv += ["--residual", str(rng.randint(0, 10))]
            else:
                spec["n"], spec["m"] = fixed[1:]
                argv += ["--parseval", str(spec["n"]), str(spec["m"])]
        elif kind in ("spectrum", "residuals", "orthonormal", "diagnostic"):
            e = _lame_e(rng)
            m = 2 * rng.randint(1, 4) if kind == "spectrum" else (
                rng.randint(0, 6) if kind == "residuals" else _lame_odd_gap_m(rng))
            spec = {"kind": kind, "e": e, "m": Fraction(m)}
            argv = ["lame", "--e=" + ",".join(_spell(v, False) for v in e), f"--m={_spell(Fraction(m), False)}"]
            if kind == "spectrum":
                argv.append("--spectrum")
            elif kind == "residuals":
                argv += ["--residuals", str(rng.randint(2, 12))]
            elif kind == "orthonormal":
                argv += ["--orthonormal", str(rng.randint(10, 60))]
            else:
                argv += ["--diagnostic", str(rng.randint(100, 500))]
        elif kind == "quad":
            fam = rng.choice(GaussRules.KINDS)
            params = _draw_family(rng, fam)
            spec = {"kind": kind, "family": fam, "params": params, "n": rng.randint(4, 40)}
            argv = ["quad", "--family", self._family_spec(fam, params, dec), "--n", str(spec["n"])]
        elif kind in ("recurrence", "asc"):
            if kind == "recurrence":
                fam, dec = fixed
            else:
                fam, dec = rng.choice(("jacobi", "laguerre", "hermite")), False
            if fam == "cdh":
                b = _morse_b(rng)
                N = math.floor(b + Fraction(1, 2))
                params = (b + Fraction(1, 2), N - b + Fraction(1, 2), b - N + Fraction(1, 2))
            else:
                params = _draw_family(rng, fam)
            spec = {"kind": kind, "family": fam, "params": params, "n": rng.randint(2, 10)}
            argv = ["families", "--family", self._family_spec(fam, params, dec), "--n", str(spec["n"]), f"--{kind}"]
        else:  # tridiag
            n = rng.randint(4, 12)
            A, B, C = _random_td(rng, rng.choice(_DEGREE_PATTERNS), None, n)
            spec = {"kind": kind, "A": A, "B": B, "C": C, "n": n}
            argv = ["tridiag"] + [f"--{k}=" + ",".join(_spell(c, False) for c in p) for k, p in zip("ABC", (A, B, C))]
            argv += ["--n", str(n)]
        spec["argv"] = [*CLI_MODE, *argv]
        return spec

    @staticmethod
    def _family_spec(fam, params, dec):
        return fam + (":" + ",".join(_spell(p, dec) for p in params) if params else "")

    def key(self, spec):
        return tuple(spec["argv"])

    def describe(self, spec):
        return "jmatrix " + " ".join(spec["argv"])

    def warmup(self):
        run_cli([*CLI_MODE, "morse", "--b", "9/4", "--parseval", "0", "0"])

    def run(self, spec):
        return run_cli(spec["argv"])

    def check(self, spec, out):
        report = json.loads(out)["results"]
        err = getattr(self, "_check_" + spec["kind"])(spec, report)
        if not err <= CLI_TOL:
            raise WrongAnswer(f"{spec['kind']}: error {err:.3e} against the reference (tol {CLI_TOL:g})")
        return err

    # -- per-command references ------------------------------------------------

    def _check_levels(self, spec, r):
        b = float(spec["b"])
        want = [-((b - m - 0.5) ** 2) for m in range(spec["N"])]
        got = r["bound_states"]["eigenvalues"]
        if len(got) != len(want):
            raise WrongAnswer(f"{len(got)} levels, closed form has {len(want)}")
        return max((_rel(g, w) for g, w in zip(got, want)), default=0.0)

    def _check_identity(self, spec, r):
        b, N, m = spec["b"], spec["N"], spec["m"]
        poch = Fraction(1)
        for i in range(N - 1 - m):
            poch *= 2 * b - 2 * N + 1 + i
        want = 1 / (poch * math.comb(N - 1, m))
        got = r["expansion_identity"]
        if Fraction(got["C"]) != want or got["max_residual"] != 0.0 or not got["exact"]:
            raise WrongAnswer(f"identity C={got['C']} (closed form {want}), residual {got['max_residual']}")
        return 0.0

    def _check_residual(self, spec, r):
        return r["action_residual"]["max_residual"]

    def _check_parseval(self, spec, r):
        delta = 1.0 if spec["n"] == spec["m"] else 0.0
        return abs(r["parseval"]["value"] - delta)

    def _lame_constants(self, spec):
        e1, e2, e3 = spec["e"]
        m = spec["m"]
        return (e1 + e2) / (e1 - e2), 3 * e3 / (e1 - e2), m

    def _check_spectrum(self, spec, r):
        boa, alpha, m = self._lame_constants(spec)
        k = int(m) // 2
        mm1 = m * (m + 1)

        def band(n):  # (upper, diag, lower) of the Chebyshev three-band action
            if n == 0:
                return -mm1 / 4, -mm1 * boa / 4, 0
            return (2 * n - m) * (2 * n + m + 1) / 8, -alpha * n * n - mm1 * boa / 4, (2 * n + m) * (2 * n - m - 1) / 8

        mat = np.zeros((k + 1, k + 1))
        for n in range(k + 1):
            mat[n, n] = band(n)[1]
            if n < k:
                mat[n, n + 1] = band(n + 1)[2]
                mat[n + 1, n] = band(n)[0]
        want = np.sort(np.linalg.eigvals(mat).real)
        got = r["even_spectrum"]
        if not max(got["ode_residuals"]) <= CLI_TOL:  # the program's own residuals: a gate, not a reference
            raise WrongAnswer(f"eigenfunction residual {max(got['ode_residuals']):.3e}")
        return _normwise_error(got["eigenvalues"], want)

    def _check_residuals(self, spec, r):
        rows = r["tridiag_residuals"]
        if any(row["residual_coeffs"] for row in rows):
            raise WrongAnswer("nonzero exact band residual")
        return 0.0

    def _check_orthonormal(self, spec, r):
        boa, alpha, m = self._lame_constants(spec)
        m, alpha, boa = float(m), float(alpha), float(boa)
        form = r["orthonormal_form"]
        err = 0.0
        for n, a in enumerate(form["a"]):
            upper = -m * (m + 1) / 4 if n == 0 else (2 * n - m) * (2 * n + m + 1) / 8
            lower = (2 * n + 2 + m) * (2 * n + 1 - m) / 8
            want_sq = upper * lower / (2 if n == 0 else 1)  # first row doubled
            err = max(err, _rel(a * a, want_sq))
        for n, d in enumerate(form["diag"]):
            err = max(err, _rel(d, -alpha * n * n - m * (m + 1) * boa / 4))
        return err

    def _check_diagnostic(self, spec, r):
        _, alpha, _ = self._lame_constants(spec)
        diag = r["selfadjoint_diagnostic"]
        want = (1 - float(alpha), 1 + float(alpha))
        return max(_rel(g, w) for g, w in zip(diag["predicted_leading"], want))

    def _check_quad(self, spec, r):
        x_ref, w_ref = _reference_rule(spec["family"], spec["params"], spec["n"])
        return max(_normwise_error(r["nodes"], x_ref), _normwise_error(r["weights"], w_ref))

    def _check_recurrence(self, spec, r):
        rows = r["recurrence"]
        if len(rows) != spec["n"] + 1:
            raise WrongAnswer("recurrence table has the wrong length")
        err = 0.0
        fam, params = spec["family"], spec["params"]
        xs = np.array(_SAMPLES)
        for row in rows:
            n = row["n"]
            u, v, w = (_num(row[c]) for c in "uvw")
            if fam == "cdh":
                err = max(err, max(_rel(g, float(t)) for g, t in zip((u, v, w), _cdh_recurrence(params, n))))
                continue
            terms = [
                xs * _family_values(fam, params, n, xs),
                -u * _family_values(fam, params, n + 1, xs),
                -v * _family_values(fam, params, n, xs),
                -w * _family_values(fam, params, n - 1, xs),
            ]
            err = max(err, _relation_error(terms))
        return err

    def _check_asc(self, spec, r):
        fam, params = spec["family"], spec["params"]
        xs = np.array(_SAMPLES)
        err = 0.0
        for row in r["structure_relation"]:
            n = row["n"]
            G = [_num(c) for c in row["G"]]
            g_vals = sum(c * xs**i for i, c in enumerate(G))
            a, b, c = (_num(row[k]) for k in "ABC")
            terms = [
                g_vals * _family_derivative(fam, params, n, xs),
                -a * _family_values(fam, params, n + 1, xs),
                -b * _family_values(fam, params, n, xs),
                -c * _family_values(fam, params, n - 1, xs),
            ]
            err = max(err, _relation_error(terms))
        return err

    def _check_tridiag(self, spec, r):
        A, B, C, n = spec["A"], spec["B"], spec["C"], spec["n"]
        ys = [[Fraction(c) for c in y] for y in r["y"]]
        An, Bn, Cn = ([Fraction(v) for v in r[k]] for k in ("A_n", "B_n", "C_n"))
        if len(ys) != n + 1 or any(len(y) != k + 1 or y[-1] != 1 for k, y in enumerate(ys)):
            raise WrongAnswer("basis is not monic of degrees 0..n")
        d_s, d_t = _lowering_pair(None)
        for k in range(n):
            y = ys[k]
            lhs = _padd(_pmul(A, _lower(y, 2, d_t)), _pmul(B, _lower(y, 1, d_s)), _pmul(C, y))
            rhs = _padd(_pscale(ys[k + 1], An[k]), _pscale(y, Bn[k]), _pscale(ys[k - 1], Cn[k]) if k else [])
            if _padd(lhs, _pscale(rhs, -1)):
                raise WrongAnswer(f"band relation fails at n={k}")
        return 0.0


WORKLOADS = {w.name: w for w in (TridiagExact(), GaussRules(), CliPipelines())}
