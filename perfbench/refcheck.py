"""Check the Gauss-rule reference of workloads.py against 40-digit mpmath.

    python3 perfbench/refcheck.py

For a fixed list of rules it builds the same textbook recurrence in mpmath,
polishes each node by Newton steps on p_n and takes the Christoffel weight
1 / sum_k p_k(x)^2, then prints the normwise relative error of the
benchmark's long-double reference and of the program's golub_welsch
against it. The benchmark never runs this; it needs mpmath.
"""

from __future__ import annotations

import sys
from fractions import Fraction as F
from pathlib import Path

import mpmath as mp
import numpy as np

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import workloads  # noqa: E402
from jmatrix import jacspec, opfamilies  # noqa: E402

CASES = [
    ("jacobi", (F(4, 3), F(-1, 2)), 128), ("jacobi", (F(-4, 5), F(-4, 5)), 256),
    ("jacobi", (F(-4, 5), F(3)), 256), ("jacobi", (F(3), F(3)), 256), ("jacobi", (F(2), F(2)), 16),
    ("laguerre", (F(-1, 2),), 128), ("laguerre", (F(5, 2),), 190), ("laguerre", (F(3),), 256),
    ("hermite", (), 128), ("hermite", (), 256), ("chebyshev", (), 256),
]


def mp_coeffs(kind, params, n):
    """Diagonal, off-diagonal (b_1 .. b_n) and mass, with 40 digits."""
    a, b = (mp.mpf(p.numerator) / p.denominator for p in (params + (F(0), F(0)))[:2])
    diag, off2 = [], []
    for k in range(n):
        j = k + 1
        if kind == "jacobi":
            s = 2 * k + a + b
            diag.append((b - a) / (a + b + 2) if k == 0 else (b * b - a * a) / (s * (s + 2)))
            s = 2 * j + a + b
            off2.append(4 * (1 + a) * (1 + b) / ((2 + a + b) ** 2 * (3 + a + b)) if j == 1
                        else 4 * j * (j + a) * (j + b) * (j + a + b) / (s * s * (s + 1) * (s - 1)))
        elif kind == "laguerre":
            diag.append(2 * k + a + 1)
            off2.append(j * (j + a))
        else:
            diag.append(mp.mpf(0))
            off2.append(mp.mpf(j) / 2 if kind == "hermite" else mp.mpf(1) / (2 if j == 1 else 4))
    mass = {"jacobi": 2 ** (a + b + 1) * mp.gamma(a + 1) * mp.gamma(b + 1) / mp.gamma(a + b + 2),
            "laguerre": mp.gamma(a + 1), "hermite": mp.sqrt(mp.pi), "chebyshev": mp.pi}[kind]
    return diag, [mp.sqrt(v) for v in off2], mass


def mp_rule(kind, params, n, x0):
    diag, off, mass = mp_coeffs(kind, params, n)
    xs, ws = [], []
    for x in x0:
        x = mp.mpf(float(x))
        for _ in range(4):
            p_prev, p, d_prev, d, total = 0, 1, 0, 0, mp.mpf(0)
            for k in range(n):
                total += p * p
                q = ((x - diag[k]) * p - (off[k - 1] * p_prev if k else 0)) / off[k]
                dq = (p + (x - diag[k]) * d - (off[k - 1] * d_prev if k else 0)) / off[k]
                p_prev, p, d_prev, d = p, q, d, dq
            x -= p / d
        xs.append(x)
        ws.append(mass / total)
    return np.array(xs, dtype=float), np.array(ws, dtype=float)


def main() -> int:
    mp.mp.dps = 40
    err = workloads._normwise_error
    worst = 0.0
    for kind, params, n in CASES:
        x_ref, w_ref = workloads._reference_rule(kind, params, n)
        x_mp, w_mp = mp_rule(kind, params, n, x_ref)
        ref = max(err(x_ref, x_mp), err(w_ref, w_mp))
        worst = max(worst, ref)
        try:
            J, mass = opfamilies.family_jacobi_operator(opfamilies.Family(opfamilies.FamilyKind(kind), params))
            rule = jacspec.golub_welsch(J, n, mass)
            prog = f"{max(err(rule.nodes, x_mp), err(rule.weights, w_mp)):.2e}"
        except Exception as exc:  # the known Laguerre failure from n = 194..199 on
            prog = f"fails: {exc}"
        print(f"{kind:9s} {','.join(map(str, params)):10s} n={n:3d}  reference {ref:.2e}  program {prog}",
              flush=True)
    print(f"worst reference error {worst:.2e}")
    return 0 if worst <= 1e-14 else 1


if __name__ == "__main__":
    sys.exit(main())
