"""The rigorous envelope as two closed forms, one per recursion shape: the
reference ``covertree.analysis.envelope_series`` is compared against.

A one-step regime (theorems 1 and 2) reads each eigenspace's profile off the
roots a_plus, a_minus of  D x**2 - (mu A - B) x + 1  at every radius.  The
semiregular double step (theorem 3) decomposes the pair (F(n+1), F(n)) on the
eigenvectors of the 2x2 transfer matrix, bounds a repeated root by the norm of
the nilpotent part, and takes radii 0 and 1 as the initial values themselves.
The library instead runs every regime through the double step on each parity.
These closed forms use nothing of the library's envelope, only
``transfer_matrix`` and ``transfer_eigenvalues``.

``reference_rate`` gives the per-radius decay rate and its kind at 50
digits in stdlib ``decimal``, from the double step's matrix product.
"""

from decimal import Decimal, localcontext

import numpy as np

from covertree import cover, spectral
from covertree.errors import (
    BipartiteEigenvalueError,
    EigenvalueOutOfRangeError,
    ForbiddenGapEigenvalueError,
)


def reference_rate(mu, support, p, q):
    """Rate, kind and the double step's discriminant in units of (D0 D1)**-2
    at the float ``mu``, taken exactly, in 50-digit decimal arithmetic.

    T is the product of the two one-step companion matrices
    [[c_i / D_i, -1 / D_i], [1, 0]], and its roots come from its trace and
    determinant.  The special eigenvalues and the tolerances are those of
    ``spectral.Regime.rates``, which raises the same errors.
    """
    with localcontext() as ctx:
        ctx.prec = 50
        mu, tol = Decimal(mu), Decimal(spectral.TRIVIAL_EIGENVALUE_TOL)
        vertex = support == cover.VERTICES
        steps = [(q + 1, 0, q)] * 2 if vertex else [(p + q, q - 1, p), (p + q, p - 1, q)]
        c0, c1 = (mu * a - b for a, b, _ in steps)
        m0, m1 = ([[c / d, Decimal(-1) / d], [Decimal(1), Decimal(0)]]
                  for c, (_, _, d) in zip((c0, c1), steps))
        t = [[m1[i][0] * m0[0][j] + m1[i][1] * m0[1][j] for j in (0, 1)] for i in (0, 1)]
        trace, det = t[0][0] + t[1][1], t[0][0] * t[1][1] - t[0][1] * t[1][0]
        disc = trace * trace - 4 * det
        units = disc * (steps[0][2] * steps[1][2]) ** 2
        lo = Decimal(-1) if vertex else Decimal(-2) / (p + q)
        if abs(mu - 1) <= tol:
            return Decimal(0), spectral.ONE_STEP, units
        if abs(mu - lo) <= tol:
            if vertex:
                raise BipartiteEigenvalueError("eigenvalue -1")
            return det.sqrt(), spectral.EXACT_GEOMETRIC, units
        if mu > 1 or mu < lo:
            raise EigenvalueOutOfRangeError(f"eigenvalue {mu}")
        gap_lo, gap_hi = (Decimal(min(p, q) - 1) / (p + q), Decimal(max(p, q) - 1) / (p + q))
        if gap_lo + tol < mu < gap_hi - tol:
            raise ForbiddenGapEigenvalueError(f"eigenvalue {mu}")
        if abs(units) <= Decimal(spectral.DISCRIMINANT_TOL):
            scalar = max(abs(c0), abs(c1)) <= Decimal(spectral.DISCRIMINANT_TOL).sqrt()
            kind = spectral.EXACT_GEOMETRIC if scalar else spectral.POLYNOMIAL_FACTOR
            return det.sqrt().sqrt(), kind, units
        if disc < 0:
            return det.sqrt().sqrt(), spectral.EXACT_GEOMETRIC, units
        s = disc.sqrt()
        return (max(abs(trace + s), abs(trace - s)) / 2).sqrt(), spectral.EXACT_GEOMETRIC, units


def one_step_roots(mu, support, q):
    """Roots (plus, minus) and discriminant of the one-step characteristic polynomial."""
    if support == cover.VERTICES:  # x**2 - ((q+1)/q) mu x + 1/q
        d = (q + 1) ** 2 * mu * mu - 4 * q
        s = np.sqrt(complex(d))
        return ((q + 1) * mu + s) / (2 * q), ((q + 1) * mu - s) / (2 * q), d
    b = q - 1 - 2 * mu * q  # x**2 + ((q-1-2 mu q)/q) x + 1/q
    d = b * b - 4 * q
    s = np.sqrt(complex(d))
    return (mu - (q - 1) / (2 * q)) + s / (2 * q), (mu - (q - 1) / (2 * q)) - s / (2 * q), d


def one_step_envelope(f0, f1, mu, support, q, n):
    """Profile envelope at the radii ``n`` of one eigenspace of a one-step regime."""
    a_plus, a_minus, d = one_step_roots(mu, support, q)
    if abs(d) <= spectral.DISCRIMINANT_TOL:  # (|f0| + |f1 / alpha - f0| n) |alpha|**n
        alpha = 0.5 * (a_plus + a_minus)
        return (abs(f0) + abs(f1 / alpha - f0) * n) * abs(alpha) ** n
    c_plus = abs((f1 - a_minus * f0) / (a_plus - a_minus))
    c_minus = abs((a_plus * f0 - f1) / (a_plus - a_minus))
    return c_plus * abs(a_plus) ** n + c_minus * abs(a_minus) ** n


def double_step_envelope(f0, f1, mu, p, q, n):
    """Profile envelope at the radii ``n`` of one eigenspace under the semiregular
    double step on the pair (F(n+1), F(n))."""
    t_plus, t_minus, d = spectral.transfer_eigenvalues(mu, p, q)
    a_mat = spectral.transfer_matrix(mu, p, q)
    w = np.array([f1, f0], dtype=complex)
    k = n // 2
    if abs(d) <= spectral.DISCRIMINANT_TOL:
        t = abs(t_plus + t_minus) / 2
        nil = float(np.linalg.norm(a_mat - ((t_plus + t_minus) / 2).real * np.eye(2), 2))
        env = np.linalg.norm(w) * (t ** k + k * t ** np.maximum(k - 1, 0) * nil)
    else:
        def eigvec(t):
            v1 = np.array([a_mat[0, 1], t - a_mat[0, 0]], dtype=complex)
            v2 = np.array([t - a_mat[1, 1], a_mat[1, 0]], dtype=complex)
            v = v1 if np.linalg.norm(v1) >= np.linalg.norm(v2) else v2
            return v / np.linalg.norm(v)

        v_plus, v_minus = eigvec(t_plus), eigvec(t_minus)
        a, b = np.linalg.solve(np.column_stack([v_plus, v_minus]), w)
        # radius 2k reads component 1 of the pair (F(2k+1), F(2k)), radius 2k+1 component 0
        comp = 1 - n % 2
        env = (np.abs(a * v_plus[comp]) * abs(t_plus) ** k
               + np.abs(b * v_minus[comp]) * abs(t_minus) ** k)
    return np.where(n == 0, abs(f0), np.where(n == 1, abs(f1), env))


def reference_envelope(g, f, base, theorem, radius, decomp):
    """The envelope of ``f`` at ``base`` summed eigenspace by eigenspace, from the
    initial values that ``envelope_series`` projects, bit for bit."""
    reg = spectral.regime(g, theorem, base)
    if reg.support == cover.VERTICES:
        rows0, rows1 = [g.tail(base)], [g.head(base)]
    else:
        rows0, rows1 = [g.edge_of(base)], [g.edge_of(h) for h in g.continuations(base)]
    coeffs = decomp.basis.T @ np.asarray(f.values)[:, None]
    starts = [a for a, _ in decomp.group_slices]
    f0s = np.add.reduceat(decomp.basis[rows0].mean(axis=0)[:, None] * coeffs, starts)[:, 0]
    f1s = np.add.reduceat(decomp.basis[rows1].mean(axis=0)[:, None] * coeffs, starts)[:, 0]
    n = np.arange(radius + 1)
    env = np.zeros(radius + 1)
    for mu, f0, f1 in zip(decomp.distinct, f0s.tolist(), f1s.tolist()):
        if abs(mu - 1.0) <= spectral.TRIVIAL_EIGENVALUE_TOL:
            continue
        if reg.p == reg.q:
            env += one_step_envelope(f0, f1, mu, reg.support, reg.q, n)
        else:
            env += double_step_envelope(f0, f1, mu, reg.p, reg.q, n)
    return env
