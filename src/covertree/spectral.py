"""Vertex and edge Laplacians, dense symmetric eigendecomposition, Fourier
activity of fields, and the three regimes with their decay rates.

A ``Regime``, built by ``regime(g, theorem, base)``, bundles what one theorem
needs: the classification gate, the field support, the tree degrees at the
base, the characteristic roots, the radial recursion and the rates.  A rate
is the per-radius factor rho such that arc averages of an eigenfunction's
lift deviate from the graph average by at most C * rho**r, together with the
qualitative kind of that bound.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from . import cover, graph_core
from .errors import (
    BipartiteEigenvalueError,
    ClassificationMismatchError,
    EigenvalueOutOfRangeError,
    ForbiddenGapEigenvalueError,
    NotRegularError,
    NotSimpleError,
    OnlyConstantSpectrumError,
    SpectralError,
    SupportMismatchError,
    UnsupportedDegreeStructureError,
)

EXACT_GEOMETRIC = "ExactGeometric"
POLYNOMIAL_FACTOR = "GeometricWithPolynomialFactor"
ONE_STEP = "ExactOneStep"

# Numerical policy: eigenvalues closer than the grouping tolerance form one
# eigenspace; a field is active on an eigenspace when its projection norm
# exceeds the activity threshold; |D| below the discriminant tolerance is
# treated as the repeated-root case.
GROUPING_TOL = 1e-8
ACTIVITY_TOL = 1e-9
DISCRIMINANT_TOL = 1e-10
TRIVIAL_EIGENVALUE_TOL = 1e-9


@dataclass(eq=False)
class LaplacianMatrix:
    """Degree-normalised adjacency operator, on vertices or on edges."""

    support: str       # cover.VERTICES or cover.EDGES
    matrix: np.ndarray
    divisor: int       # q+1 for the vertex case, 2q or p+q for the edge case

    @property
    def size(self):
        return self.matrix.shape[0]


def _adjacency(g):
    """Entry (u, v) counts half-edges u->v, so a loop adds 2 on its diagonal."""
    a = np.zeros((g.vertex_count, g.vertex_count))
    np.add.at(a, (g.tails, g.heads), 1.0)
    return a


def vertex_laplacian(g):
    """Neighbour-averaging operator on vertices of a constant-degree graph."""
    degs = set(g.degrees())
    if len(degs) != 1:
        raise NotRegularError(f"vertex degrees are not constant: {sorted(degs)}")
    d = degs.pop()
    if d == 0:
        raise NotRegularError("isolated vertex has no neighbour average")
    return LaplacianMatrix(cover.VERTICES, _adjacency(g) / d, d)


def edge_laplacian(g):
    """Neighbour-averaging operator on edges, i.e. the vertex operator of the
    line graph; defined for simple regular (degree >= 3) or semiregular
    (p, q >= 2) graphs, where the edge degree is the constant 2q or p + q."""
    if not g.is_simple():
        raise NotSimpleError("edge Laplacian requires a simple graph")
    cls = graph_core.classify(g)
    if cls.kind in (graph_core.REGULAR, graph_core.REGULAR_BIPARTITE):
        divisor = 2 * cls.q
    elif cls.kind == graph_core.SEMIREGULAR and cls.p >= 2:
        divisor = cls.p + cls.q
    else:
        raise UnsupportedDegreeStructureError(
            "edge Laplacian requires a regular (degree >= 3) or semiregular (p, q >= 2) graph"
        )
    incident = [[g.edge_of(h) for h in g.out(v)] for v in range(g.vertex_count)]
    a = np.zeros((g.edge_count, g.edge_count))
    for d in set(map(len, incident)):  # the line graph's edges: pairs of edges at a vertex
        at = np.array([row for row in incident if len(row) == d])
        a[at[:, :, None], at[:, None, :]] = 1.0
    np.fill_diagonal(a, 0.0)
    return LaplacianMatrix(cover.EDGES, a / divisor, divisor)


@dataclass(eq=False)
class SpectralDecomposition:
    """Sorted orthonormal eigenpairs with eigenvalues grouped into eigenspaces."""

    support: str                   # cover.VERTICES or cover.EDGES
    eigenvalues: np.ndarray        # ascending, with multiplicity
    basis: np.ndarray              # column i pairs with eigenvalues[i]
    group_slices: tuple[tuple[int, int], ...]
    distinct: tuple[float, ...] = field(init=False)   # mean eigenvalue per group

    def __post_init__(self):
        self.distinct = tuple(_by_group(self.eigenvalues, self.group_slices, np.mean).tolist())

    def multiplicity(self, k):
        a, b = self.group_slices[k]
        return b - a

    def group_basis(self, k):
        a, b = self.group_slices[k]
        return self.basis[:, a:b]


def _by_group(values, slices, reduce):
    """``reduce`` over each group's slice of ``values``; a one-element group is its element."""
    starts, stops = np.array(slices, dtype=np.intp).reshape(-1, 2).T
    out = values[starts]
    for k in np.flatnonzero(stops - starts > 1).tolist():
        out[k] = reduce(values[starts[k]:stops[k]])
    return out


def eig_sym(lap):
    """Full eigendecomposition of a Laplacian by LAPACK's symmetric solver."""
    w, v = np.linalg.eigh(lap.matrix)
    order = np.argsort(w, kind="stable")
    w = w[order]
    v = v[:, order]
    cuts = (np.flatnonzero(np.diff(w) > GROUPING_TOL) + 1).tolist()
    return SpectralDecomposition(lap.support, w, v, tuple(zip([0, *cuts], [*cuts, len(w)])))


def fourier_coefficients(f, decomp):
    """Coefficients of the field in the eigenbasis, plus per-eigenspace norms.

    Coefficients use the plain sum inner product; an eigenspace with norm
    below the activity threshold is inactive for this field.  A norm past
    the float range raises ``SpectralError``.
    """
    if f.support != decomp.support:
        raise SupportMismatchError(
            f"field on {f.support} cannot expand in an eigenbasis on {decomp.support}"
        )
    if len(f.values) != decomp.basis.shape[0]:
        raise SupportMismatchError("field length does not match the eigenbasis")
    with np.errstate(over="ignore", invalid="ignore"):
        coeffs = decomp.basis.T @ f.values
        norms = np.sqrt(_by_group(coeffs ** 2, decomp.group_slices, np.sum))
    if not np.isfinite(norms).all():
        raise SpectralError("field values too large: a Fourier projection norm overflows")
    return coeffs, norms


# --- the semiregular double step in closed form ---

class DiscriminantRoots(NamedTuple):
    """The four eigenvalues where the two-step discriminant vanishes, ascending:
    m_minus_plus < m_minus_minus <= m_plus_minus < m_plus_plus (first sign =
    outer square root, second sign = the sign inside (sqrt(p) +- sqrt(q))**2)."""

    m_minus_plus: float
    m_minus_minus: float
    m_plus_minus: float
    m_plus_plus: float


def discriminant_roots(p, q):
    out = {}
    for outer in (+1, -1):
        for inner in (+1, -1):
            c = (math.sqrt(p) + inner * math.sqrt(q)) ** 2
            r = (p + q - 2 + outer * math.sqrt((p - q) ** 2 + 4 * c)) / (2 * (p + q))
            out[(outer, inner)] = r
    return DiscriminantRoots(out[(-1, +1)], out[(-1, -1)], out[(+1, -1)], out[(+1, +1)])


def critical_point(p, q):
    """The unique stationary point of the two-step eigenvalues; it falls inside
    the forbidden spectral gap."""
    return (p + q - 2) / (2 * (p + q))


def transfer_matrix(mu, p, q):
    """2x2 matrix advancing two consecutive radial averages by a double step
    on the covering tree of a semiregular graph (arc based on the degree-(p+1)
    side)."""
    a = p - 1 - mu * (p + q)
    b = q - 1 - mu * (p + q)
    return np.array([
        [(a * b - p) / (p * q), a / (p * q)],
        [-b / p, -1.0 / p],
    ])


def transfer_eigenvalues(mu, p, q):
    """Eigenvalue pair (t_plus, t_minus) of the double-step matrix and the
    discriminant D; the pair is complex conjugate with modulus (pq)**-1/2
    when D < 0, and t_plus * t_minus = 1/(pq) always."""
    a = p - 1 - mu * (p + q)
    b = q - 1 - mu * (p + q)
    trace_num = a * b - p - q
    d = trace_num * trace_num - 4 * p * q
    s = math.sqrt(d) if d >= 0 else cmath.sqrt(complex(d))
    return (trace_num + s) / (2 * p * q), (trace_num - s) / (2 * p * q), d


def forbidden_gap(p, q):
    """Open eigenvalue interval that the edge Laplacian of a semiregular graph
    cannot meet; empty when p == q."""
    lo, hi = sorted((p, q))
    return (lo - 1) / (p + q), (hi - 1) / (p + q)


# --- the three regimes ---

@dataclass(frozen=True)
class Regime:
    """One of the three regimes at a base half-edge: functions on the
    vertices of a regular graph (theorem 1), on the edges of a regular graph
    (theorem 2) or on the edges of a semiregular graph (theorem 3).  Each is
    one radial recursion of Hashimoto's non-backtracking operator, read
    through the Ihara-Bass correspondence (Kotani-Sunada 2000).

    ``p`` + 1 and ``q`` + 1 are the tree degrees at the base's tail and head;
    they differ only in regime 3.  Every regime's recursion is read through
    its double step, whose two halves are equal in regimes 1 and 2.
    """

    theorem: int
    cls: graph_core.Classification
    support: str       # cover.VERTICES or cover.EDGES
    p: int
    q: int

    def rates(self, mus):
        """Per-radius decay rates and their kinds at every eigenvalue of the
        array ``mus``, from the double step's roots: sqrt(max |t+-|) for a real
        pair, else (D0 D1)**-1/4, with a polynomial factor at a repeated root
        unless T is scalar (c0 = c1 = 0 within sqrt(DISCRIMINANT_TOL), which
        equal halves allow at mu = 0 in regime 1 and (q-1)/(2q) in regime 2).
        The trivial eigenvalue takes one step.  At the low end of the range, -1
        on vertices needs the bipartite treatment, and the vanishing-star
        condition gives -2/(p+q) on edges the exact rate (D0 D1)**-1/2.  The
        first eigenvalue outside the range or inside the forbidden gap raises."""
        mus = np.asarray(mus, dtype=float)
        vertex = self.support == cover.VERTICES
        lo = -1.0 if vertex else -2.0 / (self.p + self.q)
        gap_lo, gap_hi = forbidden_gap(self.p, self.q)
        one, low = (np.abs(mus - end) <= TRIVIAL_EIGENVALUE_TOL for end in (1.0, lo))
        outside = ~one & ~low & ((mus > 1.0) | (mus < lo))
        gap = (gap_lo + TRIVIAL_EIGENVALUE_TOL < mus) & (mus < gap_hi - TRIVIAL_EIGENVALUE_TOL)
        bad = np.flatnonzero(outside | gap | (low & vertex))
        if bad.size:
            i = bad[0]
            if outside[i]:
                raise EigenvalueOutOfRangeError(f"eigenvalue {mus[i]} outside [{lo}, 1]")
            if gap[i]:
                raise ForbiddenGapEigenvalueError(
                    f"eigenvalue {mus[i]} lies in the forbidden gap ({gap_lo}, {gap_hi})")
            raise BipartiteEigenvalueError("eigenvalue -1 needs the even/odd bipartite treatment")
        c0, c1 = self.coefficients(mus)
        t_plus, t_minus, d = self.roots(c0, c1)
        pq = self.p * self.q   # = D0 D1 in every regime
        betas = np.where(d > DISCRIMINANT_TOL,
                         np.sqrt(np.maximum(np.abs(t_plus), np.abs(t_minus))), pq ** -0.25)
        betas[low], betas[one] = pq ** -0.5, 0.0
        factor = (np.abs(d) <= DISCRIMINANT_TOL) & (
            np.maximum(np.abs(c0), np.abs(c1)) > math.sqrt(DISCRIMINANT_TOL))
        return betas, np.where(one, ONE_STEP, np.where(factor, POLYNOMIAL_FACTOR, EXACT_GEOMETRIC))

    def roots(self, c0, c1):
        """Complex roots (t_plus, t_minus) and discriminant of the double step
        T = M_odd M_even at the step coefficients ``c0``, ``c1`` of an array of
        eigenvalues (see coefficients): T has trace (c0 c1 - D0 - D1) / (D0 D1)
        and determinant 1 / (D0 D1), and each parity of a radial profile, F(0),
        F(2), .. and F(1), F(3), .., is a two-term sequence with these roots.
        The discriminant, in units of (D0 D1)**-2, is summed as
        c0 c1 (c0 c1 - 2 D0 - 2 D1) + (D0 - D1)**2, which in regimes 1 and 2 is
        c**2 times the one-step one: no cancellation where T is nearly scalar."""
        (_, _, d0), (_, _, d1) = self.steps()
        cc = c0 * c1
        d = cc * (cc - 2 * (d0 + d1)) + (d0 - d1) ** 2
        num, s = cc - (d0 + d1), np.sqrt(np.asarray(d, dtype=complex))
        return (num + s) / (2 * d0 * d1), (num - s) / (2 * d0 * d1), d

    def coefficients(self, mus):
        """Step coefficients (c0, c1), c_i = mu A_i - B_i, at every eigenvalue of ``mus``."""
        (a0, b0, _), (a1, b1, _) = self.steps()
        return mus * a0 - b0, mus * a1 - b1

    def steps(self):
        """Coefficients (A, B, D) of  F(n) = ((mu A - B) F(n-1) - F(n-2)) / D
        at even and at odd n."""
        if self.support == cover.VERTICES:
            return ((self.q + 1, 0, self.q),) * 2
        s = self.p + self.q
        return (s, self.q - 1, self.p), (s, self.p - 1, self.q)


def regime(g, theorem, base=0):
    """The regime of ``theorem`` on ``g`` at the half-edge ``base``, after
    the classification gate.

    Regime 1 needs a nonbipartite regular graph and works on vertices; regime
    2 a simple regular graph on edges; regime 3 a simple semiregular graph
    with p, q >= 2 on edges.
    """
    cls = graph_core.classify(g)
    if theorem == 1:
        if cls.kind != graph_core.REGULAR:
            raise ClassificationMismatchError(
                f"regime 1 needs a nonbipartite regular graph of degree >= 3, got {cls.kind}"
            )
    elif theorem == 2:
        if cls.kind not in (graph_core.REGULAR, graph_core.REGULAR_BIPARTITE) or not cls.simple:
            raise ClassificationMismatchError(
                f"regime 2 needs a simple regular graph of degree >= 3, got {cls.kind}"
            )
    elif theorem == 3:
        if cls.kind != graph_core.SEMIREGULAR or not cls.simple or cls.p < 2:
            raise ClassificationMismatchError(
                f"regime 3 needs a simple semiregular graph with p, q >= 2, got {cls.kind}"
                + (f" (p={cls.p})" if cls.kind == graph_core.SEMIREGULAR else "")
            )
    else:
        raise ValueError(f"theorem selector must be 1, 2 or 3, got {theorem}")
    support = cover.VERTICES if theorem == 1 else cover.EDGES
    return Regime(theorem, cls, support,
                  g.degree(g.tail(base)) - 1, g.degree(g.head(base)) - 1)


def radial_series(f0, f1, mu, regime, n_max):
    """Radial averages F(0..n_max) of an eigenfunction lift, by exact recursion
    iteration from the two initial values under the ``Regime``'s steps; arrays
    ``f0``, ``f1``, ``mu`` of shape (m,) give (n_max + 1, m), with the same bits."""
    values = [np.asarray(f0, dtype=float), np.asarray(f1, dtype=float)]
    steps = regime.steps()
    for n in range(2, n_max + 1):
        a, b, d = steps[n % 2]
        values.append(((mu * a - b) * values[-1] - values[-2]) / d)
    series = np.array(values[: n_max + 1])
    return series.tolist() if series.ndim == 1 else series


# --- rate prediction for a whole field ---

@dataclass(frozen=True)
class EigenvalueRate:
    mu: float
    multiplicity: int
    beta: float
    kind: str
    active: bool
    fourier_norm: float | None


@dataclass(frozen=True)
class RatePrediction:
    """Per-eigenvalue decay rates and the overall rate over active eigenspaces."""

    theorem: int
    per_eigenvalue: tuple[EigenvalueRate, ...]
    beta_max: float
    beta_max_kind: str
    active_only: bool


def theorem_laplacian(g, theorem):
    """Classification gate plus the Laplacian of the regime: returns
    (laplacian, regime at base 0)."""
    reg = regime(g, theorem)
    return (vertex_laplacian(g) if reg.support == cover.VERTICES else edge_laplacian(g)), reg


def rate_prediction(g, theorem, f=None, decomp=None):
    """Overall decay rate for a field (or the whole spectrum when ``f`` is None).

    Eigenspaces on which the field's projection norm stays below the activity
    threshold do not constrain the rate; activity is decided on projections,
    never on individual coefficients of a multiple eigenvalue.
    """
    reg = regime(g, theorem)
    if decomp is None:
        decomp = eig_sym(theorem_laplacian(g, theorem)[0])
    norms = (fourier_coefficients(f, decomp)[1].tolist() if f is not None
             else [None] * len(decomp.distinct))
    betas, kinds = reg.rates(np.array(decomp.distinct))
    rows = [EigenvalueRate(mu, decomp.multiplicity(k), beta, kind,
                           norm is None or norm > ACTIVITY_TOL, norm)
            for k, (mu, beta, kind, norm) in enumerate(
                zip(decomp.distinct, betas.tolist(), kinds.tolist(), norms))]
    candidates = [r for r in rows
                  if r.active and abs(r.mu - 1.0) > TRIVIAL_EIGENVALUE_TOL]
    if not candidates:
        raise OnlyConstantSpectrumError(
            "field is constant: only the trivial eigenvalue is active"
        )
    best = max(candidates, key=lambda r: r.beta)
    return RatePrediction(theorem, tuple(rows), best.beta, best.kind, f is not None)


def write_spectrum_csv(prediction):
    """Spectrum report rows: mu, multiplicity, beta, kind, active (15 significant digits)."""
    lines = ["mu,multiplicity,beta,kind,active"]
    for row in prediction.per_eigenvalue:
        lines.append(
            f"{row.mu:.15g},{row.multiplicity},{row.beta:.15g},{row.kind},"
            + ("true" if row.active else "false")
        )
    return "\n".join(lines) + "\n"
