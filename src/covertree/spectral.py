"""Vertex and edge Laplacians, dense symmetric eigendecomposition, Fourier
activity of fields, and per-eigenvalue radial decay rates.

The decay-rate functions return the per-radius factor rho such that arc
averages of an eigenfunction's lift deviate from the graph average by at most
C * rho**r, together with the qualitative kind of that bound.
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

VERTEX = "vertex"
EDGE = "edge"


@dataclass(eq=False)
class LaplacianMatrix:
    """Degree-normalised adjacency operator, on vertices or on edges."""

    kind: str          # VERTEX or EDGE
    matrix: np.ndarray
    divisor: int       # q+1 for the vertex case, 2q or p+q for the edge case

    @property
    def size(self):
        return self.matrix.shape[0]

    def field_support(self):
        return cover.VERTICES if self.kind == VERTEX else cover.EDGES


def vertex_laplacian(g):
    """Neighbour-averaging operator on vertices of a constant-degree graph.

    Entry (u, v) counts half-edges u->v, so a loop adds 2 on its diagonal.
    """
    degs = set(g.degrees())
    if len(degs) != 1:
        raise NotRegularError(f"vertex degrees are not constant: {sorted(degs)}")
    d = degs.pop()
    if d == 0:
        raise NotRegularError("isolated vertex has no neighbour average")
    a = np.zeros((g.vertex_count, g.vertex_count))
    for h in range(g.half_edge_count):
        a[g.tail(h), g.head(h)] += 1.0
    return LaplacianMatrix(VERTEX, a / d, d)


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
    lg = graph_core.line_graph(g)
    a = np.zeros((lg.vertex_count, lg.vertex_count))
    for h in range(lg.half_edge_count):
        a[lg.tail(h), lg.head(h)] += 1.0
    return LaplacianMatrix(EDGE, a / divisor, divisor)


@dataclass(eq=False)
class SpectralDecomposition:
    """Sorted orthonormal eigenpairs with eigenvalues grouped into eigenspaces."""

    kind: str
    eigenvalues: np.ndarray        # ascending, with multiplicity
    basis: np.ndarray              # column i pairs with eigenvalues[i]
    group_slices: tuple[tuple[int, int], ...]
    distinct: tuple[float, ...] = field(init=False)   # mean eigenvalue per group

    def __post_init__(self):
        self.distinct = tuple(
            float(np.mean(self.eigenvalues[a:b])) for a, b in self.group_slices
        )

    def multiplicity(self, k):
        a, b = self.group_slices[k]
        return b - a

    def group_basis(self, k):
        a, b = self.group_slices[k]
        return self.basis[:, a:b]

    def projection(self, k):
        b = self.group_basis(k)
        return b @ b.T

    def project(self, k, values):
        b = self.group_basis(k)
        return b @ (b.T @ values)

    def projection_norm(self, k, values):
        return float(np.linalg.norm(self.group_basis(k).T @ values))

    def field_support(self):
        return cover.VERTICES if self.kind == VERTEX else cover.EDGES

    def reconstruct(self):
        return (self.basis * self.eigenvalues) @ self.basis.T


def eig_sym(lap):
    """Full eigendecomposition of a Laplacian by LAPACK's symmetric solver."""
    w, v = np.linalg.eigh(lap.matrix)
    order = np.argsort(w, kind="stable")
    w = w[order]
    v = v[:, order]
    slices = []
    start = 0
    for i in range(1, len(w) + 1):
        if i == len(w) or w[i] - w[i - 1] > GROUPING_TOL:
            slices.append((start, i))
            start = i
    return SpectralDecomposition(lap.kind, w, v, tuple(slices))


def fourier_coefficients(f, decomp):
    """Coefficients of the field in the eigenbasis, plus per-eigenspace norms.

    Coefficients use the plain sum inner product; an eigenspace with norm
    below the activity threshold is inactive for this field.
    """
    if f.support != decomp.field_support():
        raise SupportMismatchError(
            f"field on {f.support} cannot expand in a {decomp.kind} eigenbasis"
        )
    if len(f.values) != decomp.basis.shape[0]:
        raise SupportMismatchError("field length does not match the eigenbasis")
    coeffs = decomp.basis.T @ f.values
    norms = np.array([
        math.sqrt(float(np.sum(coeffs[a:b] ** 2))) for a, b in decomp.group_slices
    ])
    return coeffs, norms


# --- per-eigenvalue decay rates ---

def characteristic_roots_regular_vertex(mu, q):
    """Roots of  x**2 - ((q+1)/q) mu x + 1/q,  complex pair when D < 0."""
    d = (q + 1) ** 2 * mu * mu - 4 * q
    s = math.sqrt(d) if d >= 0 else cmath.sqrt(d)
    return ((q + 1) * mu + s) / (2 * q), ((q + 1) * mu - s) / (2 * q), d


def characteristic_roots_regular_edge(mu, q):
    """Roots of  x**2 + ((q-1-2 mu q)/q) x + 1/q."""
    b = q - 1 - 2 * mu * q
    d = b * b - 4 * q
    s = math.sqrt(d) if d >= 0 else cmath.sqrt(d)
    return (mu - (q - 1) / (2 * q)) + s / (2 * q), (mu - (q - 1) / (2 * q)) - s / (2 * q), d


def decay_rate_regular_vertex(mu, q):
    """Per-radius decay rate for a vertex-Laplacian eigenvalue of a regular graph.

    The three discriminant cases give q**-1/2 (complex pair), q**-1/2 with a
    polynomial factor (repeated root), or the larger root modulus (real pair).
    """
    if abs(mu - 1.0) <= TRIVIAL_EIGENVALUE_TOL:
        return 0.0, ONE_STEP
    if abs(mu + 1.0) <= TRIVIAL_EIGENVALUE_TOL:
        raise BipartiteEigenvalueError(
            "eigenvalue -1 needs the even/odd bipartite treatment"
        )
    if abs(mu) > 1.0:
        raise EigenvalueOutOfRangeError(f"vertex eigenvalue {mu} outside [-1, 1]")
    d = (q + 1) ** 2 * mu * mu - 4 * q
    if abs(d) <= DISCRIMINANT_TOL:
        return q ** -0.5, POLYNOMIAL_FACTOR
    if d < 0:
        return q ** -0.5, EXACT_GEOMETRIC
    return ((q + 1) * abs(mu) + math.sqrt(d)) / (2 * q), EXACT_GEOMETRIC


def decay_rate_regular_edge(mu, q):
    """Per-radius decay rate for an edge-Laplacian eigenvalue of a regular graph.

    At mu = -1/q one characteristic root has modulus one, but eigenfunctions
    there satisfy the vanishing-star condition, which kills that component and
    leaves the exact rate 1/q.
    """
    if abs(mu - 1.0) <= TRIVIAL_EIGENVALUE_TOL:
        return 0.0, ONE_STEP
    if mu > 1.0 or mu < -1.0 / q - TRIVIAL_EIGENVALUE_TOL:
        raise EigenvalueOutOfRangeError(f"edge eigenvalue {mu} outside [-1/{q}, 1]")
    if abs(mu + 1.0 / q) <= TRIVIAL_EIGENVALUE_TOL:
        return 1.0 / q, EXACT_GEOMETRIC
    b = q - 1 - 2 * mu * q
    d = b * b - 4 * q
    if abs(d) <= DISCRIMINANT_TOL:
        return q ** -0.5, POLYNOMIAL_FACTOR
    if d < 0:
        return q ** -0.5, EXACT_GEOMETRIC
    hi, lo, _ = characteristic_roots_regular_edge(mu, q)
    return max(abs(hi), abs(lo)), EXACT_GEOMETRIC


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


def decay_rate_semiregular_edge(mu, p, q):
    """Per-radius decay rate for an edge-Laplacian eigenvalue of a semiregular
    graph, converted from the double-step rates: rho with |F(n)| <= C rho**n.

    Eigenvalues strictly inside the forbidden gap cannot occur and are
    rejected.  At mu = -2/(p+q) the vanishing-star condition gives the exact
    alternating rate (pq)**-1/2.
    """
    lo = -2.0 / (p + q)
    if abs(mu - 1.0) <= TRIVIAL_EIGENVALUE_TOL:
        return 0.0, ONE_STEP
    if mu > 1.0 or mu < lo - TRIVIAL_EIGENVALUE_TOL:
        raise EigenvalueOutOfRangeError(f"edge eigenvalue {mu} outside [{lo}, 1]")
    if abs(mu - lo) <= TRIVIAL_EIGENVALUE_TOL:
        return (p * q) ** -0.5, EXACT_GEOMETRIC
    gap_lo, gap_hi = forbidden_gap(p, q)
    if gap_lo + TRIVIAL_EIGENVALUE_TOL < mu < gap_hi - TRIVIAL_EIGENVALUE_TOL:
        raise ForbiddenGapEigenvalueError(
            f"eigenvalue {mu} lies in the forbidden gap ({gap_lo}, {gap_hi})"
        )
    t_plus, t_minus, d = transfer_eigenvalues(mu, p, q)
    if abs(d) <= DISCRIMINANT_TOL:
        return (p * q) ** -0.25, POLYNOMIAL_FACTOR
    if d < 0:
        return (p * q) ** -0.25, EXACT_GEOMETRIC
    return math.sqrt(max(abs(t_plus), abs(t_minus))), EXACT_GEOMETRIC


# --- radial recursion regimes ---

@dataclass(frozen=True)
class RegularVertex:
    q: int


@dataclass(frozen=True)
class RegularEdge:
    q: int


@dataclass(frozen=True)
class SemiregularEdge:
    """Edge recursion on a semiregular cover; ``p`` + 1 is the degree of the
    vertex the arc is based at, ``q`` + 1 the degree across the base edge."""

    p: int
    q: int


def radial_series(f0, f1, mu, regime, n_max):
    """Radial averages F(0..n_max) of an eigenfunction lift, by exact recursion
    iteration from the two initial values."""
    values = [float(f0), float(f1)]
    if isinstance(regime, RegularVertex):
        q = regime.q
        for _ in range(2, n_max + 1):
            values.append(((q + 1) * mu * values[-1] - values[-2]) / q)
    elif isinstance(regime, RegularEdge):
        q = regime.q
        for _ in range(2, n_max + 1):
            values.append(-((q - 1 - 2 * mu * q) * values[-1] + values[-2]) / q)
    elif isinstance(regime, SemiregularEdge):
        p, q = regime.p, regime.q
        s = p + q
        for n in range(2, n_max + 1):
            if n % 2 == 0:
                values.append(((mu * s - (q - 1)) * values[-1] - values[-2]) / p)
            else:
                values.append(((mu * s - (p - 1)) * values[-1] - values[-2]) / q)
    else:
        raise TypeError(f"unknown recursion regime {regime!r}")
    return values[: n_max + 1]


def predicted_radial_average(f0, f1, mu, regime, n):
    """F(n) from the radial recursion; cross-checks brute-force arc averages."""
    return radial_series(f0, f1, mu, regime, n)[n]


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

    def row_for(self, mu, tol=GROUPING_TOL):
        for row in self.per_eigenvalue:
            if abs(row.mu - mu) <= tol:
                return row
        raise KeyError(f"no eigenvalue near {mu}")


def theorem_classification(g, theorem):
    """Classification gate for one of the three regimes.

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
        return cls
    if theorem == 2:
        if cls.kind not in (graph_core.REGULAR, graph_core.REGULAR_BIPARTITE) or not cls.simple:
            raise ClassificationMismatchError(
                f"regime 2 needs a simple regular graph of degree >= 3, got {cls.kind}"
            )
        return cls
    if theorem == 3:
        if cls.kind != graph_core.SEMIREGULAR or not cls.simple or cls.p < 2:
            raise ClassificationMismatchError(
                f"regime 3 needs a simple semiregular graph with p, q >= 2, got {cls.kind}"
                + (f" (p={cls.p})" if cls.kind == graph_core.SEMIREGULAR else "")
            )
        return cls
    raise ValueError(f"theorem selector must be 1, 2 or 3, got {theorem}")


def theorem_laplacian(g, theorem):
    """Classification gate plus the Laplacian of the regime: returns
    (laplacian, classification)."""
    cls = theorem_classification(g, theorem)
    return (vertex_laplacian(g) if theorem == 1 else edge_laplacian(g)), cls


def decay_rate_for(cls, theorem, mu):
    if theorem == 1:
        return decay_rate_regular_vertex(mu, cls.q)
    if theorem == 2:
        return decay_rate_regular_edge(mu, cls.q)
    return decay_rate_semiregular_edge(mu, cls.p, cls.q)


def rate_prediction(g, theorem, f=None, decomp=None):
    """Overall decay rate for a field (or the whole spectrum when ``f`` is None).

    Eigenspaces on which the field's projection norm stays below the activity
    threshold do not constrain the rate; activity is decided on projections,
    never on individual coefficients of a multiple eigenvalue.
    """
    lap, cls = theorem_laplacian(g, theorem)
    if decomp is None:
        decomp = eig_sym(lap)
    norms = None
    if f is not None:
        _, norms = fourier_coefficients(f, decomp)
    rows = []
    for k, mu in enumerate(decomp.distinct):
        beta, kind = decay_rate_for(cls, theorem, mu)
        norm = float(norms[k]) if norms is not None else None
        active = True if norms is None else norm > ACTIVITY_TOL
        rows.append(EigenvalueRate(mu, decomp.multiplicity(k), beta, kind, active, norm))
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
