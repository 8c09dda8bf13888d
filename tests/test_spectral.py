import math
from decimal import Decimal

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from covertree import cover, graph_core, spectral
from covertree.cli import random_field
from covertree.cover import EDGES, VERTICES, ScalarField
from covertree.errors import (
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
from covertree.spectral import (
    EXACT_GEOMETRIC,
    ONE_STEP,
    POLYNOMIAL_FACTOR,
    critical_point,
    discriminant_roots,
    edge_laplacian,
    eig_sym,
    forbidden_gap,
    fourier_coefficients,
    radial_series,
    rate_prediction,
    regime,
    transfer_eigenvalues,
    transfer_matrix,
    vertex_laplacian,
    write_spectrum_csv,
)

import reference_envelope

PQ_GRID = [(p, q) for p in (2, 3, 4, 5) for q in (2, 3, 4, 5)]


def _spectrum(decomp):
    return {round(mu, 9): decomp.multiplicity(k) for k, mu in enumerate(decomp.distinct)}


# --- Laplacian construction ---

def test_vertex_laplacian_k4(k4):
    lap = vertex_laplacian(k4)
    assert lap.divisor == 3
    assert np.allclose(lap.matrix, lap.matrix.T, atol=1e-14)
    assert np.allclose(lap.matrix.sum(axis=1), 1.0)
    assert _spectrum(eig_sym(lap)) == {1.0: 1, round(-1 / 3, 9): 3}


def test_vertex_laplacian_petersen(petersen):
    got = _spectrum(eig_sym(vertex_laplacian(petersen)))
    assert got == {1.0: 1, round(1 / 3, 9): 5, round(-2 / 3, 9): 4}


def test_vertex_laplacian_bipartite_has_minus_one(k33):
    decomp = eig_sym(vertex_laplacian(k33))
    assert min(decomp.distinct) == pytest.approx(-1.0, abs=1e-12)


def test_vertex_laplacian_loops_count_double():
    g = graph_core.build_graph(1, [(0, 0)], allows_loops=True)
    lap = vertex_laplacian(g)
    assert lap.matrix[0, 0] == 1.0 and lap.divisor == 2


def test_vertex_laplacian_not_regular():
    g = graph_core.build_graph(3, [(0, 1), (1, 2)])
    with pytest.raises(NotRegularError):
        vertex_laplacian(g)


def test_edge_laplacian_k4(k4):
    lap = edge_laplacian(k4)
    assert lap.divisor == 4
    assert _spectrum(eig_sym(lap)) == {1.0: 1, 0.0: 3, -0.5: 2}


def test_edge_laplacian_k34(k34):
    lap = edge_laplacian(k34)
    assert lap.divisor == 5
    assert _spectrum(eig_sym(lap)) == {1.0: 1, 0.4: 2, 0.2: 3, -0.4: 6}


def test_edge_laplacian_eigenvalue_floor(k4, k33, k34):
    # line-graph adjacency eigenvalues are never below -2
    for g, lo in ((k4, -0.5), (k33, -0.5), (k34, -0.4)):
        decomp = eig_sym(edge_laplacian(g))
        assert min(decomp.distinct) >= lo - 1e-12


def test_edge_laplacian_rejections(k23):
    with pytest.raises(NotSimpleError):
        edge_laplacian(graph_core.build_graph(2, [(0, 1), (0, 1)], allows_multi=True))
    with pytest.raises(UnsupportedDegreeStructureError):
        edge_laplacian(graph_core.generate("cycle_with_chords", 6))
    with pytest.raises(UnsupportedDegreeStructureError):
        edge_laplacian(k23)  # p = 1


@pytest.mark.parametrize("name", ["k4", "petersen", "k33", "k34", "k35", "cubic-60"])
def test_edge_laplacian_is_the_line_graph_adjacency(name, request, seeded_cubic):
    # filled from each vertex's incident edges, it equals the line graph's
    # adjacency over the edge degree bit for bit
    g = {"k35": lambda: graph_core.generate("complete_bipartite", 3, 5),
         "cubic-60": lambda: seeded_cubic(60, 60)}.get(name, lambda: request.getfixturevalue(name))()
    lap = edge_laplacian(g)
    expected = spectral._adjacency(graph_core.line_graph(g)) / lap.divisor
    assert lap.matrix.dtype == expected.dtype and lap.matrix.tobytes() == expected.tobytes()


@pytest.mark.parametrize("g, error, message", [
    (graph_core.build_graph(3, [(0, 1), (0, 1), (1, 2), (2, 0)], allows_multi=True),
     NotSimpleError, "^edge Laplacian requires a simple graph$"),
    (graph_core.generate("complete_bipartite", 2, 5), UnsupportedDegreeStructureError,
     r"^edge Laplacian requires a regular \(degree >= 3\) or semiregular \(p, q >= 2\) graph$"),
    (graph_core.build_graph(5, [(0, 1), (1, 2), (2, 0), (2, 3), (3, 4)]),  # irregular
     UnsupportedDegreeStructureError, r"^edge Laplacian requires a regular"),
])
def test_edge_laplacian_raises_as_before(g, error, message):
    with pytest.raises(error, match=message):
        edge_laplacian(g)


# --- eigensolver ---

def test_eig_sym_two_by_two():
    lap = spectral.LaplacianMatrix(VERTICES, np.array([[0.0, 1.0], [1.0, 0.0]]), 1)
    decomp = eig_sym(lap)
    assert np.allclose(decomp.eigenvalues, [-1.0, 1.0], atol=1e-12)


@pytest.mark.parametrize("name", ["k4", "petersen", "k33", "k34", "cubic-60"])
def test_grouping_and_norms_have_the_bits_of_the_per_group_loop(name, request, seeded_cubic):
    # groups of one take their element; larger groups keep np.mean and np.sum
    g = seeded_cubic(60, 60) if name == "cubic-60" else request.getfixturevalue(name)
    regular = graph_core.classify(g).kind != graph_core.SEMIREGULAR
    for lap in ([vertex_laplacian(g)] if regular else []) + [edge_laplacian(g)]:
        decomp = eig_sym(lap)
        w, slices, start = decomp.eigenvalues, [], 0
        for i in range(1, len(w) + 1):
            if i == len(w) or w[i] - w[i - 1] > spectral.GROUPING_TOL:
                slices.append((start, i))
                start = i
        assert decomp.group_slices == tuple(slices)
        assert decomp.distinct == tuple(float(np.mean(w[a:b])) for a, b in slices)
        coeffs, norms = fourier_coefficients(random_field(g, lap.support, 3), decomp)
        assert norms.tolist() == [math.sqrt(float(np.sum(coeffs[a:b] ** 2))) for a, b in slices]


@pytest.mark.parametrize("builder", [
    lambda g: vertex_laplacian(g),
    lambda g: edge_laplacian(g),
])
def test_eig_sym_invariants(petersen, builder):
    lap = builder(petersen)
    decomp = eig_sym(lap)
    n = lap.size
    # residual per pair
    res = lap.matrix @ decomp.basis - decomp.basis * decomp.eigenvalues
    assert np.max(np.abs(res)) <= 1e-10
    # reconstruction
    reconstructed = (decomp.basis * decomp.eigenvalues) @ decomp.basis.T
    assert np.max(np.abs(reconstructed - lap.matrix)) <= 1e-9
    # orthonormal basis, idempotent mutually orthogonal projections
    assert np.max(np.abs(decomp.basis.T @ decomp.basis - np.eye(n))) <= 1e-9

    def projection(k):
        b = decomp.group_basis(k)
        return b @ b.T

    for k in range(len(decomp.distinct)):
        pk = projection(k)
        assert np.max(np.abs(pk @ pk - pk)) <= 1e-9
        for j in range(k):
            assert np.max(np.abs(pk @ projection(j))) <= 1e-9
    # matches an independent dense solver
    assert np.allclose(np.sort(decomp.eigenvalues),
                       np.linalg.eigvalsh(lap.matrix), atol=1e-10)


@pytest.mark.parametrize("case", ["cubic-60", "cubic-120", "cubic-240",
                                  "petersen-edge", "k34-edge"])
def test_eig_sym_residual_orthonormality_order(case, request, seeded_cubic):
    if case.startswith("cubic"):
        n = int(case.split("-")[1])
        lap = vertex_laplacian(seeded_cubic(n, n))
    else:
        lap = edge_laplacian(request.getfixturevalue(case.split("-")[0]))
    decomp = eig_sym(lap)
    v, w = decomp.basis, decomp.eigenvalues
    assert np.max(np.abs(lap.matrix @ v - v * w)) <= 1e-12
    assert np.max(np.abs(v.T @ v - np.eye(lap.size))) <= 1e-12
    assert np.all(np.diff(w) >= 0)


def test_eig_sym_trivial_eigenvalue_simple(k4, petersen, k33, k34):
    for g, lap in ((k4, vertex_laplacian(k4)), (petersen, vertex_laplacian(petersen)),
                   (k33, vertex_laplacian(k33)), (k34, edge_laplacian(k34))):
        decomp = eig_sym(lap)
        k_one = max(range(len(decomp.distinct)), key=lambda k: decomp.distinct[k])
        assert decomp.distinct[k_one] == pytest.approx(1.0, abs=1e-12)
        assert decomp.multiplicity(k_one) == 1
        vec = decomp.group_basis(k_one)[:, 0]
        assert np.allclose(vec, vec[0], atol=1e-9)  # constant eigenvector


# --- Fourier coefficients ---

def test_fourier_constant_field(k4):
    decomp = eig_sym(vertex_laplacian(k4))
    f = cover.constant_field(k4, VERTICES, 3.0)
    _, norms = fourier_coefficients(f, decomp)
    for k, mu in enumerate(decomp.distinct):
        if abs(mu - 1.0) < 1e-9:
            assert norms[k] == pytest.approx(6.0, abs=1e-12)
        else:
            assert norms[k] <= 1e-12


def test_fourier_basis_vector(petersen):
    decomp = eig_sym(vertex_laplacian(petersen))
    f = ScalarField(VERTICES, decomp.basis[:, 2])
    coeffs, _ = fourier_coefficients(f, decomp)
    expected = np.zeros(10)
    expected[2] = 1.0
    assert np.allclose(coeffs, expected, atol=1e-10)


def test_fourier_indicator_projection_norm(k4):
    decomp = eig_sym(vertex_laplacian(k4))
    f = cover.indicator_field(k4, VERTICES, 0)
    _, norms = fourier_coefficients(f, decomp)
    by_mu = {round(mu, 9): norms[k] for k, mu in enumerate(decomp.distinct)}
    assert by_mu[round(-1 / 3, 9)] ** 2 == pytest.approx(0.75, abs=1e-12)


def test_fourier_norm_past_the_float_range_raises(k4):
    decomp = eig_sym(vertex_laplacian(k4))
    with pytest.raises(SpectralError, match="Fourier projection norm overflows"):
        fourier_coefficients(ScalarField(VERTICES, [1e308, 0.0, 0.0, 0.0]), decomp)


def test_fourier_support_mismatch(k4):
    decomp = eig_sym(vertex_laplacian(k4))
    with pytest.raises(SupportMismatchError):
        fourier_coefficients(cover.constant_field(k4, EDGES, 1.0), decomp)


# --- decay rates: regular vertex ---

def _rates(reg, mus):
    """``Regime.rates`` as a list of (rate, kind) pairs of Python scalars."""
    betas, kinds = reg.rates(mus)
    return list(zip(betas.tolist(), kinds.tolist()))


def test_vertex_rate_cases(k4):
    reg = regime(k4, 1)   # q = 2
    # a complex pair, the repeated root at |mu| = 2 sqrt(q) / (q+1), a real
    # pair, the trivial eigenvalue and the scalar double step at mu = 0, in one call
    complex_pair, repeated, real, trivial, scalar = _rates(
        reg, [-1 / 3, 2 * math.sqrt(2) / 3, 0.99, 1.0, 0.0])
    assert complex_pair == (2 ** -0.5, EXACT_GEOMETRIC)
    assert repeated[0] == pytest.approx(2 ** -0.5) and repeated[1] == POLYNOMIAL_FACTOR
    assert real[0] == pytest.approx((3 * 0.99 + math.sqrt(9 * 0.99 ** 2 - 8)) / 4, abs=1e-15)
    assert real[1] == EXACT_GEOMETRIC
    assert trivial == (0.0, ONE_STEP)
    assert scalar == (2 ** -0.5, EXACT_GEOMETRIC)
    with pytest.raises(BipartiteEigenvalueError):
        reg.rates([0.5, -1.0])
    with pytest.raises(EigenvalueOutOfRangeError, match="eigenvalue 1.5 outside"):
        reg.rates([0.5, 1.5, -1.0])   # the first offending eigenvalue raises
    assert _rates(reg, []) == []


def _one_step_squares(reg, mu):
    """Squares of the roots of  D x**2 - (mu A - B) x + 1,  the one-step
    characteristic polynomial, in the order of (t_plus, t_minus): the root
    square of a_plus comes first when mu A - B >= 0."""
    (a, b, d), _ = reg.steps()
    c = mu * a - b
    s = np.sqrt(complex(c * c - 4 * d))
    plus, minus = ((c + s) / (2 * d)) ** 2, ((c - s) / (2 * d)) ** 2
    return (plus, minus) if c >= 0 else (minus, plus)


def _one_step_residual(reg, mu, t):
    """|D x**2 - (mu A - B) x + 1| at the better of x = +-sqrt(t)."""
    (a, b, d), _ = reg.steps()
    x = np.sqrt(complex(t))
    return min(abs(d * y * y - (mu * a - b) * y + 1) for y in (x, -x))


def test_vertex_roots_satisfy_characteristic_polynomial(k4):
    # the double-step roots of a one-step regime square the one-step roots
    reg = regime(k4, 1)
    for mu in (0.99, -0.99, 0.5, 0.0):
        plus, minus, d = reg.roots(*reg.coefficients(np.array([mu])))
        assert (d[0] > 0) == (abs(mu) > 2 * math.sqrt(2) / 3) and (d[0] == 0) == (mu == 0.0)
        for t in (plus[0], minus[0]):
            assert _one_step_residual(reg, mu, t) <= 1e-12


@given(st.floats(-1, 1), st.integers(2, 9), st.integers(0, 2))
@settings(max_examples=120, deadline=None)
def test_regime_root_product_is_one_over_d0_d1(mu, q, theorem):
    # regime 1 and 2 on the complete graph of degree q + 1, regime 3 on K(q + 1, q + 2)
    if theorem == 2:
        g = graph_core.generate("complete_bipartite", q + 1, q + 2)
    else:
        g = graph_core.generate("complete", q + 2)
    for base in (0, 1):
        reg = regime(g, theorem + 1, base)
        (_, _, d0), (_, _, d1) = reg.steps()
        plus, minus, _ = reg.roots(*reg.coefficients(np.array([mu])))
        assert abs(plus[0] * minus[0] * d0 * d1 - 1) <= 1e-12


# --- decay rates: regular edge ---

def test_edge_rate_cases(k4):
    reg = regime(k4, 2)   # q = 2
    doob, scalar, trivial = _rates(reg, [-0.5, 0.25, 1.0])
    assert doob == (0.5, EXACT_GEOMETRIC)    # the vanishing-star eigenvalue -1/q
    assert scalar == (2 ** -0.5, EXACT_GEOMETRIC)   # T is scalar at (q-1)/(2q)
    assert trivial == (0.0, ONE_STEP)
    # mu = 0.99: real one-step roots, the larger modulus |mu - 1/4| + sqrt(d) / 4
    beta = _rates(reg, [0.99])[0][0]
    assert beta == pytest.approx(0.74 + math.sqrt(2.96 ** 2 - 8) / 4, abs=1e-15)
    with pytest.raises(EigenvalueOutOfRangeError):
        reg.rates([-0.75])


def test_edge_root_at_doob_eigenvalue_has_modulus_one():
    # before the vanishing-star correction one root sits on the unit circle,
    # at mu = -1/q on a regular graph and at mu = -2/(p+q) on a semiregular one
    cases = [(graph_core.generate("complete", q + 2), 2) for q in (2, 3, 4, 5)]
    cases += [(graph_core.generate("complete_bipartite", a, b), 3)
              for a, b in ((3, 4), (3, 5), (4, 5), (4, 6))]
    for g, theorem in cases:
        for base in (0, 1):
            reg = regime(g, theorem, base)
            mu = np.array([-2 / (reg.p + reg.q)])
            plus, minus, d = reg.roots(*reg.coefficients(mu))
            assert d[0] > 0
            assert abs(plus[0]) == pytest.approx(1.0, abs=1e-12)
            assert abs(minus[0]) == pytest.approx(1 / (reg.p * reg.q), abs=1e-12)


@given(st.floats(0, 1), st.integers(2, 9))
@settings(max_examples=80, deadline=None)
def test_edge_roots_satisfy_characteristic_polynomial(t, q):
    mu = -1 / q + t * (1 + 1 / q)  # inside [-1/q, 1]
    reg = regime(graph_core.generate("complete", q + 2), 2)
    plus, minus, _ = reg.roots(*reg.coefficients(np.array([mu])))
    for root in (plus[0], minus[0]):
        assert _one_step_residual(reg, mu, root) <= 1e-10
    assert abs(plus[0] * minus[0] - 1 / q ** 2) <= 1e-10


# --- semiregular transfer matrix ---

@pytest.mark.parametrize("p,q", PQ_GRID)
def test_transfer_matrix_eigenvalues_match(p, q):
    rng = np.random.default_rng(p * 10 + q)
    for mu in rng.uniform(-2 / (p + q), 1.0, size=20):
        t_plus, t_minus, d = transfer_eigenvalues(mu, p, q)
        got = sorted(np.linalg.eigvals(transfer_matrix(mu, p, q)), key=lambda z: (z.real, z.imag))
        want = sorted([complex(t_plus), complex(t_minus)], key=lambda z: (z.real, z.imag))
        assert np.allclose(got, want, atol=1e-10)
        assert abs(t_plus * t_minus - 1 / (p * q)) <= 1e-12
        assert np.linalg.det(transfer_matrix(mu, p, q)) == pytest.approx(1 / (p * q), abs=1e-12)


@pytest.mark.parametrize("p,q", PQ_GRID)
def test_transfer_identities_at_special_points(p, q):
    # unit eigenvalue at both spectrum endpoints, with the cospectral partner 1/(pq)
    for mu in (1.0, -2 / (p + q)):
        t_plus, t_minus, _ = transfer_eigenvalues(mu, p, q)
        assert t_plus == pytest.approx(1.0, abs=1e-12)
        assert abs(t_minus) == pytest.approx(1 / (p * q), abs=1e-12)
    # at the gap boundaries the moduli are exactly {1/p, 1/q}
    for mu in ((p - 1) / (p + q), (q - 1) / (p + q)):
        t_plus, t_minus, _ = transfer_eigenvalues(mu, p, q)
        assert sorted([abs(t_plus), abs(t_minus)]) == pytest.approx(
            sorted([1 / p, 1 / q]), abs=1e-12)
    # double roots have modulus (pq)**-1/2; assert on the root centre, since
    # evaluating t at a float approximation of the double root loses half the
    # working precision through the square root of the ~1e-13 discriminant
    roots = discriminant_roots(p, q)
    for mu in roots:
        t_plus, t_minus, d = transfer_eigenvalues(mu, p, q)
        assert abs(d) <= 1e-9
        centre = (t_plus + t_minus) / 2
        assert abs(centre) == pytest.approx((p * q) ** -0.5, abs=1e-12)


@pytest.mark.parametrize("p,q", PQ_GRID)
def test_discriminant_root_ordering_and_critical_point(p, q):
    r = discriminant_roots(p, q)
    assert r.m_minus_plus < r.m_minus_minus <= r.m_plus_minus < r.m_plus_plus
    assert -2 / (p + q) <= r.m_minus_plus and r.m_plus_plus <= 1.0
    gap_lo, gap_hi = forbidden_gap(p, q)
    m_prime = critical_point(p, q)
    assert gap_lo <= m_prime <= gap_hi
    assert r.m_minus_minus < gap_lo + 1e-12 and gap_hi - 1e-12 < r.m_plus_minus


@pytest.mark.parametrize("p,q", PQ_GRID)
def test_transfer_moduli_monotone_regions(p, q):
    # on each region with positive discriminant, |t| never exceeds the endpoint max
    r = discriminant_roots(p, q)
    gap_lo, gap_hi = forbidden_gap(p, q)
    regions = [(-2 / (p + q), r.m_minus_plus), (r.m_plus_plus, 1.0),
               (r.m_minus_minus, gap_lo), (gap_hi, r.m_plus_minus)]
    for lo, hi in regions:
        if hi <= lo:
            continue
        grid = np.linspace(lo, hi, 1000)
        for pick in (0, 1):
            vals = [abs(transfer_eigenvalues(mu, p, q)[pick]) for mu in grid]
            cap = max(vals[0], vals[-1])
            assert max(vals) <= cap + 1e-12


def test_semiregular_rate_cases(k34):
    p, q = 2, 3
    for base in (k34.half_edge(0, 3), k34.half_edge(3, 0)):
        reg = regime(k34, 3, base)
        doob, boundary, real, complex_pair, trivial = _rates(
            reg, [-2 / (p + q), 0.2, 0.4, 0.0, 1.0])
        assert doob == (6 ** -0.5, EXACT_GEOMETRIC)
        # mu = 1/5 sits on the gap boundary: transfer moduli are {1/2, 1/3},
        # per-radius rate is the square root of the larger one
        assert boundary[0] == pytest.approx(math.sqrt(0.5), abs=1e-12)
        assert boundary[1] == EXACT_GEOMETRIC
        assert real[0] == pytest.approx(math.sqrt(0.5), abs=1e-12)
        assert complex_pair == (6 ** -0.25, EXACT_GEOMETRIC)   # negative discriminant
        assert trivial == (0.0, ONE_STEP)
        with pytest.raises(ForbiddenGapEigenvalueError):
            reg.rates([critical_point(p, q)])
        with pytest.raises(EigenvalueOutOfRangeError):
            reg.rates([-0.5])


# --- radial recursion ---

def test_radial_series_constant_fixed_point(k4, k34):
    for reg in (regime(k4, 1), regime(k4, 2), regime(k34, 3, k34.half_edge(3, 0))):
        series = radial_series(2.0, 2.0, 1.0, reg, 10)
        assert series == pytest.approx([2.0] * 11, abs=1e-12)


def test_radial_series_doob_regular_edge(k4):
    q = 2
    f0 = 0.7
    series = radial_series(f0, -f0 / q, -1 / q, regime(k4, 2), 12)
    expected = [f0 * (-1 / q) ** n for n in range(13)]
    assert series == pytest.approx(expected, abs=1e-12)


def _brute_arc_averages_vertex(g, f, base, n_max):
    return [cover.set_average(f, layer)
            for layer in cover.arc_vertex_layers(g, base, n_max)]


def _brute_arc_averages_edge(g, f, base, n_max):
    return [cover.set_average(f, layer)
            for layer in cover.arc_edge_layers(g, base, n_max)]


def test_radial_series_matches_brute_force_vertex(k4):
    # every eigenvector, every base half-edge
    decomp = eig_sym(vertex_laplacian(k4))
    for k, mu in enumerate(decomp.distinct):
        for col in range(decomp.multiplicity(k)):
            f = ScalarField(VERTICES, decomp.group_basis(k)[:, col])
            for base in range(k4.half_edge_count):
                brute = _brute_arc_averages_vertex(k4, f, base, 12)
                predicted = radial_series(brute[0], brute[1], mu, regime(k4, 1), 12)
                assert brute == pytest.approx(predicted, abs=1e-9)


def test_radial_series_matches_brute_force_semiregular(k34):
    decomp = eig_sym(edge_laplacian(k34))
    bases = [k34.half_edge(0, 3), k34.half_edge(3, 0)]  # one per orientation
    for k, mu in enumerate(decomp.distinct):
        f = ScalarField(EDGES, decomp.group_basis(k)[:, 0])
        for base in bases:
            brute = _brute_arc_averages_edge(k34, f, base, 8)
            predicted = radial_series(brute[0], brute[1], mu, regime(k34, 3, base), 8)
            assert brute == pytest.approx(predicted, abs=1e-10)


def test_transfer_matrix_advances_radial_pairs(k34):
    decomp = eig_sym(edge_laplacian(k34))
    base = k34.half_edge(3, 0)
    p_base = k34.degree(3) - 1
    q_far = k34.degree(0) - 1
    for k, mu in enumerate(decomp.distinct):
        f = ScalarField(EDGES, decomp.group_basis(k)[:, 0])
        series = _brute_arc_averages_edge(k34, f, base, 7)
        a = transfer_matrix(mu, p_base, q_far)
        for j in range(1, 3):
            prev = np.array([series[2 * j - 1], series[2 * j - 2]])
            nxt = np.array([series[2 * j + 1], series[2 * j]])
            assert np.allclose(a @ prev, nxt, atol=1e-10)


# --- rate prediction ---

def test_rate_prediction_k4(k4):
    f = cover.indicator_field(k4, VERTICES, 0)
    pred = rate_prediction(k4, 1, f)
    assert pred.beta_max == pytest.approx(2 ** -0.5, abs=1e-12)
    assert pred.beta_max_kind == EXACT_GEOMETRIC
    assert pred.active_only


def test_rate_prediction_petersen_generic(petersen):
    pred = rate_prediction(petersen, 1, random_field(petersen, VERTICES, 1))
    assert pred.beta_max == pytest.approx(2 ** -0.5, abs=1e-12)
    # without a field: maximise over the whole spectrum (the mixing rate)
    pred_all = rate_prediction(petersen, 1)
    assert pred_all.beta_max == pytest.approx(2 ** -0.5, abs=1e-12)
    assert not pred_all.active_only


def test_rate_prediction_deactivation_lowers_rate(k4):
    # a field supported on the -1/2 edge eigenspace deactivates the mu = 0
    # eigenspace whose rate 2**-1/2 would otherwise dominate
    decomp = eig_sym(edge_laplacian(k4))
    k_half = [k for k, mu in enumerate(decomp.distinct) if abs(mu + 0.5) < 1e-9][0]
    f = ScalarField(EDGES, decomp.group_basis(k_half)[:, 0])
    pred = rate_prediction(k4, 2, f)
    assert pred.beta_max == pytest.approx(0.5, abs=1e-12)
    generic = rate_prediction(k4, 2)
    assert generic.beta_max == pytest.approx(2 ** -0.5, abs=1e-12)
    assert pred.beta_max < generic.beta_max


def test_rate_prediction_k34(k34):
    pred = rate_prediction(k34, 3)
    assert pred.beta_max == pytest.approx(math.sqrt(0.5), abs=1e-12)
    row = next(row for row in pred.per_eigenvalue if abs(row.mu + 0.4) <= spectral.GROUPING_TOL)
    assert row.beta == pytest.approx(6 ** -0.5, abs=1e-12)


def test_rate_prediction_errors(k4, k33, k23):
    with pytest.raises(ClassificationMismatchError):
        rate_prediction(k33, 1)  # bipartite excluded from the vertex regime
    with pytest.raises(ClassificationMismatchError):
        rate_prediction(k23, 3)  # p = 1
    with pytest.raises(OnlyConstantSpectrumError):
        rate_prediction(k4, 1, cover.constant_field(k4, VERTICES, 1.0))


def test_spectrum_csv(k34):
    pred = rate_prediction(k34, 3)
    text = write_spectrum_csv(pred)
    lines = text.splitlines()
    assert lines[0] == "mu,multiplicity,beta,kind,active"
    assert len(lines) == 1 + 4
    assert text == write_spectrum_csv(rate_prediction(k34, 3))  # deterministic
    row = [l for l in lines[1:] if float(l.split(",")[0]) == pytest.approx(-0.4, abs=1e-9)][0]
    cols = row.split(",")
    assert cols[1] == "6" and cols[4] == "true"
    assert float(cols[2]) == pytest.approx(6 ** -0.5, abs=1e-12)


# --- the regime object ---

def test_regime_fields(k4, petersen, k34):
    reg = regime(k4, 1)
    assert (reg.theorem, reg.support, reg.p, reg.q) == (1, VERTICES, 2, 2)
    assert reg.cls == graph_core.classify(k4)
    reg = regime(petersen, 2)
    assert (reg.theorem, reg.support, reg.p, reg.q) == (2, EDGES, 2, 2)
    # regime 3 reads the tree degrees at the base: tail side p, head side q
    for u, v, pq in ((0, 3, (3, 2)), (3, 0, (2, 3))):
        reg = regime(k34, 3, k34.half_edge(u, v))
        assert (reg.theorem, reg.support, (reg.p, reg.q)) == (3, EDGES, pq)
    assert spectral.theorem_laplacian(k34, 3)[1] == regime(k34, 3)


def test_regime_gate_messages(k33, k23, k4):
    with pytest.raises(ClassificationMismatchError,
                       match="regime 1 needs a nonbipartite regular graph of degree >= 3, "
                             "got regular-bipartite"):
        regime(k33, 1)
    with pytest.raises(ClassificationMismatchError, match=r"got semiregular \(p=1\)"):
        regime(k23, 3)
    with pytest.raises(ClassificationMismatchError, match="regime 2 needs a simple regular"):
        regime(k23, 2)
    with pytest.raises(ValueError, match="must be 1, 2 or 3, got 4"):
        regime(k4, 4)


@pytest.mark.parametrize("graph,theorem,base", [
    (("complete", 4), 1, None), (("complete", 5), 1, None), (("complete", 7), 1, None),
    (("complete", 4), 2, None), (("complete", 5), 2, None), (("complete", 6), 2, None),
    (("complete_bipartite", 3, 4), 3, (0, 3)), (("complete_bipartite", 3, 4), 3, (3, 0)),
    (("complete_bipartite", 3, 5), 3, (0, 3)), (("complete_bipartite", 4, 6), 3, (4, 0)),
])
def test_regime_rates_match_the_decimal_reference(graph, theorem, base):
    # a grid past both ends of the range; the critical point and both scalar
    # double-step points, mu = 0 on vertices and (q-1)/(2q) on edges; the ends
    # of the range and of the gap with their neighbours just outside the
    # tolerance band; and the repeated roots with neighbours 1e-5 and 1e-4
    # away, where d is about 1e-3 and 1e-2.  Near a repeated root the rate's
    # relative error grows like 1 / sqrt(|d|) from the rounding of c alone
    # (5e-13 at |d| = 2e-6 on K7, where the earlier closed form was off by
    # 7e-13), so values are compared where |d| > 1e-6, and no nearer
    # neighbours are drawn.
    g = graph_core.generate(*graph)
    reg = regime(g, theorem, g.half_edge(*base) if base else 0)
    p, q = reg.p, reg.q
    ends = np.array([1.0, -1.0, -2 / (p + q), *forbidden_gap(p, q)])
    repeated = np.array([2 * math.sqrt(q) / (q + 1), -2 * math.sqrt(q) / (q + 1),
                         *discriminant_roots(p, q)])
    mus = np.concatenate([np.linspace(-1.05, 1.05, 2001), ends, ends - 2e-9, ends + 2e-9,
                          [0.0, (q - 1) / (2 * q), critical_point(p, q)], repeated,
                          *(repeated + step for step in (-1e-4, -1e-5, 1e-5, 1e-4))])
    accepted, expected = [], []
    for mu in mus.tolist():
        try:
            expected.append(reference_envelope.reference_rate(mu, reg.support, p, q))
            accepted.append(mu)
        except SpectralError as exc:
            with pytest.raises(type(exc)):
                reg.rates([mu])
    betas, kinds = reg.rates(np.array(accepted))
    assert len(accepted) > 500
    for mu, beta, kind, (ref, ref_kind, d) in zip(accepted, betas.tolist(), kinds.tolist(),
                                                 expected):
        assert kind == ref_kind, mu
        if abs(d) > Decimal("1e-6"):
            assert abs(Decimal(beta) - ref) <= Decimal("1e-13") * ref, mu
    if p == q:   # the scalar double step has no polynomial factor
        scalar = 0.0 if theorem == 1 else (q - 1) / (2 * q)
        assert reg.rates([scalar])[1][0] == EXACT_GEOMETRIC


@pytest.mark.parametrize("n", [4, 5, 6])
def test_regime_edge_rates_stay_regular_at_the_semiregular_repeated_root(n):
    # at mu = (q-1)/(2q) the one-step roots are a complex pair with the rate
    # q**-1/2, while the double step sees a repeated root
    g = graph_core.generate("complete", n)
    q = n - 2
    mu = (q - 1) / (2 * q)
    reg = regime(g, 2)
    assert _rates(reg, [mu]) == [(q ** -0.5, EXACT_GEOMETRIC)]
    # the double step's discriminant vanishes there, yet T is scalar, with no
    # polynomial factor
    assert abs(reg.roots(*reg.coefficients(np.array([mu])))[2][0]) <= 1e-30
    assert max(abs(c[0]) for c in reg.coefficients(np.array([mu]))) <= 1e-15


def test_regime_roots_match_the_scalar_roots(k4, petersen, k34):
    # one-step regimes: the squared one-step roots; away from |mu| = 2 sqrt(2)/3
    # and the edge repeated roots the square roots are well conditioned
    mus = np.linspace(-0.5, 0.99, 41)
    for reg in (regime(k4, 1), regime(petersen, 2)):
        plus, minus, _ = reg.roots(*reg.coefficients(mus))
        for i, mu in enumerate(mus.tolist()):
            ref = _one_step_squares(reg, mu)
            assert abs(plus[i] - ref[0]) <= 1e-15 and abs(minus[i] - ref[1]) <= 1e-15
    # regime 3: transfer_eigenvalues, from the same double step on both sides;
    # its discriminant differs only in rounding, and the repeated roots agree
    for base in (k34.half_edge(0, 3), k34.half_edge(3, 0)):
        reg = regime(k34, 3, base)
        special = np.array(discriminant_roots(reg.p, reg.q))
        mus = np.concatenate([np.linspace(-0.4, 1.0, 57), special])
        plus, minus, d = reg.roots(*reg.coefficients(mus))
        for i, mu in enumerate(mus.tolist()):
            t_plus, t_minus, ref = transfer_eigenvalues(mu, reg.p, reg.q)
            assert abs(d[i] - ref) <= 1e-14 * max(1.0, abs(ref))
            if abs(ref) > 1e-6:
                assert abs(plus[i] - t_plus) <= 1e-15 and abs(minus[i] - t_minus) <= 1e-15
        assert np.all(np.abs(d[-4:]) <= spectral.DISCRIMINANT_TOL)


_UNIT = st.floats(-1, 1)


@given(st.lists(st.tuples(_UNIT, _UNIT, _UNIT), min_size=1, max_size=6))
@settings(max_examples=200, deadline=None)
def test_radial_series_is_the_explicit_recursion_bit_for_bit(k4, k34, triples):
    # each (f0, f1, mu) alone, and all of them as one array call, column by column
    n_max = 9
    f0s, f1s, mus = (np.array(column) for column in zip(*triples))

    def check(reg, step):
        columns = radial_series(f0s, f1s, mus, reg, n_max)
        assert columns.shape == (n_max + 1, len(triples))
        for j, (f0, f1, mu) in enumerate(triples):
            values = [f0, f1]
            for n in range(2, n_max + 1):
                values.append(step(n, mu, values[-1], values[-2]))
            assert radial_series(f0, f1, mu, reg, n_max) == values
            assert columns[:, j].tolist() == values

    q = 2
    check(regime(k4, 1), lambda n, mu, a, b: ((q + 1) * mu * a - b) / q)
    check(regime(k4, 2), lambda n, mu, a, b: -((q - 1 - 2 * mu * q) * a + b) / q)
    for base in (k34.half_edge(0, 3), k34.half_edge(3, 0)):
        reg = regime(k34, 3, base)
        p, q, s = reg.p, reg.q, reg.p + reg.q
        check(reg, lambda n, mu, a, b: ((mu * s - (q - 1)) * a - b) / p if n % 2 == 0
              else ((mu * s - (p - 1)) * a - b) / q)


# --- Ihara-Bass: rates from the non-backtracking spectrum ---

def _hashimoto(g):
    """Dense non-backtracking operator: B[h, h'] = 1 when h' continues h."""
    b = np.zeros((g.half_edge_count, g.half_edge_count))
    for h in range(g.half_edge_count):
        b[h, list(g.continuations(h))] = 1.0
    return b


def _ihara_bass_rate(g, trivial):
    """Largest |lambda(B)| other than the trivial modulus, divided by it."""
    moduli = np.abs(np.linalg.eigvals(_hashimoto(g)))
    return float(np.max(moduli[np.abs(moduli - trivial) > 1e-9 * trivial])) / trivial


@given(st.integers(4, 20), st.integers(0, 10 ** 6))
@settings(max_examples=30, deadline=None)
def test_ihara_bass_rate_on_cubic_graphs(seeded_cubic, half_n, seed):
    # (q+1)-regular: B's eigenvalues are the roots of x**2 - lambda x + q over
    # the adjacency eigenvalues lambda, plus +-1; the trivial pair is +-q
    g = seeded_cubic(2 * half_n, seed)
    expected = _ihara_bass_rate(g, 2.0)
    theorems = (2,) if graph_core.classify(g).part_p is not None else (1, 2)
    for theorem in theorems:
        assert rate_prediction(g, theorem).beta_max == pytest.approx(expected, rel=1e-9)


@given(st.integers(3, 7), st.integers(3, 7))
@settings(max_examples=20, deadline=None)
def test_ihara_bass_rate_on_complete_bipartite_graphs(a, b):
    # semiregular: the trivial pair is +-sqrt(pq)
    assume(a != b)
    g = graph_core.generate("complete_bipartite", a, b)
    expected = _ihara_bass_rate(g, math.sqrt((a - 1) * (b - 1)))
    assert rate_prediction(g, 3).beta_max == pytest.approx(expected, rel=1e-9)
