"""Empirical convergence verification on the covering tree.

Builds per-radius average/deviation series for arcs, spheres, tubes and
horocycle subsets, fits empirical decay rates, checks predicted geometric
bounds (both with an empirically calibrated constant and with a rigorous
envelope derived from eigenspace initial values), and packages the structural
facts about sphere decompositions, the semiregular spectral gap, bipartite
parity targets, the Ramanujan threshold and the vanishing-star condition as
runnable pass/fail checks.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass, field

import numpy as np

from . import cover, graph_core, spectral
from .cover import ScalarField
from .errors import (
    BudgetExceededError,
    ClassificationMismatchError,
    EmptySetError,
    InsufficientDataError,
    SupportMismatchError,
)

DEFAULT_BUDGET = 10_000_000
BUDGET_ENV_VAR = "COVERTREE_BUDGET"

# Deviations below this floor are treated as exact zeros: they are float dust
# around quantities that vanish in exact arithmetic.
DEVIATION_FLOOR = 1e-13

_PASS_RTOL = 1e-9
_PASS_ATOL = 1e-15

SET_KINDS = ("arc", "sphere", "edge-sphere", "tube", "horocycle")


@dataclass
class ConvergenceReport:
    """Per-radius averages and deviations plus the attached rate verdicts."""

    set_kind: str
    radii: list[int]
    sizes: list[int]
    averages: list[float]
    targets: list[float]
    deviations: list[float]
    predicted_beta: float | None = None
    predicted_kind: str | None = None
    fitted_beta: float | None = None
    non_convergent: bool = False
    c_hat: float | None = None
    verdict: str | None = None
    notes: list[str] = field(default_factory=list)


def enumeration_budget(budget=None):
    if budget is not None:
        return int(budget)
    return int(os.environ.get(BUDGET_ENV_VAR, DEFAULT_BUDGET))


def _aggregate(size_lists, sum_lists, radius):
    averages = []
    sizes = []
    for r in range(radius + 1):
        total = sum(sizes_b[r] for sizes_b in size_lists)
        sizes.append(total)
        if total == 0:
            raise EmptySetError(f"set at radius {r} is empty")
        averages.append(math.fsum(sums_b[r] for sums_b in sum_lists) / total)
    return sizes, averages


def _tube_boundary(g, members):
    """Projected half-edges of the tree edges leaving a validated subtree.

    Returns (member set, boundary list, internal edge ids); the boundary list
    may repeat a half-edge when two boundary tree edges project onto it.
    """
    seen, top = cover.validate_subtree(g, members)
    boundary = []
    internal = []
    for cv in seen:
        last = cv.path[-1] if cv.path else None
        steps = g.continuations(last) if last is not None else g.out(cv.vertex)
        for h in steps:
            child = cover.CoverVertex(cv.root, cv.path + (h,), g.head(h))
            if child not in seen:
                boundary.append(h)
        if last is not None:
            if cover.cover_parent(g, cv) in seen:
                internal.append(g.edge_of(last))
            else:
                boundary.append(g.twin(last))  # upward direction at the top vertex
    return seen, boundary, internal


def _bipartite_targets(g, f, cls, anchor_part, radius, kind):
    """Per-radius targets for vertex fields on regular bipartite graphs.

    Arc and sphere elements of even radius project into the anchor's part and
    odd ones into the other part; horocycle members always project into the
    root's part.
    """
    other = cls.part_q if anchor_part == cls.part_p else cls.part_p
    even = cover.part_average(f, anchor_part)
    odd = cover.part_average(f, other)
    if kind == "horocycle":
        return [even] * (radius + 1)
    return [even if r % 2 == 0 else odd for r in range(radius + 1)]


def deviation_series(g, f, *, set_kind, radius, base=None, root=None,
                     subtree=None, geodesic=None, budget=None):
    """Per-radius averages of the lifted field over an increasing set family,
    with deviations from the appropriate graph (or part) average.

    ``base`` is a half-edge id (arc), ``root`` a vertex id (spheres),
    ``subtree`` a list of CoverVertex (tube) and ``geodesic`` a GeodesicSpec
    (horocycle).  Averages are computed with the exact integer transfer step,
    which reproduces brute-force enumeration.
    """
    if set_kind not in SET_KINDS:
        raise ValueError(f"set kind must be one of {SET_KINDS}")
    if radius < 2:
        raise ValueError("need radius >= 2 for a deviation series")
    anchors = {"arc": base, "sphere": root, "edge-sphere": root,
               "tube": subtree, "horocycle": geodesic}
    if anchors[set_kind] is None:
        raise ValueError(f"{set_kind} series needs its anchor argument")
    cap = enumeration_budget(budget)
    cls = graph_core.classify(g)

    if set_kind == "arc":
        cover.check_field(g, f)
        if f.support == cover.VERTICES:
            count = cover.arc_vertex_count(g, base, radius)
            series = [cover.arc_vertex_sums(g, f, base, radius)]
        else:
            count = cover.arc_edge_count(g, base, radius)
            series = [cover.arc_edge_sums(g, f, base, radius)]
        if count > cap:
            raise BudgetExceededError(f"arc at radius {radius} has {count} elements (cap {cap})")
        anchor = g.tail(base)
    elif set_kind == "sphere":
        cover.check_field(g, f, cover.VERTICES)
        count = sum(cover.arc_vertex_count(g, h, radius) for h in g.out(root))
        if count > cap:
            raise BudgetExceededError(f"sphere at radius {radius} has {count} elements (cap {cap})")
        series = [cover.arc_vertex_sums(g, f, h, radius) for h in g.out(root)]
        sizes, averages = _aggregate([s for s, _ in series], [s for _, s in series], radius)
        sizes[0] = 1  # every arc shares the root at radius 0
        return _finish_report(g, f, cls, set_kind, radius, sizes, averages, root)
    elif set_kind == "edge-sphere":
        cover.check_field(g, f, cover.EDGES)
        count = sum(cover.arc_edge_count(g, h, radius) for h in g.out(root))
        if count > cap:
            raise BudgetExceededError(f"edge sphere at radius {radius} has {count} elements (cap {cap})")
        series = [cover.arc_edge_sums(g, f, h, radius) for h in g.out(root)]
        anchor = root
    elif set_kind == "tube":
        cover.check_field(g, f)
        members, boundary, internal = _tube_boundary(g, subtree)
        if f.support == cover.VERTICES:
            count = sum(cover.arc_vertex_count(g, h, radius) for h in boundary)
            if count > cap:
                raise BudgetExceededError(f"tube at radius {radius} has {count} elements (cap {cap})")
            series = [cover.arc_vertex_sums(g, f, h, radius) for h in boundary]
            sizes, averages = _aggregate([s for s, _ in series], [s for _, s in series], radius)
            sizes[0] = len(members)
            averages[0] = math.fsum(f.values[cv.vertex] for cv in members) / len(members)
        else:
            count = sum(cover.arc_edge_count(g, h, radius) for h in boundary)
            if count > cap:
                raise BudgetExceededError(f"edge tube at radius {radius} has {count} elements (cap {cap})")
            series = [cover.arc_edge_sums(g, f, h, radius) for h in boundary]
            sizes, averages = _aggregate([s for s, _ in series], [s for _, s in series], radius)
            # radius 0 also contains the subtree's internal edges
            boundary_sum = averages[0] * sizes[0]
            inner = [float(f.values[e]) for e in internal]
            sizes[0] += len(inner)
            averages[0] = (math.fsum(inner) + boundary_sum) / sizes[0]
        parts = {("p" if cv.vertex in (cls.part_p or ()) else "q") for cv in members}
        anchor = next(iter(members)).vertex if len(parts) == 1 else None
        return _finish_report(g, f, cls, set_kind, radius, sizes, averages, anchor)
    else:  # horocycle
        cover.check_field(g, f, cover.VERTICES)
        geodesic.validate(g)
        sizes = []
        averages = []
        for r in range(radius + 1):
            h = g.twin(geodesic.half_edge_at(r))
            n = cover.arc_vertex_count(g, h, r + 1)
            if n > cap:
                raise BudgetExceededError(f"horocycle at radius {r} has {n} elements (cap {cap})")
            sizes.append(n)
            averages.append(cover.arc_average_transfer(g, f, h, r + 1))
        anchor = geodesic.root(g)
        return _finish_report(g, f, cls, set_kind, radius, sizes, averages, anchor)

    sizes, averages = _aggregate([s for s, _ in series], [s for _, s in series], radius)
    return _finish_report(g, f, cls, set_kind, radius, sizes, averages, anchor)


def _finish_report(g, f, cls, set_kind, radius, sizes, averages, anchor):
    split = (
        f.support == cover.VERTICES
        and cls.kind == graph_core.REGULAR_BIPARTITE
        and anchor is not None
    )
    if split:
        anchor_part = cls.part_p if anchor in cls.part_p else cls.part_q
        targets = _bipartite_targets(g, f, cls, anchor_part, radius, set_kind)
    else:
        targets = [cover.graph_average(f)] * (radius + 1)
    deviations = [abs(a - t) for a, t in zip(averages, targets)]
    return ConvergenceReport(set_kind, list(range(radius + 1)), sizes,
                             averages, targets, deviations)


# --- rate fitting and bound checking ---

def fit_rate(report, *, window=3, floor=DEVIATION_FLOOR):
    """Least-squares decay rate of the deviation series.

    Deviations below the floor are exact zeros and are dropped; the remaining
    series is smoothed by a running max over ``window`` points before the
    log-linear fit, which absorbs the sign oscillation of complex
    characteristic roots.  Returns the fitted rate, or None (and marks the
    report non-convergent) when the deviations do not decay.
    """
    kept = [(r, d) for r, d in zip(report.radii, report.deviations) if d >= floor]
    if len(kept) < max(6, window + 2):
        if all(d < floor for d in report.deviations):
            report.fitted_beta = 0.0
            report.non_convergent = False
            return 0.0
        raise InsufficientDataError(
            f"only {len(kept)} usable radii for rate fitting (need >= 6)"
        )
    xs = []
    ys = []
    for i in range(len(kept) - window + 1):
        chunk = kept[i:i + window]
        xs.append(chunk[0][0])
        ys.append(max(d for _, d in chunk))
    slope = float(np.polyfit(xs, np.log(ys), 1)[0])
    if slope >= 0 or ys[-1] >= ys[0]:
        report.fitted_beta = None
        report.non_convergent = True
        return None
    report.fitted_beta = math.exp(slope)
    report.non_convergent = False
    return report.fitted_beta


def _bound_at(c_hat, beta, kind, r):
    bound = c_hat * beta ** r
    if kind == spectral.POLYNOMIAL_FACTOR:
        bound *= 1 + r
    return bound


def bound_check(report, *, calibration_radius=4, floor=DEVIATION_FLOOR):
    """Calibrate the empirical constant on small radii, then test the bound.

    C_hat is the largest deviation-to-bound ratio over the calibration window;
    the check passes when every later radius obeys deviation <= C_hat * beta**r
    (times (1+r) when the predicted kind carries the polynomial factor).

    C_hat is a heuristic, not the theorem's constant: correct data can exceed
    it when the dominant eigenspace has complex characteristic roots, since
    the oscillating profile then comes arbitrarily close to its peak at some
    radius past the window (the vertex-0 indicator on K4 at base 1 -> 2 fails
    at r = 7).  ``envelope_series`` gives the rigorous bound.
    """
    if report.predicted_beta is None:
        raise ValueError("attach predicted_beta before bound_check")
    beta = report.predicted_beta
    kind = report.predicted_kind or spectral.EXACT_GEOMETRIC
    c_hat = 0.0
    for r, dev in zip(report.radii, report.deviations):
        if r > calibration_radius or dev < floor:
            continue
        c_hat = max(c_hat, dev / _bound_at(1.0, beta, kind, r))
    passed = True
    for r, dev in zip(report.radii, report.deviations):
        if r <= calibration_radius or dev < floor:
            continue
        bound = _bound_at(c_hat, beta, kind, r)
        if dev > bound * (1 + _PASS_RTOL) + _PASS_ATOL:
            passed = False
            report.notes.append(
                f"bound violated at r={r}: deviation {dev:.6e} > {bound:.6e}"
            )
    report.c_hat = c_hat
    report.verdict = "pass" if passed else "fail"
    return c_hat, passed


# --- rigorous envelope from eigenspace initial values ---

def _one_step_envelope(f0, f1, roots, n):
    """Summed profile envelopes at the radii ``n`` of one-step recursions;
    ``f0``, ``f1`` and each of the ``roots`` arrays hold one entry per
    eigenspace."""
    a_plus, a_minus, d = roots
    rep = np.abs(d) <= spectral.DISCRIMINANT_TOL
    # distinct roots: |u_plus| |a_plus|**n + |u_minus| |a_minus|**n
    ap, am, g0, g1 = a_plus[~rep], a_minus[~rep], f0[~rep], f1[~rep]
    c_plus = np.abs((g1 - am * g0) / (ap - am))
    c_minus = np.abs((ap * g0 - g1) / (ap - am))
    env = (c_plus[:, None] * np.abs(ap)[:, None] ** n
           + c_minus[:, None] * np.abs(am)[:, None] ** n).sum(axis=0)
    # repeated root alpha: (|f0| + |f1 / alpha - f0| n) |alpha|**n
    alpha, g0, g1 = 0.5 * (a_plus[rep] + a_minus[rep]), f0[rep], f1[rep]
    u, v = np.abs(g0), np.abs(g1 / alpha - g0)
    return env + ((u[:, None] + v[:, None] * n) * np.abs(alpha)[:, None] ** n).sum(axis=0)


def _double_step_envelope(f0, f1, mu, p, q, n):
    """Profile envelope at the radii ``n`` of one eigenspace under the
    semiregular double step."""
    t_plus, t_minus, d = spectral.transfer_eigenvalues(mu, p, q)
    a_mat = spectral.transfer_matrix(mu, p, q)
    w = np.array([f1, f0], dtype=complex)
    k = n // 2
    if abs(d) <= spectral.DISCRIMINANT_TOL:
        t = abs(t_plus + t_minus) / 2
        nil = float(np.linalg.norm(a_mat - ((t_plus + t_minus) / 2).real * np.eye(2), 2))
        scale = float(np.linalg.norm(w))
        env = scale * (t ** k + k * t ** np.maximum(k - 1, 0) * nil)
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
        env = (np.abs(a * v_plus)[comp] * abs(t_plus) ** k
               + np.abs(b * v_minus)[comp] * abs(t_minus) ** k)
    # radii 0 and 1 are the initial values themselves
    return np.where(n == 0, abs(f0), np.where(n == 1, abs(f1), env))


def envelope_series(g, f, base, theorem, radius, decomp=None):
    """Rigorous per-radius bound on the arc deviation of ``f`` at ``base``.

    Each nontrivial eigenspace contributes the exact envelope of its radial
    profile, computed in closed form from that component's two initial values;
    the sum dominates |M_r(f) - target| at every radius whenever the radial
    recursions hold, with no empirical calibration.

    A supplied ``decomp`` must be the regime's eigendecomposition; the graph
    still passes the regime's classification gate.  The initial values of all
    eigenspace components come from one projection of ``f``, read at the rows
    of the radius-0 and radius-1 arcs.
    """
    if decomp is None:
        lap, cls = spectral.theorem_laplacian(g, theorem)
        decomp = spectral.eig_sym(lap)
    else:
        cls = spectral.theorem_classification(g, theorem)
    support = cover.VERTICES if theorem == 1 else cover.EDGES
    cover.check_field(g, f, support)
    if decomp.field_support() != support:
        raise SupportMismatchError(f"regime {theorem} needs an eigenbasis on {support}")
    if support == cover.VERTICES:
        rows0, rows1 = [g.tail(base)], [g.head(base)]
    else:
        rows0 = [g.edge_of(base)]
        rows1 = [g.edge_of(h) for h in g.continuations(base)]
    coeffs = decomp.basis.T @ f.values
    starts = [a for a, _ in decomp.group_slices]
    f0s = np.add.reduceat(decomp.basis[rows0].mean(axis=0) * coeffs, starts)
    f1s = np.add.reduceat(decomp.basis[rows1].mean(axis=0) * coeffs, starts)
    keep = [k for k, mu in enumerate(decomp.distinct)
            if abs(mu - 1.0) > spectral.TRIVIAL_EIGENVALUE_TOL]
    mus, f0s, f1s = [decomp.distinct[k] for k in keep], f0s[keep], f1s[keep]
    n = np.arange(radius + 1)
    if theorem == 3:
        p_base = g.degree(g.tail(base)) - 1
        q_far = g.degree(g.head(base)) - 1
        env = np.zeros(radius + 1)
        for mu, f0, f1 in zip(mus, f0s, f1s):
            env += _double_step_envelope(float(f0), float(f1), mu, p_base, q_far, n)
    else:
        roots_of = (spectral.characteristic_roots_regular_vertex if theorem == 1
                    else spectral.characteristic_roots_regular_edge)
        roots = np.array([roots_of(mu, cls.q) for mu in mus], dtype=complex).reshape(-1, 3).T
        env = _one_step_envelope(f0s, f1s, roots, n)
    return env.tolist()


def envelope_check(report, env):
    """Pass iff every deviation sits under the rigorous envelope."""
    passed = True
    for r, dev, bound in zip(report.radii, report.deviations, env):
        if dev < DEVIATION_FLOOR:
            continue
        if dev > bound * (1 + _PASS_RTOL) + _PASS_ATOL:
            passed = False
            report.notes.append(
                f"envelope violated at r={r}: deviation {dev:.6e} > {bound:.6e}"
            )
    report.verdict = "pass" if passed else "fail"
    return passed


# --- structural checks ---

def check_sphere_decomposition(g, v0, f, radius):
    """Spheres decompose into the d(v0) arcs: equal sizes and matching averages.

    For r >= 1 the sphere average must equal the equally weighted mean of the
    arc averages over the outgoing half-edges (the arcs all have the same
    size on the constant-degree graphs this is used for), and the arc sizes
    must add up to the sphere size with the arcs pairwise disjoint.
    """
    cover.check_field(g, f, cover.VERTICES)
    out = g.out(v0)
    layer_iters = [cover.arc_vertex_layers(g, h, radius) for h in out]
    for it in layer_iters:
        next(it)  # radius 0 is the shared root, not part of the decomposition
    for r in range(1, radius + 1):
        layers = [next(it) for it in layer_iters]
        union = set()
        total = 0
        for layer in layers:
            total += len(layer)
            union.update(layer)
        if len(union) != total:
            return False
        sphere = cover.sphere_vertices(g, v0, r)
        if union != sphere:
            return False
        sphere_avg = cover.set_average(f, sphere)
        arc_mean = math.fsum(cover.set_average(f, layer) for layer in layers) / len(layers)
        if abs(sphere_avg - arc_mean) > 1e-12:
            return False
    return True


def check_lemma_gap(g, tol=1e-9, decomp=None):
    """No edge-Laplacian eigenvalue strictly inside the semiregular gap
    ((p-1)/(p+q), (q-1)/(p+q)); vacuously true when p == q.  ``decomp`` is
    the edge Laplacian's eigendecomposition, computed when not supplied."""
    if decomp is None:
        decomp = spectral.eig_sym(spectral.edge_laplacian(g))
    cls = graph_core.classify(g)
    if cls.kind == graph_core.SEMIREGULAR:
        p, q = cls.p, cls.q
    else:
        p = q = cls.q
    lo, hi = spectral.forbidden_gap(p, q)
    return not any(lo + tol < mu < hi - tol for mu in decomp.distinct)


def check_ramanujan(g, tol=1e-9):
    """True iff every nontrivial vertex eigenvalue obeys |mu| <= 2 sqrt(q)/(q+1)."""
    cls = graph_core.classify(g)
    if cls.kind not in (graph_core.REGULAR, graph_core.REGULAR_BIPARTITE):
        raise ClassificationMismatchError(
            f"Ramanujan check needs a regular graph of degree >= 3, got {cls.kind}"
        )
    q = cls.q
    decomp = spectral.eig_sym(spectral.vertex_laplacian(g))
    threshold = 2 * math.sqrt(q) / (q + 1) + tol
    for mu in decomp.distinct:
        if abs(abs(mu) - 1.0) <= spectral.TRIVIAL_EIGENVALUE_TOL:
            continue
        if abs(mu) > threshold:
            return False
    return True


def check_bipartite_split(g, f, base, radius, calibration_radius=4):
    """Even-radius arc averages approach the base part's average and odd-radius
    ones the other part's, within the geometric bound from the eigenvalues
    other than +-1.  Returns (report, passed)."""
    cls = graph_core.classify(g)
    if cls.kind != graph_core.REGULAR_BIPARTITE:
        raise ClassificationMismatchError(
            f"bipartite split needs a regular bipartite graph, got {cls.kind}"
        )
    cover.check_field(g, f, cover.VERTICES)
    report = deviation_series(g, f, set_kind="arc", radius=radius, base=base)
    decomp = spectral.eig_sym(spectral.vertex_laplacian(g))
    _, norms = spectral.fourier_coefficients(f, decomp)
    beta = 0.0
    kind = spectral.EXACT_GEOMETRIC
    for k, mu in enumerate(decomp.distinct):
        if abs(abs(mu) - 1.0) <= spectral.TRIVIAL_EIGENVALUE_TOL:
            continue
        if norms[k] <= spectral.ACTIVITY_TOL:
            continue
        b, kd = spectral.decay_rate_regular_vertex(mu, cls.q)
        if b > beta:
            beta, kind = b, kd
    report.predicted_beta = beta
    report.predicted_kind = kind
    _, passed = bound_check(report, calibration_radius=calibration_radius)
    return report, passed


def check_doob_condition(g, decomp, max_radius=10, tol=1e-9, bases=None):
    """Every edge eigenvector at the extreme eigenvalue has vanishing star sums,
    and its brute-force arc averages follow the exact alternating-step decay.

    The extreme eigenvalue is -1/q for regular graphs and -2/(p+q) for
    semiregular ones; a spectrum without it passes vacuously.
    """
    cls = graph_core.classify(g)
    if cls.kind == graph_core.SEMIREGULAR:
        target = -2.0 / (cls.p + cls.q)
    else:
        target = -1.0 / cls.q
    group = None
    for k, mu in enumerate(decomp.distinct):
        if abs(mu - target) <= spectral.GROUPING_TOL * 10:
            group = k
            break
    if group is None:
        return True  # vacuous: the extreme eigenvalue does not occur
    basis = decomp.group_basis(group)
    star = {v: [g.edge_of(h) for h in g.out(v)] for v in range(g.vertex_count)}
    for col in range(basis.shape[1]):
        vec = basis[:, col]
        for v, edges in star.items():
            if abs(math.fsum(vec[e] for e in edges)) > tol:
                return False
    if bases is None:
        bases = [0, g.half_edge_count - 1]
    for col in range(basis.shape[1]):
        f = ScalarField(cover.EDGES, basis[:, col])
        for base in bases:
            q_far = g.degree(g.head(base)) - 1
            p_base = g.degree(g.tail(base)) - 1
            averages = [
                cover.set_average(f, layer)
                for layer in cover.arc_edge_layers(g, base, max_radius)
            ]
            expected = [averages[0]]
            for n in range(max_radius):
                ratio = -1.0 / q_far if n % 2 == 0 else -1.0 / p_base
                expected.append(expected[-1] * ratio)
            if any(abs(a - e) > tol for a, e in zip(averages, expected)):
                return False
    return True


# --- report serialisation ---

def report_to_csv(report):
    lines = ["r,average,target,deviation,bound"]
    for i, r in enumerate(report.radii):
        if report.predicted_beta is not None and report.c_hat is not None:
            bound = repr(_bound_at(report.c_hat, report.predicted_beta,
                                   report.predicted_kind or spectral.EXACT_GEOMETRIC, r))
        else:
            bound = ""
        lines.append(
            f"{r},{report.averages[i]!r},{report.targets[i]!r},{report.deviations[i]!r},{bound}"
        )
    return "\n".join(lines) + "\n"


def report_to_json(report):
    doc = {
        "set_kind": report.set_kind,
        "radii": report.radii,
        "sizes": report.sizes,
        "averages": report.averages,
        "targets": report.targets,
        "deviations": report.deviations,
        "predicted_beta": report.predicted_beta,
        "predicted_kind": report.predicted_kind,
        "fitted_beta": report.fitted_beta,
        "non_convergent": report.non_convergent,
        "c_hat": report.c_hat,
        "verdict": report.verdict,
        "notes": report.notes,
    }
    return json.dumps(doc, indent=2) + "\n"
