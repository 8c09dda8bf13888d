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

import itertools
import json
import math
import operator
from dataclasses import dataclass, field

import numpy as np

from . import cover, graph_core, spectral
from .errors import (
    AnalysisError,
    BudgetExceededError,
    ClassificationMismatchError,
    EmptySetError,
    InsufficientDataError,
    SupportMismatchError,
)

DEFAULT_BUDGET = 10_000_000  # caps a transfer series' radius and an enumerated sphere's size

# Deviations below this floor are treated as exact zeros: they are float dust
# around quantities that vanish in exact arithmetic.
DEVIATION_FLOOR = 1e-13

_PASS_RTOL = 1e-9
_PASS_ATOL = 1e-15

_FIT_WINDOW = 3     # points in the running max that smooths deviations for the rate fit
_CHECK_TOL = 1e-9   # spectral-gap, Ramanujan and vanishing-star tolerance
_DOOB_RADIUS = 10   # the vanishing-star check follows arc averages to this radius
_CALIBRATION_RADIUS = 4  # bound_check calibrates its constant on radii 0 .. this

# the deviation_series keyword that anchors each set kind
SET_ANCHORS = {"arc": "base", "sphere": "root", "edge-sphere": "root", "tube": "subtree",
               "horocycle": "geodesic"}
SET_KINDS = tuple(SET_ANCHORS)


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
    bounds: list[float | None] | None = None  # bound_check's, None where none was tested
    verdict: str | None = None
    notes: list[str] = field(default_factory=list)


@dataclass(frozen=True)
class SetFamily:
    """A set family of ``kind`` at a validated anchor as a disjoint union of arcs
    on ``support``: at radius r, the arcs of radius r + ``shift`` at the bases
    ``pieces[r % len(pieces)]``, a base once per tree edge over it.  ``zero`` lists
    the radius-0 elements (vertex or edge ids) where the family replaces radius 0;
    ``what`` and ``empty`` name the set in radius-cap and empty-set errors."""

    kind: str
    support: str
    pieces: tuple
    shift: int = 0
    zero: tuple | None = None
    what: str = "arc"
    empty: str = "set"


def _summed(counts):
    """Radius-by-radius sum of lists of sizes; a lone list is not copied."""
    return counts[0] if len(counts) == 1 else list(map(sum, zip(*counts)))


def _fractions(counts, totals):
    """The (pieces, radii) array of ``counts[i][r] / totals[r]``, each correctly
    rounded by big-integer true division, once per distinct row: the arcs of a
    sphere or tube on a regular graph all have the same sizes."""
    weights = []
    for n in counts:
        w = next((w for m, w in zip(counts, weights) if m == n), None)
        weights.append(list(map(operator.truediv, n, totals)) if w is None else w)
    return np.array(weights)


def _count_union(g, family, radius, cap):
    """The distinct bases of ``family``, its pieces as indices into them, its sizes
    and each base's arc sizes and images.  A radius over the cap fails before
    anything is counted, and a dead end at its first empty radius before any
    averaging: a path of H + 1 of the H half-edges repeats one and can go on for
    ever, so an empty radius, if any, shows by radius H + period, counted first.
    Where every half-edge has a continuation (every quotient row is nonempty)
    no path ends, and the sizes are counted once."""
    if radius > cap:
        raise BudgetExceededError(f"{family.what} radius {radius} is over the cap {cap}")
    index = {h: i for i, h in enumerate(dict.fromkeys(itertools.chain(*family.pieces)))}
    bases, pieces = list(index), [[index[h] for h in piece] for piece in family.pieces]
    period, shift, op = len(pieces), family.shift, cover.transfer_operator(g)
    tops = {radius} if all(op.quotient) else {min(radius, op.size + period), radius}
    for top in sorted(tops):
        arcs = [op.sizes(h, family.support, top + shift) for h in bases]
        sizes = [0] * (top + 1)
        for c, piece in enumerate(pieces):  # radius r has the pieces r mod period
            sizes[c::period] = _summed([arcs[i][0][shift + c::period] for i in piece])
        if 0 in sizes:
            raise EmptySetError(f"{family.empty} at radius {sizes.index(0)} is empty")
    return bases, pieces, sizes, arcs


def _union_series(g, values, family, radius, cap):
    """Per-radius (sizes, averages) over ``family`` of the (n, m) value columns
    ``values``: one arc series per distinct base gives every radius.  A radius with
    one piece takes its average, and one with more weighs the pieces' averages by
    exact size fractions, centred on the first non-empty piece's, so the union's
    size never has to fit a float and equal averages give exactly that average."""
    if not all(family.pieces):  # radius 0 is the caller's; with no arc, every later radius is empty
        raise EmptySetError("set at radius 1 is empty")
    bases, pieces, sizes, arcs = _count_union(g, family, radius, cap)
    period, shift, support = len(pieces), family.shift, family.support
    sums_of = cover.arc_vertex_sums if support == cover.VERTICES else cover.arc_edge_sums
    series = [sums_of(g, values, h, radius + shift)[1] for h in bases]
    averages = np.empty((radius + 1, values.shape[1]))
    for c, piece in enumerate(pieces):
        rs = slice(shift + c, None, period)  # the arc radii of radii c, c + period, ..
        if len(piece) == 1:  # one arc: nothing to weigh; each size fits, as its sums did
            averages[c::period] = series[piece[0]][rs] / arcs[piece[0]][1][rs, None] + 0.0
            continue
        scale = np.array([arcs[i][1][rs] for i in piece])
        means = np.array([series[i][rs] for i in piece]) / np.maximum(scale, 1.0)[..., None]
        first = (scale > 0).argmax(axis=0)
        centre = means[first, np.arange(len(first))]
        weights = _fractions([arcs[i][0][rs] for i in piece], sizes[c::period])
        weights[first, np.arange(len(first))] = 0.0  # the centre's own arc
        terms = (weights[..., None] * (means - centre)).transpose(1, 2, 0).reshape(-1, len(piece))
        averages[c::period] = centre + np.reshape(list(map(math.fsum, terms.tolist())),
                                                  centre.shape)
    if family.zero is not None:
        sizes[0], averages[0] = len(family.zero), cover.part_average(values, family.zero)
    return sizes, averages


def set_family(g, kind, anchor, support):
    """The one SetFamily of ``kind`` (in SET_KINDS) at ``anchor``: a base half-edge,
    a root vertex, a subtree (a list of CoverVertex) or a GeodesicSpec, each
    checked here.  Arcs and tubes take the field's ``support``.  A tube is the arcs
    behind the tree edges leaving the subtree, and at radius 0 the subtree itself."""
    if kind == "arc":
        cover.check_id("half-edge", anchor, g.half_edge_count)
        return SetFamily(kind, support, ((anchor,),))
    if kind in ("sphere", "edge-sphere"):  # g.out would wrap a negative root
        cover.check_id("root vertex", anchor, g.vertex_count)
    if kind == "sphere":  # radius 0 is the root, which every arc shares
        return SetFamily(kind, cover.VERTICES, (tuple(g.out(anchor)),), zero=(anchor,),
                         what="sphere")
    if kind == "edge-sphere":
        return SetFamily(kind, cover.EDGES, (tuple(g.out(anchor)),), what="edge sphere")
    if kind == "horocycle":
        # the radius-r piece is the arc of radius r + 1 behind the (r+1)-th geodesic half-edge
        anchor.validate(g)
        return SetFamily(kind, cover.VERTICES, tuple((g.twin(h),) for h in anchor.half_edges),
                         shift=1, what="horocycle", empty="horocycle")
    seen, top = cover.validate_subtree(g, anchor)
    paths = {cv.path for cv in seen}
    boundary, internal = [], []
    for cv in seen:  # set order: the boundary order picks a union's centre arc
        boundary += [c.path[-1] for c in cover.cover_children(g, cv) if c.path not in paths]
        if cv != top:
            internal.append(cv.path[-1])
        elif cv.path:
            boundary.append(g.twin(cv.path[-1]))  # upward direction at the top vertex
    vertices = support == cover.VERTICES
    zero = [cv.vertex for cv in seen] if vertices else list(map(g.edge_of, boundary + internal))
    return SetFamily(kind, support, (tuple(boundary),), zero=tuple(zero),
                     what="tube" if vertices else "edge tube")


# on an irregular graph the arc averages tend to lf(head) / l1, l the left Perron
# vector of Hashimoto's operator, not to the plain graph average they are measured from
IRREGULAR_TARGET_NOTE = ("irregular graph: the target is the plain graph average, not the "
                         "series' limit, which where it exists is a Perron-weighted mean; "
                         "the deviations need not decay")

# on a semiregular graph with a part of degree 2, each of its vertices subdivides
# an edge of a multigraph on the other part; where that multigraph is bipartite
# the walk alternates between its two sides, and the averages with it
ALTERNATING_TARGET_NOTE = ("semiregular graph whose degree-2 vertices join the other part "
                           "into a bipartite multigraph: the averages alternate between its "
                           "two sides, so the target is not the series' limit and the "
                           "deviations need not decay")


def _sides_alternate(g, cls):
    """Whether ``g`` is semiregular with p = 1 and the multigraph on part_q whose
    edges are part_p's degree-2 vertices is bipartite (a loop makes it not)."""
    if cls.kind != graph_core.SEMIREGULAR or cls.p != 1:
        return False
    first = min(cls.part_q)
    side, todo = {first: 0}, [first]
    while todo:
        a = todo.pop()
        for h in g.out(a):
            b, = (g.head(x) for x in g.continuations(h))  # through the degree-2 vertex
            if b not in side:
                side[b] = 1 - side[a]
                todo.append(b)
            elif side[b] == side[a]:
                return False
    return True


def _report(g, f, cls, family, sizes, averages):
    """The series of one field, an array of ``averages``, with its targets: the
    graph average, but for a vertex field on a regular bipartite or semiregular
    graph the average of the part that holds every element of radius r, if one part
    does.  A piece's elements at arc radius k lie in its tail's part, flipped k times.
    On an irregular graph, and on a semiregular one whose averages alternate (see
    _sides_alternate), the report notes that the target is not the limit."""
    targets = np.full(len(sizes), cover.graph_average(f))
    if f.support == cover.VERTICES and cls.p is not None:  # regular bipartite or semiregular
        means = [cover.part_average(f, cls.part_p), cover.part_average(f, cls.part_q)]
        for r in range(len(targets)):
            sides = {(g.tail(h) in cls.part_q) ^ (r + family.shift) % 2
                     for h in family.pieces[r % len(family.pieces)]}
            if r == 0 and family.zero is not None:
                sides = {v in cls.part_q for v in family.zero}
            targets[r] = means[sides.pop()] if len(sides) == 1 else targets[r]
    notes = [IRREGULAR_TARGET_NOTE] if cls.kind == graph_core.IRREGULAR else \
        [ALTERNATING_TARGET_NOTE] if _sides_alternate(g, cls) else []
    return ConvergenceReport(family.kind, list(range(len(sizes))), list(sizes), averages.tolist(),
                             targets.tolist(), np.abs(averages - targets).tolist(), notes=notes)


def deviation_series(g, f, *, set_kind, radius, base=None, root=None,
                     subtree=None, geodesic=None, budget=None):
    """Per-radius averages of the lifted field over an increasing set family,
    with deviations from the appropriate graph (or part) average.

    ``base`` is a half-edge id (arc), ``root`` a vertex id (spheres),
    ``subtree`` a list of CoverVertex (tube) and ``geodesic`` a GeodesicSpec
    (horocycle), as SET_ANCHORS says.  Sizes are exact and averages come from
    the transfer operator, which reproduces brute-force enumeration.  ``budget``
    replaces DEFAULT_BUDGET, the cap on ``radius``, for this call.
    """
    if set_kind not in SET_KINDS:
        raise ValueError(f"set kind must be one of {SET_KINDS}")
    if radius < 2:
        raise ValueError("need radius >= 2 for a deviation series")
    anchor = {"base": base, "root": root, "subtree": subtree, "geodesic": geodesic}[
        SET_ANCHORS[set_kind]]
    if anchor is None:
        raise ValueError(f"{set_kind} series needs its anchor argument")
    cap = DEFAULT_BUDGET if budget is None else int(budget)
    cls = graph_core.classify(g)
    family = set_family(g, set_kind, anchor, f.support)
    cover.check_field(g, f, family.support)
    sizes, averages = _union_series(g, f.values[:, None], family, radius, cap)
    return _report(g, f, cls, family, sizes, averages[:, 0])


def arc_deviations(g, values, support, base, radius):
    """Arc averages and their deviations, two (radius + 1, m) arrays, of the field
    value columns ``values`` on ``support``, where the graph average is the target."""
    family = set_family(g, "arc", base, support)
    _, averages = _union_series(g, values, family, radius, DEFAULT_BUDGET)
    targets = cover._column_means(values)  # graph_average's bits
    return averages, np.abs(averages - targets)


# --- rate fitting and bound checking ---

def fit_rate(report):
    """Least-squares decay rate of the deviation series.

    Deviations below DEVIATION_FLOOR are exact zeros and are dropped; the
    remaining series is smoothed by a running max over _FIT_WINDOW points
    before the log-linear fit, which absorbs the sign oscillation of complex
    characteristic roots.  Returns the fitted rate, or None (and marks the
    report non-convergent) when the deviations do not decay.
    """
    kept = [(r, d) for r, d in zip(report.radii, report.deviations) if d >= DEVIATION_FLOOR]
    if len(kept) < max(6, _FIT_WINDOW + 2):
        if all(d < DEVIATION_FLOOR for d in report.deviations):
            report.fitted_beta = 0.0
            report.non_convergent = False
            return 0.0
        raise InsufficientDataError(
            f"only {len(kept)} usable radii for rate fitting (need >= 6)"
        )
    radii, devs = zip(*kept)
    xs = radii[:len(kept) - _FIT_WINDOW + 1]
    ys = [max(devs[i:i + _FIT_WINDOW]) for i in range(len(xs))]
    slope = float(np.polyfit(xs, np.log(ys), 1)[0])
    if slope >= 0 or ys[-1] >= ys[0]:
        report.fitted_beta = None
        report.non_convergent = True
        return None
    report.fitted_beta = math.exp(slope)
    report.non_convergent = False
    return report.fitted_beta


def _bound_at(c_hat, beta, kind, r):
    try:
        bound = c_hat * beta ** r
    except OverflowError:
        raise AnalysisError(f"rate {beta!r} gives a bound past the float range at r={r}") from None
    if kind == spectral.POLYNOMIAL_FACTOR:
        bound *= 1 + r
    return bound


def bound_check(report):
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
        if r > _CALIBRATION_RADIUS or dev < DEVIATION_FLOOR:
            continue
        unit = _bound_at(1.0, beta, kind, r)
        ratio = dev / unit if unit else math.inf
        if not abs(ratio) < math.inf:  # beta is 0 or nan, or beta ** r is below the float range
            raise AnalysisError(f"rate {beta!r} gives no finite constant at r={r}")
        c_hat = max(c_hat, ratio)
    report.c_hat = c_hat
    # no bound is computed where none is tested: beta ** r can pass the float range
    report.bounds = [None if r <= _CALIBRATION_RADIUS or dev < DEVIATION_FLOOR
                     else _bound_at(c_hat, beta, kind, r)
                     for r, dev in zip(report.radii, report.deviations)]
    return c_hat, _check_under(report, "bound", report.bounds)


def violations(deviations, bounds):
    """True where a deviation above the floor exceeds its bound, for broadcasting
    arrays; a bound of None reads as nan, which no deviation exceeds."""
    deviations = np.asarray(deviations)
    return (deviations >= DEVIATION_FLOOR) & (
        deviations > np.asarray(bounds, dtype=float) * (1 + _PASS_RTOL) + _PASS_ATOL)


def _check_under(report, what, bounds):
    """Pass iff every deviation above the floor sits under its bound; notes
    each violation and sets the report's verdict."""
    over = np.flatnonzero(violations(report.deviations, bounds)).tolist()
    report.notes += [f"{what} violated at r={report.radii[i]}: deviation "
                     f"{report.deviations[i]:.6e} > {bounds[i]:.6e}" for i in over]
    report.verdict = "fail" if over else "pass"
    return not over


# --- rigorous envelope from eigenspace initial values ---

def _profile_envelope(f0, f1, mus, reg, radius):
    """Summed profile envelopes at radii 0 .. ``radius`` of the eigenspaces at
    ``mus``; ``f0``, ``f1`` have one row per eigenspace and one column per
    field, and the result one row per field.

    Parity j of a profile, x(k) = F(2k + j), is u_plus t_plus**k + u_minus
    t_minus**k under the double step, or (x(0) + (x(1) / tau - x(0)) k) tau**k
    at a repeated root tau.  Put through the recursion and the roots' sum and
    product, with s the square root of the discriminant, these are
    u_plus, -u_minus = (w_j +- s F(j)) / (2 s) and x(1) / tau - x(0) =
    w_j / (c0 c1 - D0 - D1), where w_0 = 2 D1 c0 F(1) - m F(0),
    w_1 = m F(1) - 2 c1 F(0) and m = c0 c1 + D1 - D0.  Each w_j is taken in
    real arithmetic as two terms in F(0) and F(1), and s F(j), complex where
    the roots are, is added last.
    """
    (_, _, d0), (_, _, d1) = reg.steps()
    c0, c1 = reg.coefficients(mus[:, None])   # one row per eigenspace
    t_plus, t_minus, d = reg.roots(c0[:, 0], c1[:, 0])
    m = c0 * c1 + d1 - d0
    k = np.arange(radius // 2 + 1)
    rep = np.abs(d) <= spectral.DISCRIMINANT_TOL
    # distinct roots: |u_plus| |t_plus|**k + |u_minus| |t_minus|**k; u holds |2 s u_plus|
    # and |2 s u_minus| = |w_j +- s F(j)| by (root, parity, eigenspace, field), and
    # half is 1 / |2 s|
    w = np.array([2 * d1 * c0 * f1 - m * f0, m * f1 - 2 * c1 * f0])
    sf = np.sqrt(d + 0j)[:, None] * np.array([f0, f1])
    u = np.abs([w + sf, w - sf])
    half = np.where(rep, 0.0, 0.5 / np.sqrt(np.maximum(np.abs(d), spectral.DISCRIMINANT_TOL)))
    power = np.abs(np.array([t_plus, t_minus]))[..., None] ** k * half[:, None]
    env = (power.transpose(0, 2, 1)[:, None] @ u).sum(axis=0)   # (parity, radius, field)
    if rep.any():  # repeated root tau: (|x(0)| + |x(1) / tau - x(0)| k) |tau|**k
        tau = np.abs(t_plus[rep] + t_minus[rep])[:, None] / 2
        tau_k = tau ** k
        env = (env + tau_k.T @ np.abs(np.array([f0, f1])[:, rep])
               + (tau_k * k / (2 * d0 * d1 * tau)).T @ np.abs(w[:, rep]))
    # one ulp outward (toward 2 env, so zeros stay zero): at subnormal sizes
    # the last bits are all the precision there is
    env = np.nextafter(env, 2 * env)
    return env.transpose(2, 1, 0).reshape(env.shape[2], -1)[:, :radius + 1]


def envelope_series(g, f, base, theorem, radius, decomp=None):
    """Rigorous per-radius bound on the arc deviation of the field ``f`` at ``base``.

    Each nontrivial eigenspace contributes the exact envelope of its radial
    profile, computed in closed form from the two initial values of the
    field's projection on it, read at the rows of the radius-0 and radius-1
    arcs; the sum dominates |M_r(f) - target| at every radius whenever the
    radial recursions hold.  A supplied ``decomp`` must be the regime's
    eigendecomposition; the graph still passes the regime's gate.

    ``f`` may instead be an integer array of columns of ``decomp.basis``, for
    an (m, radius + 1) array.  Column b in eigenspace K is B_K c + g, with
    c = B_K^T b and g the computed remainder; its bound is the envelope of
    B_K c plus 2 max|g|, as every arc average of g and its target lie in
    [min g, max g].  Only the eigenspaces from the first column's to the last
    column's are projected: O(n m (m + |K|)), not O(n^2 m), for m columns.
    """
    columns = isinstance(f, np.ndarray)
    reg = spectral.regime(g, theorem, base)
    if decomp is None:
        decomp = spectral.eig_sym(spectral.theorem_laplacian(g, theorem)[0])
    if not columns:
        cover.check_field(g, f, reg.support)
    if decomp.support != reg.support:
        raise SupportMismatchError(f"regime {theorem} needs an eigenbasis on {reg.support}")
    if reg.support == cover.VERTICES:
        rows0, rows1 = [g.tail(base)], [g.head(base)]
    else:
        rows0 = [g.edge_of(base)]
        rows1 = [g.edge_of(h) for h in g.continuations(base)]
    starts = np.array([a for a, _ in decomp.group_slices])
    first, last, a, basis = 0, len(starts), 0, decomp.basis
    if columns:
        own = np.searchsorted(starts, f, side="right") - 1  # each column's eigenspace
        first, last = own.min(), own.max() + 1
        a, b = starts[first], decomp.group_slices[last - 1][1]
        basis, vecs = decomp.basis[:, a:b], decomp.basis[:, f]
        coeffs = basis.T @ vecs
        coeffs[(np.searchsorted(starts, np.arange(a, b), side="right") - 1)[:, None] != own] = 0.0
        rest = 2.0 * np.abs(vecs - basis @ coeffs).max(axis=0)[:, None]
    else:
        coeffs = basis.T @ f.values[:, None]
    starts = starts[first:last] - a
    f0s = np.add.reduceat(basis[rows0].mean(axis=0)[:, None] * coeffs, starts, axis=0)
    f1s = np.add.reduceat(basis[rows1].mean(axis=0)[:, None] * coeffs, starts, axis=0)
    mus = np.array(decomp.distinct[first:last])
    keep = np.abs(mus - 1.0) > spectral.TRIVIAL_EIGENVALUE_TOL
    env = _profile_envelope(f0s[keep], f1s[keep], mus[keep], reg, radius)
    return env + rest if columns else env[0].tolist()


def envelope_check(report, env):
    """Pass iff every deviation sits under the rigorous envelope."""
    return _check_under(report, "envelope", env)


# --- structural checks ---

def _fold(block, bits, memo):
    """The keys of a block's rows, folded level by level onto those of its deepest
    level in ``memo`` (id(level) -> (level, keys)), taken out, or of its prefix."""
    prefix, levels, k = *block, 62 // bits
    n = next((n for n in range(len(levels), 0, -1) if id(levels[n - 1]) in memo), 0)
    if n:
        keys = memo.pop(id(levels[n - 1]))[1]
    else:  # a Horner product per chunk of k prefix columns
        chunks = (prefix[:, j:j + k] for j in range(0, prefix.shape[1], k))
        keys = np.column_stack([np.empty((len(prefix), 0), np.int64)] + [
            c @ (1 << bits * np.arange(c.shape[1] - 1, -1, -1)) for c in chunks])
    for depth, (parent, last) in enumerate(levels[n:], prefix.shape[1] + n):
        keys = np.repeat(keys, parent, axis=0) if isinstance(parent, int) else keys[parent]
        if not depth % k:  # the id starts a new key
            keys = np.column_stack([keys, np.zeros(len(keys), np.int64)])
        keys[:, -1] = keys[:, -1] << bits | last
    if levels:
        memo[id(levels[-1])] = levels[-1], keys
    return keys


def _sorted_keys(blocks, depth, width, memo=None):
    """The keys (see check_sphere_decomposition) of the rows of one depth, ids below
    ``width``, in lexicographic order; blocks are row matrices or fold through ``memo``."""
    bits, memo = (width - 1).bit_length(), {} if memo is None else memo
    keys = np.concatenate([np.empty((0, -(-depth // (62 // bits))), np.int64)] + [
        _fold(b if isinstance(b, tuple) else (b, ()), bits, memo) for b in blocks])
    return keys[np.lexsort(keys.T[::-1])]


def check_sphere_decomposition(g, v0, f, radius):
    """Spheres decompose into the d(v0) arcs: matching rows and averages.

    For r >= 1 the arcs must be pairwise disjoint with the sphere's rows as
    their union, compared on sorted row keys, and the sphere average must
    equal the mean of the non-empty arcs' averages weighted by their exact
    sizes, to within 1e-12 max|f|; an empty sphere has rows only.  Key i of a
    row packs its ids k*i .. k*i + k - 1 in Horner order, b = (H - 1).bit_length()
    bits each for H half-edges and k = 62 // b, so it is below 2**62.  A
    fixed-width numeral in base 2**b, it orders as the tuple of its ids and
    determines it, so rows of one depth sort as their key tuples and are equal
    exactly when those are.  Keys fold over a block's levels, never its rows: a
    level gathers its parents' keys, then its id starts a key at depths divisible
    by k or shifts into the last; a per-call memo of each block's newest keys
    makes radius r one O(N) level on radius r - 1.  A radius or a sphere over
    the enumeration budget raises BudgetExceededError before anything is enumerated.
    """
    cover.check_field(g, f, cover.VERTICES)
    bases, = set_family(g, "sphere", v0, cover.VERTICES).pieces
    cap, width = DEFAULT_BUDGET, g.half_edge_count
    if radius > cap:
        raise BudgetExceededError(f"sphere radius {radius} is over the cap {cap}")
    counters, counts = [cover.arc_counts(g, h, cover.VERTICES, radius) for h in bases], []
    for r in range(radius + 1):  # the arcs' sizes by radius; empty spheres: rows only
        counts.append([next(c) for c in counters])
        if r and (n := sum(counts[r])) > cap:
            raise BudgetExceededError(f"sphere at radius {r} has {n} elements (cap {cap})")
    spheres = cover.sphere_vertex_layers(g, v0, radius)  # built apart from the arcs
    layer_iters = [cover.arc_vertex_layers(g, h, radius) for h in bases]
    for it in [spheres, *layer_iters]:
        next(it)  # radius 0 is the shared root, not part of the decomposition
    memo, tol = {}, 1e-12 * np.abs(f.values).max()
    for r, sphere in enumerate(spheres, 1):
        layers = [next(it) for it in layer_iters]
        arcs = _sorted_keys([block for layer in layers for block in layer.parts], r, width, memo)
        if (any(layer.root != sphere.root for layer in layers)
                or not (arcs[1:] != arcs[:-1]).any(axis=1).all()  # pairwise disjoint
                or not np.array_equal(arcs, _sorted_keys(sphere.parts, r, width, memo))):
            return False
        sizes = counts[r]
        if not sum(sizes):
            continue
        arc_mean = math.fsum(n * cover.set_average(f, layer)
                             for n, layer in zip(sizes, layers) if n) / sum(sizes)
        if abs(cover.set_average(f, sphere) - arc_mean) > tol:
            return False
    return True


def _edge_regime(g, base=0):
    """Regime 3 on a semiregular graph and regime 2 on any other, at ``base``;
    the regime's gate rejects graphs fit for neither."""
    semiregular = graph_core.classify(g).kind == graph_core.SEMIREGULAR
    return spectral.regime(g, 3 if semiregular else 2, base)


def check_lemma_gap(g, decomp=None):
    """No edge-Laplacian eigenvalue strictly inside the semiregular gap
    ((p-1)/(p+q), (q-1)/(p+q)); vacuously true when p == q.  ``decomp`` is
    the edge Laplacian's eigendecomposition, computed when not supplied."""
    if decomp is None:
        decomp = spectral.eig_sym(spectral.edge_laplacian(g))
    reg = _edge_regime(g)
    lo, hi = spectral.forbidden_gap(reg.p, reg.q)
    return not any(lo + _CHECK_TOL < mu < hi - _CHECK_TOL for mu in decomp.distinct)


def check_ramanujan(g):
    """True iff every nontrivial vertex eigenvalue obeys |mu| <= 2 sqrt(q)/(q+1)."""
    cls = graph_core.classify(g)
    if cls.kind not in (graph_core.REGULAR, graph_core.REGULAR_BIPARTITE):
        raise ClassificationMismatchError(
            f"Ramanujan check needs a regular graph of degree >= 3, got {cls.kind}"
        )
    q = cls.q
    decomp = spectral.eig_sym(spectral.vertex_laplacian(g))
    threshold = 2 * math.sqrt(q) / (q + 1) + _CHECK_TOL
    return all(abs(mu) <= threshold for mu in decomp.distinct
               if abs(abs(mu) - 1.0) > spectral.TRIVIAL_EIGENVALUE_TOL)


def check_bipartite_split(g, f, base, radius):
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
    mus = np.array(decomp.distinct)
    keep = ((np.abs(np.abs(mus) - 1.0) > spectral.TRIVIAL_EIGENVALUE_TOL)
            & (norms > spectral.ACTIVITY_TOL))
    # theorem 1's gate rejects bipartite graphs, so the vertex regime is built here
    betas, kinds = spectral.Regime(1, cls, cover.VERTICES, cls.q, cls.q).rates(mus[keep])
    report.predicted_beta, report.predicted_kind = max(zip(betas.tolist(), kinds.tolist()),
                                                       key=lambda rate: rate[0],
                                                       default=(0.0, spectral.EXACT_GEOMETRIC))
    _, passed = bound_check(report)
    return report, passed


def check_doob_condition(g, decomp):
    """Every edge eigenvector at the extreme eigenvalue has vanishing star sums,
    and its transfer arc averages follow the exact alternating-step decay.

    The extreme eigenvalue is -2/(p+q), which is -1/q on regular graphs; a
    spectrum without it passes vacuously.
    """
    reg = _edge_regime(g)
    target = -2.0 / (reg.p + reg.q)
    group = next((k for k, mu in enumerate(decomp.distinct)
                  if abs(mu - target) <= spectral.GROUPING_TOL * 10), None)
    if group is None:
        return True  # vacuous: the extreme eigenvalue does not occur
    vecs = decomp.group_basis(group)
    # float star sums: only a sum within rounding (~1e-16) of the tolerance can flip
    star = [g.edge_of(h) for v in range(g.vertex_count) for h in g.out(v)]
    if np.any(np.abs(np.add.reduceat(vecs[star], np.cumsum([0, *g.degrees()[:-1]]))) > _CHECK_TOL):
        return False
    op = cover.transfer_operator(g)
    for base in (0, g.half_edge_count - 1):  # every eigenvector from one transfer per base
        reg = _edge_regime(g, base)
        averages = op.averages(vecs[op.edges], base, _DOOB_RADIUS + 1)
        steps = np.where(np.arange(_DOOB_RADIUS) % 2, -1.0 / reg.p, -1.0 / reg.q)
        expected = averages[0] * np.cumprod([1.0, *steps])[:, None]
        if np.any(np.abs(averages - expected) > _CHECK_TOL):
            return False
    return True


# --- report serialisation ---

def report_to_csv(report):
    """The series as CSV, with bound_check's bounds (empty where it tested none)."""
    lines = ["r,average,target,deviation,bound"]
    bounds = report.bounds or [None] * len(report.radii)
    for r, a, t, d, b in zip(report.radii, report.averages, report.targets,
                             report.deviations, bounds):
        lines.append(f"{r},{a!r},{t!r},{d!r},{'' if b is None else repr(b)}")
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
