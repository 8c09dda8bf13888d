"""Command-line surface: classify | spectrum | average | rate | verify | gen.

Exit codes: 0 success, 1 a verification check failed (report still written),
2 usage/configuration error, 3 I/O or numeric failure.
"""

from __future__ import annotations

import argparse
import functools
import sys
from json.encoder import encode_basestring_ascii

import numpy as np

from . import analysis, cover, graph_core, spectral
from .cover import ScalarField
from .errors import (
    ClassificationMismatchError,
    CoverError,
    CovertreeError,
    GraphError,
    GraphFileError,
    OnlyConstantSpectrumError,
    SupportMismatchError,
    UnknownGeneratorError,
)

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_USAGE = 2
EXIT_RUNTIME = 3

# eigenvector columns per batched transfer and envelope in verify; bounds its memory
VERIFY_BLOCK = 32
_GENERIC_TRIES = 64  # seeds generic_field tries before it gives up


class _UsageError(Exception):
    pass


# 64-bit linear congruential generator (Knuth's MMIX constants); value i is
# bits 63..11 of the i+1-th state, mapped to [-1, 1).  Platform independent.
_LCG_MULTIPLIER = 6364136223846793005
_LCG_INCREMENT = 1442695040888963407
_LCG_MASK = (1 << 64) - 1


def random_field(g, support, seed):
    """Deterministic pseudo-random field with values in [-1, 1)."""
    n = g.vertex_count if support == cover.VERTICES else g.edge_count
    state = seed & _LCG_MASK
    values = []
    for _ in range(n):
        state = (state * _LCG_MULTIPLIER + _LCG_INCREMENT) & _LCG_MASK
        values.append((state >> 11) / float(1 << 53) * 2.0 - 1.0)
    return ScalarField(support, values)


def generic_field(g, support, seed, decomp):
    """Seeded random field with a nonzero projection on every eigenspace;
    reseeds (seed+1, seed+2, ...) in the measure-zero degenerate case."""
    for bump in range(_GENERIC_TRIES):
        f = random_field(g, support, seed + bump)
        _, norms = spectral.fourier_coefficients(f, decomp)
        if (norms > spectral.ACTIVITY_TOL).all():
            return f
    raise _UsageError(f"no generic field found near seed {seed}")


# --- argument plumbing ---

@functools.cache  # parsing does not change the parser; one build per process
def _build_parser():
    parser = argparse.ArgumentParser(
        prog="covertree",
        description="Radial averages on universal covering trees and their convergence rates.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="write a generator graph file")
    p.add_argument("name")
    p.add_argument("params", nargs="*", type=int)
    p.add_argument("-o", "--output", required=True)
    p.set_defaults(handler=_cmd_gen)

    p = sub.add_parser("classify", help="print the structural class of a graph")
    p.add_argument("--graph", required=True)
    p.set_defaults(handler=_cmd_classify)

    p = sub.add_parser("spectrum", help="per-eigenvalue decay rates as CSV")
    p.add_argument("--graph", required=True)
    p.add_argument("--theorem", type=int, required=True, choices=(1, 2, 3))
    p.add_argument("--field")
    p.add_argument("-o", "--output")
    p.set_defaults(handler=_cmd_spectrum)

    p = sub.add_parser("average", help="per-radius averages over a set family")
    p.add_argument("--graph", required=True)
    p.add_argument("--field", required=True)
    p.add_argument("--set", dest="set_kind", required=True, choices=analysis.SET_KINDS)
    p.add_argument("--base", nargs="+", type=int,
                   help="directed edge 'u v [k]' for arc runs")
    p.add_argument("--root", type=int, help="root vertex for sphere runs")
    p.add_argument("--tube", help="tube member file for tube runs")
    p.add_argument("--geodesic", help="geodesic file for horocycle runs")
    p.add_argument("--radius", type=int, required=True)
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.add_argument("-o", "--output")
    p.set_defaults(handler=_cmd_average)

    p = sub.add_parser("rate", help="predict a rate and test the rigorous envelope")
    p.add_argument("--graph", required=True)
    p.add_argument("--field", required=True)
    p.add_argument("--theorem", type=int, required=True, choices=(1, 2, 3))
    p.add_argument("--base", nargs="+", type=int)
    p.add_argument("--radius", type=int, default=12)
    p.add_argument("--override-beta", type=float, default=None)
    p.add_argument("--format", choices=("csv", "json"), default="json")
    p.add_argument("-o", "--output")
    p.set_defaults(handler=_cmd_rate)

    p = sub.add_parser("verify", help="run the full check battery for one regime")
    p.add_argument("--graph", required=True)
    p.add_argument("--theorem", type=int, required=True, choices=(1, 2, 3))
    p.add_argument("--base", nargs="+", type=int)
    p.add_argument("--radius", type=int, default=12)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--override-beta", type=float, default=None)
    p.add_argument("-o", "--output")
    p.set_defaults(handler=_cmd_verify)

    return parser


def _resolve_base(g, tokens):
    if tokens is None:
        return 0
    if len(tokens) not in (2, 3):
        raise _UsageError("--base takes 'u v' or 'u v k'")
    try:
        return g.half_edge(*tokens)
    except GraphError as exc:
        raise _UsageError(str(exc)) from exc


def _load_tube(g, path):
    def member_parser(header):
        try:
            root, _ = map(int, header[1:])
        except ValueError as exc:
            raise GraphFileError("tube file must start with 'tube <root> <count>'") from exc
        cover.cover_vertex(g, root, ())  # an out-of-range root is the header's fault, not a line's
        return lambda row: cover.cover_vertex(g, root, [] if row == ["."] else map(int, row))

    return graph_core.read_records(graph_core.read_ascii(path), "tube", "tube <root> <count>",
                                   2, "member", member_parser)[1]


def _check_root(g, root):
    try:
        cover.check_id("root vertex", root, g.vertex_count)
    except CoverError as exc:
        raise _UsageError(str(exc)) from exc
    return root


# anchor keyword of analysis.SET_ANCHORS -> (average option, its usage, its reader)
_ANCHOR_OPTIONS = {"base": ("base", "--base u v [k]", _resolve_base),
                   "root": ("root", "--root", _check_root),
                   "subtree": ("tube", "--tube FILE", _load_tube),
                   "geodesic": ("geodesic", "--geodesic FILE", cover.load_geodesic)}


def checks_to_json(checks):
    """``json.dumps({"checks": checks}, indent=2)`` byte for byte, from a fixed
    template with the strings through json's C encoder."""
    return '{\n  "checks": [' + ",".join(
        f'\n    {{\n      "name": {encode_basestring_ascii(c["name"])},'
        f'\n      "passed": {"true" if c["passed"] else "false"},'
        f'\n      "detail": {encode_basestring_ascii(c["detail"])}\n    }}'
        for c in checks) + ("\n  ]\n}" if checks else "]\n}")


def _emit(text, output):
    if output:
        with open(output, "w", encoding="ascii") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


# --- command handlers ---

def _cmd_gen(args):
    try:
        g = graph_core.generate(args.name, *args.params)
    except UnknownGeneratorError:
        raise
    except (TypeError, GraphError) as exc:
        raise _UsageError(f"bad parameters for generator {args.name!r}: {exc}") from exc
    graph_core.save_graph(g, args.output)
    print(f"wrote {args.name} graph: {g.vertex_count} vertices, {g.edge_count} edges")
    return EXIT_OK


def _cmd_classify(args):
    g = graph_core.load_graph(args.graph)
    cls = graph_core.classify(g)
    bits = [f"kind={cls.kind}", f"simple={'true' if cls.simple else 'false'}"]
    if cls.q is not None:
        if cls.kind == graph_core.SEMIREGULAR:
            bits.append(f"p={cls.p}")
        bits.append(f"q={cls.q}")
    if cls.part_p is not None:
        bits.append("part_p=" + ",".join(map(str, sorted(cls.part_p))))
        bits.append("part_q=" + ",".join(map(str, sorted(cls.part_q))))
    print(" ".join(bits))
    return EXIT_OK


def _cmd_spectrum(args):
    g = graph_core.load_graph(args.graph)
    f = cover.load_field(args.field) if args.field else None
    try:
        prediction = spectral.rate_prediction(g, args.theorem, f)
    except OnlyConstantSpectrumError as exc:
        raise _UsageError(str(exc)) from exc
    _emit(spectral.write_spectrum_csv(prediction), args.output)
    return EXIT_OK


def _cmd_average(args):
    g = graph_core.load_graph(args.graph)
    f = cover.load_field(args.field)
    keyword = analysis.SET_ANCHORS[args.set_kind]
    option, usage, read = _ANCHOR_OPTIONS[keyword]
    if getattr(args, option) is None:
        raise _UsageError(f"{args.set_kind} runs need {usage}")
    anchor = read(g, getattr(args, option))
    if args.radius < 2:
        raise _UsageError("need --radius >= 2")
    report = analysis.deviation_series(g, f, set_kind=args.set_kind, radius=args.radius,
                                       **{keyword: anchor})
    text = analysis.report_to_csv(report) if args.format == "csv" else analysis.report_to_json(report)
    _emit(text, args.output)
    return EXIT_OK


def _cmd_rate(args):
    g = graph_core.load_graph(args.graph)
    f = cover.load_field(args.field)
    base = _resolve_base(g, args.base)
    if args.radius < 2:
        raise _UsageError("need --radius >= 2")
    report = analysis.deviation_series(g, f, set_kind="arc", radius=args.radius, base=base)
    try:
        prediction = spectral.rate_prediction(g, args.theorem, f)
        report.predicted_beta = prediction.beta_max
        report.predicted_kind = prediction.beta_max_kind
    except OnlyConstantSpectrumError:
        report.predicted_beta = 0.0
        report.predicted_kind = spectral.EXACT_GEOMETRIC
        report.notes.append("field is constant; rate 0")
    if args.override_beta is not None:
        report.predicted_beta = args.override_beta
        report.notes.append(f"beta overridden to {args.override_beta}")
    _, calibrated = analysis.bound_check(report)
    if args.override_beta is not None:
        passed, gate = calibrated, "bound"
    else:  # correct data can exceed the calibrated constant; the rigorous envelope decides
        env = analysis.envelope_series(g, f, base, args.theorem, args.radius)
        passed, gate = analysis.envelope_check(report, env), "envelope"
    try:
        analysis.fit_rate(report)
    except analysis.InsufficientDataError:
        report.notes.append("too few nonzero deviations for a rate fit")
    text = analysis.report_to_csv(report) if args.format == "csv" else analysis.report_to_json(report)
    _emit(text, args.output)
    print(f"predicted beta {report.predicted_beta:.6g}; {gate} {report.verdict}; "
          + ("fit non-convergent" if report.non_convergent
             else f"fitted beta {report.fitted_beta:.6g}" if report.fitted_beta is not None
             else "fit unavailable"))
    if gate == "envelope":
        print(f"INFO calibrated bound: {'pass' if calibrated else 'fail'} "
              f"(C {report.c_hat:.6g}, calibrated on r <= 4)")
    return EXIT_OK if passed else EXIT_CHECK_FAILED


def _cmd_verify(args):
    g = graph_core.load_graph(args.graph)
    base = _resolve_base(g, args.base)
    radius = args.radius
    if radius < 4:
        raise _UsageError("need --radius >= 4")
    lap, _ = spectral.theorem_laplacian(g, args.theorem)
    decomp = spectral.eig_sym(lap)
    regime = spectral.regime(g, args.theorem, base)
    checks = []

    def record(name, passed, detail):
        checks.append({"name": name, "passed": bool(passed), "detail": detail})
        print(f"{'PASS' if passed else 'FAIL'} {name}: {detail}")

    # the random field's prediction holds every eigenvalue's rate
    f = generic_field(g, regime.support, args.seed, decomp)
    prediction = spectral.rate_prediction(g, args.theorem, f, decomp=decomp)
    # per basis column: its eigenvalue, rate and index inside its eigenspace
    starts, sizes = np.array([(a, b - a) for a, b in decomp.group_slices]).T
    mus = np.repeat(decomp.distinct, sizes)
    rates = np.repeat([row.beta for row in prediction.per_eigenvalue], sizes)
    index = np.arange(len(mus)) - np.repeat(starts, sizes)
    columns = np.flatnonzero(np.abs(mus - 1.0) > spectral.TRIVIAL_EIGENVALUE_TOL)
    for start in range(0, len(columns), VERIFY_BLOCK):
        block = columns[start:start + VERIFY_BLOCK]
        averages, deviations = analysis.arc_deviations(
            g, decomp.basis[:, block], regime.support, base, radius)
        predicted = spectral.radial_series(averages[0], averages[1], mus[block], regime, radius)
        residuals = np.abs(averages - predicted).max(axis=0)
        env = analysis.envelope_series(g, block, base, args.theorem, radius, decomp=decomp)
        passed = ~analysis.violations(deviations, env.T).any(axis=0)
        for mu, col, residual, ok, beta in zip(mus[block].tolist(), index[block].tolist(),
                                               residuals.tolist(), passed.tolist(),
                                               rates[block].tolist()):
            record(f"recursion mu={mu:.9g} [{col}]", residual < 1e-9,
                   f"max residual {residual:.3e}")
            record(f"envelope mu={mu:.9g} [{col}]", ok, f"rate {beta:.6g}, max radius {radius}")

    report = analysis.deviation_series(g, f, set_kind="arc", radius=radius, base=base)
    report.predicted_beta = prediction.beta_max
    report.predicted_kind = prediction.beta_max_kind
    if args.override_beta is not None:
        report.predicted_beta = args.override_beta
        _, ok = analysis.bound_check(report)
        record("random-field bound (overridden beta)", ok,
               f"beta {args.override_beta:.6g}, calibrated C {report.c_hat:.6g}")
    else:
        env = analysis.envelope_series(g, f, base, args.theorem, radius, decomp=decomp)
        ok = analysis.envelope_check(report, env)
        record("random-field envelope", ok,
               f"beta_max {prediction.beta_max:.6g} ({prediction.beta_max_kind})")
    try:
        fitted = analysis.fit_rate(report)
        detail = "non-convergent" if fitted is None else f"fitted beta {fitted:.6g}"
    except analysis.InsufficientDataError:
        detail = "too few nonzero deviations"
    print(f"INFO random-field fit: {detail}")

    if regime.support == cover.EDGES:
        record("vanishing-star decay", analysis.check_doob_condition(g, decomp),
               "extreme-eigenvalue eigenvectors")
    if regime.p != regime.q:
        record("spectral gap", analysis.check_lemma_gap(g, decomp=decomp),
               f"no eigenvalues inside {spectral.forbidden_gap(regime.p, regime.q)}")

    if args.output:
        with open(args.output, "w", encoding="ascii") as fh:
            fh.write(checks_to_json(checks) + "\n")
    return EXIT_OK if all(c["passed"] for c in checks) else EXIT_CHECK_FAILED


def main(argv=None):
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        code = exc.code if exc.code is not None else 0
        return EXIT_USAGE if code not in (0,) else EXIT_OK
    try:
        return args.handler(args)
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (ClassificationMismatchError, SupportMismatchError, UnknownGeneratorError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (OSError, CovertreeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
