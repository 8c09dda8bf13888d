"""Radial averages on universal covering trees of finite graphs.

Build a finite connected (multi)graph, lift vertex or edge functions to its
universal covering tree, average them over growing arcs, spheres, tubes or
horocycle subsets, predict the geometric convergence rate to the graph
average from the Laplacian spectrum, and verify the prediction against
brute-force enumeration.
"""

from .analysis import (
    ConvergenceReport,
    bound_check,
    check_bipartite_split,
    check_doob_condition,
    check_lemma_gap,
    check_ramanujan,
    check_sphere_decomposition,
    deviation_series,
    envelope_check,
    envelope_series,
    fit_rate,
    report_to_csv,
    report_to_json,
)
from .cover import (
    EDGES,
    VERTICES,
    CoverEdge,
    CoverVertex,
    GeodesicSpec,
    PathLayer,
    ScalarField,
    arc_average_transfer,
    arc_edges,
    arc_vertices,
    constant_field,
    graph_average,
    horocycle_subset,
    indicator_field,
    set_average,
    sphere_edges,
    sphere_vertices,
    tube_edges,
    tube_vertices,
)
from .graph_core import (
    Classification,
    Graph,
    build_graph,
    classify,
    distance,
    generate,
    line_graph,
    read_graph,
    write_graph,
)
from .spectral import (
    LaplacianMatrix,
    RatePrediction,
    Regime,
    SpectralDecomposition,
    edge_laplacian,
    eig_sym,
    fourier_coefficients,
    rate_prediction,
    regime,
    transfer_eigenvalues,
    transfer_matrix,
    vertex_laplacian,
)

__version__ = "0.1.0"
