"""Exception hierarchy shared by all covertree modules."""


class CovertreeError(Exception):
    """Base class for every error this package raises deliberately."""


# --- graph construction / classification ---

class GraphError(CovertreeError):
    pass


class EmptyGraphError(GraphError):
    pass


class DisconnectedGraphError(GraphError):
    pass


class IllegalLoopError(GraphError):
    pass


class IllegalMultiEdgeError(GraphError):
    pass


class TwinPairingError(GraphError):
    """Half-edge twin pointers do not form a consistent involution."""


class NotSimpleError(GraphError):
    pass


class NotRegularError(GraphError):
    pass


class UnsupportedDegreeStructureError(GraphError):
    pass


class UnknownGeneratorError(GraphError):
    pass


class GraphFileError(CovertreeError):
    """Malformed graph, field, geodesic or tube file."""


# --- covering tree ---

class CoverError(CovertreeError):
    pass


class EmptySubtreeError(CoverError):
    pass


class DisconnectedSubtreeError(CoverError):
    pass


class InvalidGeodesicError(CoverError):
    pass


class EmptySetError(CoverError):
    pass


class SupportMismatchError(CoverError):
    pass


class SizeOutOfRangeError(CoverError):
    """A set's size, or the sum of the values averaged over it, is past the
    float range, so it has no float average."""


# --- spectral ---

class SpectralError(CovertreeError):
    pass


class BipartiteEigenvalueError(SpectralError):
    pass


class EigenvalueOutOfRangeError(SpectralError):
    pass


class ForbiddenGapEigenvalueError(SpectralError):
    pass


class ClassificationMismatchError(SpectralError):
    pass


class OnlyConstantSpectrumError(SpectralError):
    pass


# --- analysis ---

class AnalysisError(CovertreeError):
    pass


class BudgetExceededError(AnalysisError):
    pass


class InsufficientDataError(AnalysisError):
    pass
