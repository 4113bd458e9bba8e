"""Exception types shared across the package."""


class NDRankError(Exception):
    """Base class for all ndrank errors."""


class CycleError(NDRankError):
    """The relation digraph contains a directed cycle."""


class UnknownLabel(NDRankError):
    """An edge or query references a label that was never declared."""


class TooLarge(NDRankError):
    """A guarded enumeration would exceed its size limit."""


class NotSimplicial(NDRankError):
    """The operation requires a collider-free poset."""


class ShapeMismatch(NDRankError, ValueError):
    """Array shapes are inconsistent with each other or with the posets."""


class NonFiniteInput(NDRankError, ValueError):
    """An input array holds NaN or an infinity where finite values are required."""


class UncertifiedSolution(NDRankError):
    """No solver produced an answer that meets its optimality conditions.

    Raised instead of returning a point whose KKT certificate failed.
    """


class HypothesisViolated(NDRankError):
    """A structural hypothesis of the requested method does not hold."""


class DegenerateCone(NDRankError):
    """Generators span a proper subspace; facet description is not defined.

    ``equality_normals`` holds an integer basis of the orthogonal complement
    of the span: every generator g satisfies <a, g> = 0 for each basis row a.
    """

    def __init__(self, message, equality_normals=None):
        super().__init__(message)
        self.equality_normals = equality_normals


class NonNegativityViolated(NDRankError):
    """Input tensor has a negative entry where nonnegative data is required."""


class NonPositiveEntry(NDRankError):
    """Input tensor has a zero or negative entry where positive data is required."""


class UnsupportedLossRank(NDRankError):
    """The requested loss only supports rank-one fits."""


class ParseError(NDRankError):
    """A poset, tensor or factor file could not be parsed.

    Carries ``line`` (1-based) and optionally ``column`` when known.
    """

    def __init__(self, message, line=None, column=None):
        loc = ""
        if line is not None:
            loc = f" (line {line}" + (f", column {column}" if column is not None else "") + ")"
        super().__init__(message + loc)
        self.line = line
        self.column = column
