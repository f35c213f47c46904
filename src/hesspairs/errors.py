"""Exception types raised across the package.

Every failure mode that callers may want to discriminate gets its own
class; all of them derive from :class:`HesspairsError` so `except
HesspairsError` catches anything raised deliberately by this library.
"""


class HesspairsError(Exception):
    """Base class for all errors raised by this package."""


# -- field layer ------------------------------------------------------------

class MixedFieldsError(HesspairsError, TypeError):
    """Two scalars (or aggregates) from different fields were combined."""


class DivisionByZeroError(HesspairsError, ZeroDivisionError):
    """Multiplicative inverse of zero was requested."""


class InfiniteFieldError(HesspairsError):
    """An enumeration was requested over the rationals."""


class NotPrimeError(HesspairsError, ValueError):
    """GF(p) was requested for a non-prime or out-of-range modulus."""


# -- linear algebra layer ---------------------------------------------------

class AmbientMismatchError(HesspairsError, ValueError):
    """Subspaces or matrices with incompatible ambient dimensions."""


class NotSquareError(HesspairsError, ValueError):
    """A square matrix was required."""


class SizeMismatchError(HesspairsError, ValueError):
    """Generator matrices of differing sizes (or non-square) were supplied."""


class ZeroVectorError(HesspairsError, ValueError):
    """A nonzero seed vector was required."""


# -- spectral layer ---------------------------------------------------------

class EigenvaluesOutsideFieldError(HesspairsError):
    """The characteristic polynomial does not split over the ground field.

    `unfactored_degree` is the degree of the part with no roots in the
    field; the transformation cannot be analyzed over this field.
    """

    def __init__(self, unfactored_degree: int):
        self.unfactored_degree = unfactored_degree
        super().__init__(
            f"characteristic polynomial has an unfactored part of degree "
            f"{unfactored_degree}; eigenvalues lie outside the ground field"
        )


class LengthMismatchError(HesspairsError, ValueError):
    """Parallel sequences (subspaces / eigenvalues) differ in length."""


class NotADecompositionError(HesspairsError, ValueError):
    """A sequence of subspaces is not a direct-sum decomposition of V."""


class DuplicateEigenvalueError(HesspairsError, ValueError):
    """An eigenvalue sequence contains a repeated value."""


# -- pair analysis layer ----------------------------------------------------

class NotDiagonalizableError(HesspairsError):
    """An operation required a diagonalizable transformation."""


class SearchBudgetExceededError(HesspairsError):
    """The eigenspace-ordering search passed its budget of stops, or its ordering pairs the cap."""


class NotHessenbergError(HesspairsError):
    """The pair is not Hessenberg with respect to the given orderings."""


class NotIrreducibleError(HesspairsError):
    """An operation required an irreducible pair."""


class IrreducibilityUndeterminedError(HesspairsError):
    """Irreducibility could not be decided and the operation refused to proceed."""


class DDeltaMismatchError(HesspairsError):
    """The two transformations have different numbers of eigenspaces."""


class ShapeMismatchError(HesspairsError, ValueError):
    """A split-decomposition candidate is internally inconsistent in shape."""


class SplitInvalidError(HesspairsError):
    """A verified split decomposition was required."""


class IndexOutOfRangeError(HesspairsError, IndexError):
    """A lattice index was outside its valid range."""


class OracleDisagreementError(HesspairsError):
    """A fast path contradicted an independent oracle; always a bug."""


# -- generators -------------------------------------------------------------

class EmptyDimsError(HesspairsError, ValueError):
    """An instance was requested with no blocks."""


class GenerationBudgetError(HesspairsError):
    """No acceptable instance was found within the retry budget."""


class SingularConjugatorError(HesspairsError):
    """No invertible change-of-basis matrix was found within the budget."""


# -- CLI --------------------------------------------------------------------

class DocumentParseError(HesspairsError, ValueError):
    """A pair document failed to parse or validate."""
