"""Shared exception types."""


class DimensionMismatch(ValueError):
    """Vector or matrix dimensions do not match the ambient space."""


class SublatticeError(ValueError):
    """The claimed sublattice relation does not hold."""


class AlgebraMismatch(ValueError):
    """Operands belong to different Lie algebras."""


class IndexMismatch(ValueError):
    """A supplied subgroup index differs from the one computed."""


class CapExceeded(RuntimeError):
    """A bounded search or enumeration hit its configured cap.

    This always means "inconclusive", never a refutation.
    """


class UnsupportedInputForm(ValueError):
    """The operation is only defined for a restricted input form."""
