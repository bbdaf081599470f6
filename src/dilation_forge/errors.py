"""Exception hierarchy shared by all dilation-forge modules."""


class DilationForgeError(Exception):
    """Base class for every error raised by this package."""


class NonSquare(DilationForgeError):
    """A square matrix was required."""


class NotPSD(DilationForgeError):
    """Matrix is not positive semidefinite within tolerance."""


class NonFinite(DilationForgeError):
    """A matrix has NaN or Inf entries, given or reached by overflow."""


class GramMismatch(DilationForgeError):
    """Frame Gram matrices disagree; no partial isometry maps one frame to the other."""


class DimensionMismatch(DilationForgeError):
    """Subspace or block dimensions are incompatible."""


class MalformedSpec(DilationForgeError):
    """Tuple specification is structurally invalid (shapes, phases, algebra)."""


class UnsupportedMultiplicity(DilationForgeError):
    """Operation requires multiplicity d = 1."""


class NotInClass(DilationForgeError):
    """Tuple failed the dilatable-class membership test."""


class InfeasibleFinitePadding(DilationForgeError):
    """No finite auxiliary padding satisfies the equivariant matching constraints."""


class IdentityResidualExceeded(DilationForgeError):
    """A construction self-check identity exceeded its gate; the model would be wrong."""

    def __init__(self, identity: str, residual: float, gate: float):
        self.identity = identity
        self.residual = residual
        self.gate = gate
        super().__init__(f"identity {identity!r}: residual {residual:.3e} exceeds gate {gate:.1e}")


class GenerationFailed(DilationForgeError):
    """Random tuple generator exhausted its retry budget."""
