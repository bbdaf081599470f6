"""dilation-forge: isometric dilations of (u-)commuting contraction tuples.

Classify tuples against the dilatable class (Szego positivity of the two
deleted-index sub-tuples plus purity), run the explicit coupling/transfer
construction of the dilation on a truncated Fock space, and verify every
identity numerically.
"""

__version__ = "0.1.0"

from .builder import (BuildConfig, CoefficientLayout, CouplingData, DefectData, DilationModel,
                      TransferData, assemble_model, build_defects, build_Pi, build_transfer,
                      build_U, build_V0, coefficient_layout, dilated_isometries, solve_aux,
                      transfer_tau, truncation_tails)
from .errors import (DilationForgeError, DimensionMismatch, GenerationFailed, GramMismatch,
                     IdentityResidualExceeded, InfeasibleFinitePadding, MalformedSpec,
                     NonFinite, NonSquare, NotInClass, NotPSD, UnsupportedMultiplicity)
from .fock import (FockModel, FockOperator, creation_matrix, enumerate_indices,
                   interior_projector)
from .linalg import PsdReport, isometry_from_frames, psd_check, psd_sqrt, range_basis
from .tuples import (AlgebraStructure, ClassReport, TupleSpec, class_gate, classify, is_pure,
                     merge_1n, szego_operator, validate)
from .verifier import (VerificationReport, full_report, verify_equivariance,
                       verify_factorization, verify_intertwining, verify_isometric_representation,
                       verify_moments, verify_pi)

__all__ = [name for name in dir() if not name.startswith("_")]
