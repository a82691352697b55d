"""Operator scaling toolkit.

Decides support and total support of nonnegative matrices with verified
zero-submatrix witnesses, runs an operator Sinkhorn iteration that drives a
positive map toward its doubly stochastic scaling, lifts rectangular maps to
square ones, verifies block-structure certificates, and computes filter
normal forms of bipartite states together with their Schmidt-style operator
expansions.
"""

from .fnf import (BipartiteState, FnfCheck, FnfPreconditionFailed, FnfResult,
                  FnfVerification, MarginalCheck, PreconditionReport,
                  ScalingInconclusive, SchmidtTerm, SufficientReport,
                  check_preconditions, compute_fnf, sufficient_conditions,
                  verify_fnf)
from .matcomb import (ConditionCheck, NonnegPattern, SizeGuardError,
                      SupportResult, TotalSupportResult, ZeroFractionReport,
                      ZeroSubmatrixWitness, has_support,
                      has_support_bruteforce, has_total_support,
                      has_total_support_bruteforce, zero_fraction_sufficient)
from .numkernel import (DEFAULT_TOL, NotPositiveDefinite, NumericalFailure,
                        Tolerances, frob, hermitian_part, kernel_dim, kron,
                        partial_trace_first, partial_trace_second, realign,
                        unrealign)
from .posmap import (BlockCertificate, CertificateCondition, CertificateReport,
                     ChoiMap, DsCheck, PositivityViolation, from_state,
                     haar_unitary, invariance_defect, is_doubly_stochastic,
                     pattern_matrix, verify_block_certificate)
from .scaling import (VERDICT_CONVERGED, VERDICT_INCONCLUSIVE,
                      VERDICT_NO_SUPPORT, VERDICT_PRECONDITION, IterationRecord,
                      PreconditionFailed, ScalingReport, ScalingState, init,
                      run, step)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # numerics
    "Tolerances", "DEFAULT_TOL", "NumericalFailure", "NotPositiveDefinite",
    "frob", "hermitian_part", "kron", "partial_trace_first",
    "partial_trace_second", "realign", "unrealign", "kernel_dim",
    # combinatorial support
    "NonnegPattern", "ZeroSubmatrixWitness", "SupportResult",
    "TotalSupportResult", "SizeGuardError", "has_support",
    "has_total_support", "has_support_bruteforce",
    "has_total_support_bruteforce", "zero_fraction_sufficient",
    "ConditionCheck", "ZeroFractionReport",
    # positive maps
    "ChoiMap", "from_state", "PositivityViolation", "DsCheck",
    "is_doubly_stochastic", "pattern_matrix", "haar_unitary",
    "BlockCertificate", "CertificateCondition", "CertificateReport",
    "verify_block_certificate", "invariance_defect",
    # scaling
    "init", "step", "run", "ScalingState", "ScalingReport", "IterationRecord",
    "PreconditionFailed",
    "VERDICT_CONVERGED", "VERDICT_NO_SUPPORT", "VERDICT_INCONCLUSIVE",
    "VERDICT_PRECONDITION",
    # filter normal form
    "BipartiteState", "compute_fnf", "verify_fnf", "FnfResult", "SchmidtTerm",
    "FnfCheck", "FnfVerification", "FnfPreconditionFailed",
    "ScalingInconclusive", "MarginalCheck", "PreconditionReport",
    "SufficientReport", "check_preconditions", "sufficient_conditions",
]
