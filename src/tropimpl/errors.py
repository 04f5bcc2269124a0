"""Error types shared across the package.

Each class carries an ``exit_code`` so the command line tool can map failures
to its documented process exit codes: 2 for malformed input, 3 for violated
preconditions, 4 for computations that fail or exhaust their budget.
"""

PARSE_ERROR = 2
PRECONDITION_ERROR = 3
COMPUTATION_ERROR = 4


class TropicalError(Exception):
    exit_code = COMPUTATION_ERROR


class InputFormatError(TropicalError):
    """Input file or object does not match the wire format."""
    exit_code = PARSE_ERROR


class RankDeficient(TropicalError):
    """Matrix does not have the full rank required by the operation."""
    exit_code = PRECONDITION_ERROR


class DimensionMismatch(TropicalError):
    exit_code = PRECONDITION_ERROR


class UnbalancedCycle(TropicalError):
    """The weighted primitive generators of a cycle's rays do not sum into
    the span of their common lineality."""
    exit_code = PRECONDITION_ERROR


class LatticeMismatch(TropicalError):
    """Polytope directions leave the span of the reference lattice."""
    exit_code = PRECONDITION_ERROR


class LoopyMatroid(TropicalError):
    """A matroid with a loop has an empty tropical linear space."""
    exit_code = PRECONDITION_ERROR


class RowSpanMissingOnes(TropicalError):
    """The all-ones vector is not in the row span, so the torus action is
    not homogeneous and the dual construction does not apply."""
    exit_code = PRECONDITION_ERROR


class NonDivisibleDegree(TropicalError):
    """Aggregate multiplicity not divisible by the declared covering degree."""
    exit_code = COMPUTATION_ERROR


class NonReducedCycle(TropicalError):
    """The cycle counts its variety g > 1 times: its polytope is g times
    one that pins the variety's Chow form."""
    exit_code = COMPUTATION_ERROR


class OracleInconsistent(TropicalError):
    """Vertex oracle answers violate a support function inequality."""
    exit_code = COMPUTATION_ERROR


class SamplingExhausted(TropicalError):
    """Could not find enough usable sample points."""
    exit_code = COMPUTATION_ERROR


class ReconstructionFailed(TropicalError):
    """Rational reconstruction from modular images found no small fraction."""
    exit_code = COMPUTATION_ERROR


class KernelTooBig(TropicalError):
    """Interpolation kernel has dimension above one; the lattice point set
    is too large for the actual equation."""
    exit_code = COMPUTATION_ERROR


class KernelEmpty(TropicalError):
    """Interpolation kernel is zero; no equation with the proposed support."""
    exit_code = COMPUTATION_ERROR


class VerificationFailed(TropicalError):
    """Candidate equation does not vanish on fresh verification samples."""
    exit_code = COMPUTATION_ERROR


class ShiftSearchFailed(TropicalError):
    """The reconstructed translate pins no Chow polytope of bounded degree."""
    exit_code = COMPUTATION_ERROR


class EnumerationTooLarge(TropicalError):
    """Lattice point enumeration exceeded the safety budget."""
    exit_code = COMPUTATION_ERROR
