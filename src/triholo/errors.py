"""Exception hierarchy shared by all triholo modules."""


class TriholoError(Exception):
    """Base class for all domain errors raised by this package."""


# --- mesh ---------------------------------------------------------------

class NonManifoldEdge(TriholoError):
    """An edge is contained in more than two triangles."""


class BrokenStar(TriholoError):
    """The star of a vertex is not a single cycle (interior) or path (boundary)."""


class DegenerateTriangle(TriholoError):
    """A triangle with repeated vertices, or a duplicated vertex triple."""


class NotALoop(TriholoError):
    """A thick path that was required to be closed is not."""


# --- connection ---------------------------------------------------------

class BoundaryVertex(TriholoError):
    """Local holonomy requested at a vertex whose star is not a full cycle."""


class SeedViolation(TriholoError):
    """Transport seed does not solve the first triangle's equation."""


class ZeroDivisor(TriholoError):
    """A connection coefficient b[T, P] is zero; transport divides by every
    coefficient, so each must be nonzero."""


class NonzeroCurvature(TriholoError):
    """Operation requires a zero-curvature connection."""


class FlatnessViolation(TriholoError):
    """Edge matrices do not satisfy the triangle cocycle conditions."""


class UnremovableZeroCoefficient(TriholoError):
    """Generic gauge retries exhausted without making all coefficients nonzero."""


# --- solver -------------------------------------------------------------

class OddValence(TriholoError):
    """Operation requires every vertex valence to be even."""


class InconsistentBoundary(TriholoError):
    """Prescribed boundary values admit no solution."""


class NonTrivialHolonomy(TriholoError):
    """Domain holonomy is not globally trivial."""


class NotASolution(TriholoError):
    """Function does not solve the black triangle equation on the domain."""


# --- lattice ------------------------------------------------------------

class OutOfWindow(TriholoError):
    """Lattice function queried outside its declared window."""


class WindowNotSectorClosed(TriholoError):
    """Trefoil recursion would read a ray value that was not supplied."""


class SequenceTooShort(TriholoError):
    """Admissible sequence does not reach the requested index."""


class NotHolomorphic(TriholoError):
    """Right-hand side fails the black triangle equations."""


class InsufficientWindow(TriholoError):
    """Window too small for the requested stencil or recursion shadow."""


class WindowExhausted(TriholoError):
    """Requested expansion order exceeds what the window supports."""


class DomainUnbounded(TriholoError):
    """Lattice domain is empty or not a finite subcomplex."""


# --- opalgebra ----------------------------------------------------------

class WindowMismatch(TriholoError):
    """Operators defined over incompatible windows."""


class NotFactorizable(TriholoError):
    """Positivity (or exact square root) fails during factorization."""


class NotSelfAdjoint(TriholoError):
    """Operator coefficients violate the self-adjointness relations."""


class ConditionViolated(TriholoError):
    """Exponential coefficients fail the l_ij + l_ji = const condition."""


# --- simplicial ---------------------------------------------------------

class NotAManifold(TriholoError):
    """A (k-1)-simplex is not contained in exactly two k-simplices."""


class LocalHolonomyNontrivial(TriholoError):
    """Canonical connection has nontrivial local holonomy on this complex."""
