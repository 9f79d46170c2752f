"""Exception types shared across the package."""


class FintopError(Exception):
    """Base class for all package-specific errors."""


class CarrierTooLarge(FintopError, ValueError):
    """Carrier size exceeds the documented cap for the operation."""


class CarrierMismatch(FintopError, ValueError):
    """Two values over different carriers were combined."""


class EmptyFamilyIntersection(FintopError, ValueError):
    """Intersection of an empty family is undefined."""


class EmptyList(FintopError, ValueError):
    """An operation requiring a nonempty list of spaces got an empty one."""


class InvalidTopology(FintopError, ValueError):
    """A family failed the topology axioms; carries the violation list."""

    def __init__(self, violations):
        self.violations = list(violations)
        super().__init__(f"not a topology: {self.violations}")


class InvalidBase(FintopError, ValueError):
    """A family failed the base conditions; carries the classification."""

    def __init__(self, problem):
        self.problem = problem
        super().__init__(f"not a base: {problem}")


class SubbaseDoesNotCover(FintopError, ValueError):
    """A sub-base must cover the carrier."""


class InvalidMetric(FintopError, ValueError):
    """A distance table violated a metric axiom; carries axiom + witness."""

    def __init__(self, axiom, witness):
        self.axiom = axiom
        self.witness = tuple(witness)
        super().__init__(f"metric axiom {axiom} violated at {self.witness}")


class NotAPartition(FintopError, ValueError):
    """Blocks were not pairwise disjoint, nonempty, and covering."""


class NotALimitPoint(FintopError, ValueError):
    """Limit computation requires the base point to be a limit point."""


class NotFundamental(FintopError, ValueError):
    """Pasting verification requires a fundamental cover."""


class NotACover(FintopError, ValueError):
    """The family does not cover the target set."""


class CodomainNotHausdorff(FintopError, ValueError):
    """Hausdorff-codomain checks require a Hausdorff codomain."""


class CrossCheckFailure(FintopError, AssertionError):
    """Two provably-equivalent evaluators disagreed (indicates a bug)."""
