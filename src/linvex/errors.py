"""Exception hierarchy shared by all linvex modules."""

from __future__ import annotations


class LinvexError(Exception):
    """Base class for every domain error raised by this package."""


class InvalidInput(LinvexError):
    """An argument violates a documented precondition."""


class LabelCountError(InvalidInput):
    """Some band label does not occur exactly twice."""


class SideEmptyError(InvalidInput):
    """A side of the permutation carries no interval ends."""


class NonPositiveWidth(InvalidInput):
    """A band width is zero or negative."""


class SwitchConditionViolated(InvalidInput):
    """Total reversing width on top differs from the bottom total."""


class EndpointHit(LinvexError):
    """The map is not defined at this point under the half-open convention.

    Raised only when a point sits at offset 0 of an end whose partner end
    lies on the same side; the reversal would land on the excluded right
    endpoint of a subinterval.  The exceptional set is countable.
    """

    def __init__(self, point, message: str = ""):
        self.point = point
        super().__init__(message or f"map undefined at {point!r}")


class NotReturning(LinvexError):
    """A piece failed to return to the cut intervals within budget."""


class SplitUndefined(LinvexError):
    """Base class for the three undefined cases of the induction step."""


class SplitUndefinedSameBand(SplitUndefined):
    """Both critical positions belong to the same band."""


class SplitUndefinedTie(SplitUndefined):
    """The two critical bands have exactly equal widths."""


class SplitInfeasible(SplitUndefined):
    """The step would produce widths violating positivity or the switch.

    The Rauzy step no longer raises it: the chase to a Rauzy cut always
    returns one piece per induced end.  It stays in the hierarchy for
    callers that catch it.
    """


class InconsistentStage(LinvexError):
    """Stage data does not cohere with the exchange it was built from."""


class PositiveMatrixRequired(LinvexError):
    """The requested ratio is defined only for strictly positive matrices."""


class ClosureBudgetExceeded(LinvexError):
    """A forward closure grew past the configured node budget."""


class BudgetExceeded(LinvexError):
    """An iterative search exhausted its step budget."""


class ExpansionHalted(LinvexError):
    """The expansion hit an undefined split before satisfying the request."""

    def __init__(self, cause: SplitUndefined, depth: int):
        self.cause = cause
        self.depth = depth
        super().__init__(f"expansion halted at depth {depth}: {cause}")


class PartitionBlowup(LinvexError):
    """An iterated-map partition exceeded the configured piece bound."""


class Unreachable(LinvexError):
    """No node satisfying the target predicate is reachable."""


class DegenerateSample(LinvexError):
    """The sampler kept producing zero widths past its retry cap."""


class InvariantViolation(LinvexError):
    """A mathematical invariant that should always hold was falsified.

    Reserved for findings that indicate either an implementation bug or a
    counterexample to a claimed invariant; the CLI maps this to its own
    exit code so automation can tell it apart from operational errors.
    """
