"""Exception hierarchy shared by all linvex modules, and the table of loop limits."""

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


class SplitUndefined(LinvexError):
    """Base class for the three undefined cases of the induction step."""


class SplitUndefinedSameBand(SplitUndefined):
    """Both critical positions belong to the same band."""


class SplitUndefinedTie(SplitUndefined):
    """The two critical bands have exactly equal widths."""


class InconsistentStage(LinvexError):
    """Stage data does not cohere with the exchange it was built from."""


class BudgetExceeded(LinvexError):
    """A loop ran past its limit in ``LIMITS``."""


# The default limit of every loop that has one, read when the loop runs;
# a budget parameter defaults to its entry as its module loads.
LIMITS = {
    "chase_steps": 10**6,  # rounds of one first-return chase
    "closure_nodes": 100_000,  # nodes of one forward closure
    "composed_pieces": 2 * 10**6,  # pieces one rigidity composition composes
    "draws": 100,  # draws of one sampler, starts of one orbit experiment
    "mod_p_states": 1_000_000,  # product states of the coprime band search
    "probe_steps": 10**7,  # original-map steps of one visit probe
    "scan_splits": 2_000,  # deepest stage a rigidity scan's tower search screens
    "tower_splits": 10_000,  # deepest stage a tower search screens
    "verify_steps": 10**7,  # interval steps of one tower verification
}


class ExpansionHalted(LinvexError):
    """The expansion hit an undefined split before satisfying the request."""

    def __init__(self, cause: SplitUndefined, depth: int):
        self.cause = cause
        self.depth = depth
        super().__init__(f"expansion halted at depth {depth}: {cause}")


class Unreachable(LinvexError):
    """No node satisfying the target predicate is reachable."""


class InvariantViolation(LinvexError):
    """A mathematical invariant that should always hold was falsified.

    Reserved for findings that indicate either an implementation bug or a
    counterexample to a claimed invariant; the CLI maps this to its own
    exit code so automation can tell it apart from operational errors.
    """
