"""Combinatorics of generalized permutations.

A generalized permutation describes how the ends of d bands are glued to
2d subintervals: a top row of l ends and a bottom row of m ends with
l + m = 2d, every band label occurring exactly twice overall.  Positions
are indexed 0 .. 2d-1 reading the top row left to right, then the bottom
row.  The fixed-point-free involution pairs the two positions of each
label.

Bands fall into three orientation classes: both ends on top, both ends on
bottom, or one end on each side.  A permutation is classical when every
label occurs once per side, and non-classical when at least one band has
both ends on top and at least one has both ends on bottom.

Labels are opaque strings; the canonical ordering used for deterministic
tie-breaking is lexicographic.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from functools import lru_cache
from typing import Iterator, Mapping, Sequence

from .errors import InvalidInput, LabelCountError, SideEmptyError
from .rationals import canonical_json_bytes


class Orientation(Enum):
    PRESERVING = "preserving"
    REVERSING_TOP = "reversing_top"
    REVERSING_BOTTOM = "reversing_bottom"


@dataclass(frozen=True)
class GeneralizedPermutation:
    """A validated two-row labeling; equality and hashing use the rows only.

    The hash is the tuple hash of the two rows, stored once by
    ``_validate_cached``, so set and dict orders match the dataclass hash.
    """

    top: tuple[str, ...]
    bottom: tuple[str, ...]
    alphabet: tuple[str, ...] = field(compare=False, repr=False)
    involution: tuple[int, ...] = field(compare=False, repr=False)
    classes: Mapping[str, Orientation] = field(compare=False, repr=False)
    # The bands of each orientation class, in alphabet order.
    preserving: tuple[str, ...] = field(compare=False, repr=False)
    reversing_top: tuple[str, ...] = field(compare=False, repr=False)
    reversing_bottom: tuple[str, ...] = field(compare=False, repr=False)
    _hash: int = field(compare=False, repr=False)

    def __hash__(self) -> int:
        return self._hash

    @property
    def band_count(self) -> int:
        return len(self.alphabet)

    @property
    def top_count(self) -> int:
        return len(self.top)

    @property
    def bottom_count(self) -> int:
        return len(self.bottom)

    @property
    def is_classical(self) -> bool:
        return not self.reversing_top and not self.reversing_bottom

    @property
    def is_non_classical(self) -> bool:
        return bool(self.reversing_top) and bool(self.reversing_bottom)

    def label_at(self, position: int) -> str:
        if position < len(self.top):
            return self.top[position]
        return self.bottom[position - len(self.top)]

    def positions_of(self, label: str) -> tuple[int, int]:
        first = None
        for i in range(2 * self.band_count):
            if self.label_at(i) == label:
                if first is None:
                    first = i
                else:
                    return (first, i)
        raise KeyError(label)

    def orientation_of(self, label: str) -> Orientation:
        return self.classes[label]

    def reversing_top_bands(self) -> tuple[str, ...]:
        return self.reversing_top

    def reversing_bottom_bands(self) -> tuple[str, ...]:
        return self.reversing_bottom

    def preserving_bands(self) -> tuple[str, ...]:
        return self.preserving

    @property
    def has_preserving_band(self) -> bool:
        return bool(self.preserving)

    @property
    def is_all_reversing(self) -> bool:
        return not self.has_preserving_band

    def is_realizable(self) -> bool:
        """True when some positive width vector satisfies the switch condition.

        Both reversing classes must be populated, or neither.
        """
        return bool(self.reversing_top) == bool(self.reversing_bottom)

    def to_json_dict(self) -> dict:
        return {"top": list(self.top), "bottom": list(self.bottom)}

    def to_json_bytes(self) -> bytes:
        return canonical_json_bytes(self.to_json_dict())

    def __str__(self) -> str:
        return " ".join(self.top) + " | " + " ".join(self.bottom)


def validate(top: Sequence[str], bottom: Sequence[str]) -> GeneralizedPermutation:
    """Validate raw rows and compute the involution and orientation classes.

    >>> p = validate(["A", "A", "B"], ["B", "C", "C"])
    >>> p.is_non_classical, p.orientation_of("B").value
    (True, 'preserving')
    """
    return _validate_cached(tuple(str(x) for x in top), tuple(str(x) for x in bottom))


@lru_cache(maxsize=65536)
def _validate_cached(
    top: tuple[str, ...], bottom: tuple[str, ...]
) -> GeneralizedPermutation:
    if not top or not bottom:
        raise SideEmptyError("each side needs at least one interval end")

    counts: dict[str, int] = {}
    for label in top + bottom:
        counts[label] = counts.get(label, 0) + 1
    bad = {label: n for label, n in counts.items() if n != 2}
    if bad:
        raise LabelCountError(f"labels must occur exactly twice, got {bad}")

    alphabet = tuple(sorted(counts))
    total = len(top) + len(bottom)

    seen: dict[str, int] = {}
    involution = [-1] * total
    for i in range(total):
        label = top[i] if i < len(top) else bottom[i - len(top)]
        if label in seen:
            j = seen.pop(label)
            involution[i] = j
            involution[j] = i
        else:
            seen[label] = i

    classes: dict[str, Orientation] = {}
    for label in alphabet:
        ends = [
            i
            for i in range(total)
            if (top[i] if i < len(top) else bottom[i - len(top)]) == label
        ]
        on_top = sum(1 for i in ends if i < len(top))
        if on_top == 2:
            classes[label] = Orientation.REVERSING_TOP
        elif on_top == 0:
            classes[label] = Orientation.REVERSING_BOTTOM
        else:
            classes[label] = Orientation.PRESERVING

    def members(orientation: Orientation) -> tuple[str, ...]:
        return tuple(a for a in alphabet if classes[a] is orientation)

    return GeneralizedPermutation(
        top=top,
        bottom=bottom,
        alphabet=alphabet,
        involution=tuple(involution),
        classes=classes,
        preserving=members(Orientation.PRESERVING),
        reversing_top=members(Orientation.REVERSING_TOP),
        reversing_bottom=members(Orientation.REVERSING_BOTTOM),
        _hash=hash((top, bottom)),
    )


def from_json_dict(data: Mapping) -> GeneralizedPermutation:
    """The permutation of ``{"top": [...], "bottom": [...]}``; InvalidInput
    when a row is missing, is not a list or holds a label that is not a
    string."""
    rows = []
    for key in ("top", "bottom"):
        row = data.get(key) if isinstance(data, Mapping) else None
        if not isinstance(row, list):
            raise InvalidInput(f'a permutation needs a "{key}" list of labels')
        for label in row:
            if not isinstance(label, str):
                raise InvalidInput(f'label {label!r} in "{key}" is not a string')
        rows.append(row)
    return validate(*rows)


def critical_bands(perm: GeneralizedPermutation) -> tuple[str, str]:
    """The bands occupying the rightmost position of each side."""
    return (perm.top[-1], perm.bottom[-1])


def is_combinatorially_reducible(perm: GeneralizedPermutation) -> bool:
    """Whether some proper left prefix of ends closes up on both sides.

    The test scans every pair (k_t, k_b) other than (0, 0) and (l, m) and
    asks whether the first k_t top ends together with the first k_b bottom
    ends form a set closed under the involution.  On classical permutations
    this is exactly the usual prefix criterion.
    """
    l, m = perm.top_count, perm.bottom_count
    for k_t in range(l + 1):
        for k_b in range(m + 1):
            if (k_t, k_b) in ((0, 0), (l, m)):
                continue
            members = [False] * (2 * perm.band_count)
            for i in range(k_t):
                members[i] = True
            for i in range(k_b):
                members[l + i] = True
            if all(members[perm.involution[i]] for i in range(len(members)) if members[i]):
                return True
    return False


def is_dynamically_irreducible(
    perm: GeneralizedPermutation, budget: int = 100_000
) -> bool:
    """Proxy irreducibility: the forward Rauzy closure is clean.

    True when the closure is finite within ``budget``, contains no
    combinatorially reducible node, and no node whose two split directions
    are both width-infeasible.  This is a documented proxy, not the exact
    strong-irreducibility notion of the literature; callers should label
    results "proxy-irreducible".
    """
    from . import diagram  # local import, diagram depends on this module

    if is_combinatorially_reducible(perm):
        return False
    graph = diagram.forward_closure(perm, budget=budget)
    for node in graph.nodes:
        if is_combinatorially_reducible(node):
            return False
        if not graph.edges[node]:
            return False
    return True


def _pairings(positions: list[int]) -> Iterator[list[tuple[int, int]]]:
    if not positions:
        yield []
        return
    first = positions[0]
    for k in range(1, len(positions)):
        partner = positions[k]
        rest = positions[1:k] + positions[k + 1 :]
        for sub in _pairings(rest):
            yield [(first, partner)] + sub


_LETTERS = "ABCDEFGHIJKLMNOPQRSTUVWXYZ"


def enumerate_permutations(
    d: int,
    *,
    realizable_only: bool = True,
    non_classical_only: bool = False,
) -> Iterator[GeneralizedPermutation]:
    """Enumerate canonical labeled permutations on d bands.

    Canonical means labels are assigned in order of first occurrence
    reading the top row then the bottom row, so each abstract gluing is
    produced exactly once.
    """
    if d > len(_LETTERS):
        raise ValueError("enumeration supports at most 26 bands")
    total = 2 * d
    for l in range(1, total):
        for pairing in _pairings(list(range(total))):
            assignment = [""] * total
            next_label = 0
            for i in range(total):
                if assignment[i]:
                    continue
                label = _LETTERS[next_label]
                next_label += 1
                for a, b in pairing:
                    if a == i or b == i:
                        assignment[a] = assignment[b] = label
                        break
            perm = validate(assignment[:l], assignment[l:])
            if realizable_only and not perm.is_realizable():
                continue
            if non_classical_only and not perm.is_non_classical:
                continue
            yield perm
