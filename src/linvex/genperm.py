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

``validate`` builds each record in one pass over the 2d ends: the pass
pairs every end with the first end of its label, which gives the
involution, and a band's class then follows from where its first end and
that end's partner lie.  Each fact is read through one name: the fields
``alphabet``, ``involution``, ``classes`` and the three class tuples, or
the rows themselves for the end counts per side.

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


@dataclass(frozen=True, slots=True)
class GeneralizedPermutation:
    """A validated two-row labeling; equality and hashing use the rows only.

    The hash is the tuple hash of the two rows, stored once by
    ``_validate_cached``, so set and dict orders match the dataclass hash.
    A pickle carries the rows only and loads through ``_validate_cached``,
    so the hash is the loading interpreter's.
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

    def __reduce__(self):
        return _validate_cached, (self.top, self.bottom)

    @property
    def band_count(self) -> int:
        return len(self.alphabet)

    @property
    def is_classical(self) -> bool:
        return not self.reversing_top and not self.reversing_bottom

    @property
    def is_non_classical(self) -> bool:
        return bool(self.reversing_top) and bool(self.reversing_bottom)

    def positions_of(self, label: str) -> tuple[int, int]:
        """The two positions of ``label``, in order; KeyError for a label
        outside the alphabet."""
        if label not in self.classes:
            raise KeyError(label)
        first = (self.top + self.bottom).index(label)
        return (first, self.involution[first])

    def orientation_of(self, label: str) -> Orientation:
        return self.classes[label]

    def preserving_bands(self) -> tuple[str, ...]:
        return self.preserving

    @property
    def is_all_reversing(self) -> bool:
        return not self.preserving

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

    ends = top + bottom
    first: dict[str, int] = {}
    involution = [-1] * len(ends)
    for i, label in enumerate(ends):
        j = first.setdefault(label, i)
        if j != i:
            involution[i] = j
            involution[j] = i
    # A label seen once leaves a -1; with every label seen at least twice,
    # one seen three times or more leaves fewer labels than half the ends.
    if -1 in involution or 2 * len(first) != len(ends):
        counts = {label: ends.count(label) for label in first}
        bad = {label: n for label, n in counts.items() if n != 2}
        raise LabelCountError(f"labels must occur exactly twice, got {bad}")

    alphabet = tuple(sorted(first))
    n_top = len(top)
    classes: dict[str, Orientation] = {}
    members: dict[Orientation, list[str]] = {o: [] for o in Orientation}
    for label in alphabet:
        i = first[label]
        if involution[i] < n_top:
            orientation = Orientation.REVERSING_TOP
        elif i >= n_top:
            orientation = Orientation.REVERSING_BOTTOM
        else:
            orientation = Orientation.PRESERVING
        classes[label] = orientation
        members[orientation].append(label)

    return GeneralizedPermutation(
        top=top,
        bottom=bottom,
        alphabet=alphabet,
        involution=tuple(involution),
        classes=classes,
        preserving=tuple(members[Orientation.PRESERVING]),
        reversing_top=tuple(members[Orientation.REVERSING_TOP]),
        reversing_bottom=tuple(members[Orientation.REVERSING_BOTTOM]),
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
    l, m = len(perm.top), len(perm.bottom)
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


_LETTERS = "ABCDEFGHIJKLMNOPQRSTUVWXYZ"


def _canonical_words(word: list[str], letter: int) -> Iterator[tuple[str, ...]]:
    """Every canonical filling of the free ("") positions of ``word``.

    The first free position takes ``_LETTERS[letter]``; its partner is each
    later free position in turn, and the rest is filled recursively.
    """
    if "" not in word:
        yield tuple(word)
        return
    first = word.index("")
    word[first] = _LETTERS[letter]
    for partner in range(first + 1, len(word)):
        if not word[partner]:
            word[partner] = word[first]
            yield from _canonical_words(word, letter + 1)
            word[partner] = ""
    word[first] = ""


def enumerate_permutations(
    d: int,
    *,
    realizable_only: bool = True,
    non_classical_only: bool = False,
) -> Iterator[GeneralizedPermutation]:
    """Enumerate canonical labeled permutations on d bands.

    Canonical means labels are assigned in order of first occurrence
    reading the top row then the bottom row, so each abstract gluing is
    produced exactly once.  The order: for each top length l = 1 .. 2d-1,
    the canonical words of 2d ends, where the first free position takes
    the next letter and its partner runs over the later free positions
    from left to right, each choice completed recursively before the
    next.  ``d`` must be an int (not a bool) in 0 .. 26, else
    InvalidInput; d = 0 yields nothing.
    """
    if type(d) is not int or not 0 <= d <= len(_LETTERS):
        raise InvalidInput(f"d must be an int in 0 .. {len(_LETTERS)}, got {d!r}")
    total = 2 * d
    perms = (
        _validate_cached(word[:l], word[l:])
        for l in range(1, total)
        for word in _canonical_words([""] * total, 0)
    )
    return (
        p
        for p in perms
        if (p.is_realizable() or not realizable_only)
        and (p.is_non_classical or not non_classical_only)
    )
