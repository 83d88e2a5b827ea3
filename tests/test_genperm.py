"""Validation, orientation classes, criticals, reducibility."""

from __future__ import annotations

import itertools
import json
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from linvex import diagram, genperm
from linvex.errors import InvalidInput, LabelCountError, SideEmptyError
from linvex.genperm import (
    Orientation,
    critical_bands,
    is_combinatorially_reducible,
    validate,
)

from conftest import reference_enumerate, reference_validate


def test_validate_classical_rotation():
    p = validate(["A", "B"], ["B", "A"])
    assert p.band_count == 2
    assert p.is_classical and not p.is_non_classical
    assert p.orientation_of("A") is Orientation.PRESERVING


def test_class_tuples_match_the_class_map():
    for d in range(1, 5):
        for p in genperm.enumerate_permutations(d, realizable_only=False):
            for orientation, members in (
                (Orientation.PRESERVING, p.preserving_bands()),
                (Orientation.REVERSING_TOP, p.reversing_top),
                (Orientation.REVERSING_BOTTOM, p.reversing_bottom),
            ):
                assert members == tuple(a for a in p.alphabet if p.classes[a] is orientation)
            assert p.is_non_classical == (
                any(c is Orientation.REVERSING_TOP for c in p.classes.values())
                and any(c is Orientation.REVERSING_BOTTOM for c in p.classes.values())
            )


def test_validate_non_classical_classes():
    p = validate(["A", "A", "B"], ["B", "C", "C"])
    assert p.is_non_classical and not p.is_classical
    assert p.orientation_of("A") is Orientation.REVERSING_TOP
    assert p.orientation_of("B") is Orientation.PRESERVING
    assert p.orientation_of("C") is Orientation.REVERSING_BOTTOM
    assert p.reversing_top == ("A",)
    assert p.reversing_bottom == ("C",)


def test_validate_rejects_bad_label_count():
    with pytest.raises(LabelCountError):
        validate(["A", "B"], ["A", "A"])


def test_validate_rejects_empty_side():
    with pytest.raises(SideEmptyError):
        validate(["A", "A"], [])


def test_involution_is_fixed_point_free_pairing():
    p = validate(["A", "B", "A"], ["C", "B", "C"])
    sigma = p.involution
    for i, j in enumerate(sigma):
        assert j != i
        assert sigma[j] == i
        assert (p.top + p.bottom)[i] == (p.top + p.bottom)[j]


def test_critical_bands():
    assert critical_bands(validate(["A", "A", "B"], ["B", "C", "C"])) == ("B", "C")
    assert critical_bands(validate(["A", "B"], ["B", "A"])) == ("B", "A")


def test_reducible_adjacent_prefix_pair():
    # both ends of A form a closed top prefix
    p = validate(["A", "A", "B", "C", "C"], ["B", "D", "D"])
    assert is_combinatorially_reducible(p)


def test_reducible_classical_cases():
    assert is_combinatorially_reducible(validate(["A", "B"], ["A", "B"]))
    assert not is_combinatorially_reducible(validate(["A", "B"], ["B", "A"]))


def test_all_reversing_is_prefix_reducible():
    # a full side closed under the involution counts as a prefix closure
    p = validate(["A", "A"], ["B", "B"])
    assert is_combinatorially_reducible(p)


def _classical_perm(words):
    top, bottom = words
    return validate(list(top), list(bottom))


def _classical_reducible_reference(p0, p1):
    """Textbook criterion: some strict prefix maps onto itself."""
    d = len(p0)
    for k in range(1, d):
        if set(p0[:k]) == set(p1[:k]):
            return True
    return False


def test_classical_reducibility_matches_reference_exhaustively():
    # all labeled classical permutations with up to 5 bands
    labels = "ABCDE"
    for d in range(2, 6):
        top = tuple(labels[:d])
        for bottom in itertools.permutations(top):
            p = validate(list(top), list(bottom))
            assert is_combinatorially_reducible(p) == _classical_reducible_reference(
                top, bottom
            ), (top, bottom)


def test_ends_per_side_counts():
    rng = random.Random(3)
    perms = list(genperm.enumerate_permutations(4))
    for p in rng.sample(perms, 30):
        ends_top = sum(1 for i in range(2 * p.band_count) if i < len(p.top))
        assert ends_top == len(p.top)
        assert len(p.top) + len(p.bottom) == 2 * p.band_count


def test_orientation_classes_partition_alphabet():
    for p in genperm.enumerate_permutations(3):
        classes = [p.orientation_of(a) for a in p.alphabet]
        assert len(classes) == p.band_count
        has_top = Orientation.REVERSING_TOP in classes
        has_bottom = Orientation.REVERSING_BOTTOM in classes
        assert p.is_non_classical == (has_top and has_bottom)


def test_enumeration_involution_properties_small_d():
    seen = set()
    for d in (2, 3, 4):
        for p in genperm.enumerate_permutations(d, realizable_only=False):
            assert p not in seen
            seen.add(p)
            sigma = p.involution
            assert all(sigma[sigma[i]] == i and sigma[i] != i for i in range(2 * d))


def test_involution_properties_sampled_up_to_six_bands():
    rng = random.Random(8)
    for d in (5, 6):
        labels = [ch for ch in "ABCDEF"[:d] for _ in range(2)]
        for _ in range(200):
            rng.shuffle(labels)
            split = rng.randrange(1, 2 * d)
            p = validate(labels[:split], labels[split:])
            sigma = p.involution
            assert all(sigma[sigma[i]] == i and sigma[i] != i for i in range(2 * d))


def test_dynamic_irreducibility_classical_rotation():
    p = validate(["A", "B"], ["B", "A"])
    assert diagram.is_dynamically_irreducible(p)


def test_dynamic_irreducibility_rejects_stuck_node():
    # the only two bands tie by the switch condition: no feasible split
    p = validate(["A", "A"], ["B", "B"])
    assert not diagram.is_dynamically_irreducible(p)


def test_dynamic_irreducibility_rejects_reducible():
    p = validate(["A", "B"], ["A", "B"])
    assert not diagram.is_dynamically_irreducible(p)


def test_json_round_trip_is_byte_stable():
    p = validate(["A", "A", "B"], ["B", "C", "C"])
    blob = p.to_json_bytes()
    again = genperm.from_json_dict(json.loads(blob))
    assert again == p
    assert again.to_json_bytes() == blob


def test_hash_is_the_tuple_hash_of_the_rows():
    # The stored hash must equal the generated dataclass hash, so set and
    # dict orders, and every artifact built from them, stay the same.
    for d in range(1, 5):
        for p in genperm.enumerate_permutations(d, realizable_only=False):
            assert hash(p) == hash((p.top, p.bottom))


def _fields(p):
    """Every field of a record, the class map's order included."""
    return (
        p.top,
        p.bottom,
        p.alphabet,
        p.involution,
        list(p.classes.items()),
        p.preserving,
        p.reversing_top,
        p.reversing_bottom,
        p._hash,
    )


def _record(build, top, bottom):
    """The fields of the record ``build`` makes of the rows, or the class
    and message of its error."""
    try:
        return _fields(build(tuple(top), tuple(bottom)))
    except InvalidInput as err:
        return type(err), str(err)


@pytest.mark.parametrize("realizable_only", [True, False])
@pytest.mark.parametrize("non_classical_only", [False, True])
def test_enumeration_and_records_equal_the_reference(realizable_only, non_classical_only):
    # The same permutations in the same order, each equal field for field
    # to the reference record.
    filters = dict(realizable_only=realizable_only, non_classical_only=non_classical_only)
    for d in range(6):
        got = genperm.enumerate_permutations(d, **filters)
        want = reference_enumerate(d, **filters)
        assert [_fields(p) for p in got] == [_fields(p) for p in want]


@settings(derandomize=True, max_examples=300, deadline=None)
@given(st.data())
def test_record_equals_the_reference_on_sampled_rows(data):
    d = data.draw(st.integers(6, 8))
    labels = [ch for ch in "ABCDEFGH"[:d] for _ in range(2)]
    ends = data.draw(st.permutations(labels))
    split = data.draw(st.integers(1, 2 * d - 1))
    top, bottom = ends[:split], ends[split:]
    assert _record(validate, top, bottom) == _record(reference_validate, top, bottom)


@pytest.mark.parametrize(
    "top, bottom, error",
    [
        (["A", "A"], [], SideEmptyError),
        ([], ["A", "A"], SideEmptyError),
        (["A", "B"], ["B"], LabelCountError),
        (["A", "A", "B"], ["B", "C", "A"], LabelCountError),
        (["C", "B", "A"], ["A", "B", "B", "D"], LabelCountError),
    ],
    ids=["bottom-empty", "top-empty", "seen-once", "seen-three-times", "once-and-three-times"],
)
def test_malformed_rows_raise_the_reference_error(top, bottom, error):
    got = _record(validate, top, bottom)
    assert got[0] is error
    assert got == _record(reference_validate, top, bottom)


def test_positions_of_reads_the_involution():
    p = validate(["A", "B", "A"], ["C", "B", "C"])
    assert [p.positions_of(a) for a in p.alphabet] == [(0, 2), (1, 4), (3, 5)]
    with pytest.raises(KeyError):
        p.positions_of("Z")


@pytest.mark.parametrize("d", [27, -1, 2.5, True, "3"])
def test_enumeration_rejects_a_band_count_outside_0_to_26(d):
    with pytest.raises(InvalidInput):
        list(genperm.enumerate_permutations(d))


def test_enumeration_of_zero_bands_is_empty():
    assert list(genperm.enumerate_permutations(0, realizable_only=False)) == []
