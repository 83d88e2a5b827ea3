"""Validation, orientation classes, criticals, reducibility."""

from __future__ import annotations

import itertools
import json
import random

import pytest

from linvex import genperm
from linvex.errors import LabelCountError, SideEmptyError
from linvex.genperm import (
    Orientation,
    critical_bands,
    is_combinatorially_reducible,
    validate,
)


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
                (Orientation.REVERSING_TOP, p.reversing_top_bands()),
                (Orientation.REVERSING_BOTTOM, p.reversing_bottom_bands()),
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
    assert p.reversing_top_bands() == ("A",)
    assert p.reversing_bottom_bands() == ("C",)


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
        assert p.label_at(i) == p.label_at(j)


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
        ends_top = sum(1 for i in range(2 * p.band_count) if i < p.top_count)
        assert ends_top == p.top_count
        assert p.top_count + p.bottom_count == 2 * p.band_count


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
    assert genperm.is_dynamically_irreducible(p)


def test_dynamic_irreducibility_rejects_stuck_node():
    # the only two bands tie by the switch condition: no feasible split
    p = validate(["A", "A"], ["B", "B"])
    assert not genperm.is_dynamically_irreducible(p)


def test_dynamic_irreducibility_rejects_reducible():
    p = validate(["A", "B"], ["A", "B"])
    assert not genperm.is_dynamically_irreducible(p)


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
