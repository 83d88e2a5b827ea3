"""Helpers for exact rational arithmetic and its wire format.

Rationals travel as "p/q" strings in every JSON artifact so that no
precision is lost on round trips.
"""

from __future__ import annotations

import json
import math
from fractions import Fraction
from typing import Iterable, Mapping


def parse_fraction(text: str | int | Fraction) -> Fraction:
    """Parse "p/q" (or a bare integer string) into an exact Fraction."""
    if isinstance(text, Fraction):
        return text
    if isinstance(text, int):
        return Fraction(text)
    return Fraction(str(text).strip())


def format_fraction(value: Fraction | int) -> str:
    """Render a rational as "p/q", keeping an explicit denominator."""
    value = Fraction(value)
    return f"{value.numerator}/{value.denominator}"


def one_norm(values: Iterable[Fraction]) -> Fraction:
    """Sum of absolute values; additive on nonnegative vectors."""
    total = Fraction(0)
    for v in values:
        total += abs(v)
    return total


def common_denominator(values: Iterable[Fraction]) -> int:
    """Least common multiple of the denominators: the grid of the values."""
    return math.lcm(*(v.denominator for v in values))


def to_grid(values: Mapping[str, Fraction], denominator: int) -> dict[str, int]:
    """Numerators on the grid of step 1 / denominator, which must be a
    common multiple of the values' denominators."""
    return {k: v.numerator * (denominator // v.denominator) for k, v in values.items()}


def widths_to_json(widths: Mapping[str, Fraction]) -> dict[str, str]:
    return {label: format_fraction(widths[label]) for label in sorted(widths)}


def widths_from_json(data: Mapping[str, str]) -> dict[str, Fraction]:
    return {str(label): parse_fraction(value) for label, value in data.items()}


def canonical_json_bytes(obj) -> bytes:
    """Byte-stable JSON encoding used for every emitted artifact."""
    return (json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n").encode()
