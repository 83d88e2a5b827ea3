"""Helpers for exact rational arithmetic and its wire format.

Rationals travel as "p/q" strings in every JSON artifact so that no
precision is lost on round trips.
"""

from __future__ import annotations

import json
import math
from fractions import Fraction
from typing import Iterable, Mapping

from .errors import InvalidInput


def parse_fraction(text: str | int | Fraction) -> Fraction:
    """Parse "p/q" (or a bare integer string) into an exact Fraction.

    A JSON number loads from its decimal text; JSON true and false do not.
    """
    if isinstance(text, bool):
        raise InvalidInput(f"{json.dumps(text)} is not a rational p/q")
    if isinstance(text, Fraction):
        return text
    if isinstance(text, int):
        return Fraction(text)
    try:
        return Fraction(str(text).strip())
    except (ValueError, ZeroDivisionError):
        raise InvalidInput(f"{text!r} is not a rational p/q") from None


def format_fraction(value: Fraction | int) -> str:
    """Render a rational as "p/q", keeping an explicit denominator."""
    value = Fraction(value)
    return f"{value.numerator}/{value.denominator}"


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
    if not isinstance(data, Mapping):
        raise InvalidInput("widths must be an object of band labels to p/q strings")
    widths = {}
    for label, value in data.items():
        try:
            widths[str(label)] = parse_fraction(value)
        except InvalidInput as err:
            raise InvalidInput(f"width of band {label}: {err}") from None
    return widths


def canonical_json_bytes(obj) -> bytes:
    """Byte-stable JSON encoding used for every emitted artifact."""
    return (json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n").encode()
