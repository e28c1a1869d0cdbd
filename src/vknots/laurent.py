"""Exact integer Laurent polynomials in one variable.

Used for the Kauffman bracket (variable ``A``) and the unnormalized Jones
polynomial (variable ``q``).  Coefficients are plain Python ints, so all
arithmetic is exact; zero coefficients are never stored.
"""

from __future__ import annotations

from typing import Iterable, Mapping


class LaurentPoly:
    """Immutable Laurent polynomial ``sum(c * X**e)`` with integer coefficients."""

    __slots__ = ("_coeffs",)

    def __init__(self, coeffs: Mapping[int, int] | Iterable[tuple[int, int]] = ()):
        items = coeffs.items() if isinstance(coeffs, Mapping) else coeffs
        acc: dict[int, int] = {}
        for exp, c in items:
            if c:
                acc[exp] = acc.get(exp, 0) + c
                if not acc[exp]:
                    del acc[exp]
        self._coeffs = dict(sorted(acc.items()))

    def items(self) -> list[tuple[int, int]]:
        """(exponent, coefficient) pairs in increasing exponent order."""
        return list(self._coeffs.items())

    def pairs(self) -> list[list[int]]:
        """[[coeff, exp], ...] in increasing exponent order (the JSON wire form)."""
        return [[c, e] for e, c in self._coeffs.items()]

    def __bool__(self) -> bool:
        return bool(self._coeffs)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        return self._coeffs == other._coeffs

    def __hash__(self) -> int:
        return hash(tuple(self._coeffs.items()))

    def __add__(self, other: LaurentPoly) -> LaurentPoly:
        acc = dict(self._coeffs)
        for e, c in other._coeffs.items():
            acc[e] = acc.get(e, 0) + c
        return LaurentPoly(acc)

    def __mul__(self, other: LaurentPoly | int) -> LaurentPoly:
        if isinstance(other, int):
            return LaurentPoly({e: c * other for e, c in self._coeffs.items()})
        acc: dict[int, int] = {}
        for e1, c1 in self._coeffs.items():
            for e2, c2 in other._coeffs.items():
                e = e1 + e2
                acc[e] = acc.get(e, 0) + c1 * c2
        return LaurentPoly(acc)

    __rmul__ = __mul__

    def shift(self, k: int) -> LaurentPoly:
        """Multiply by X**k."""
        return LaurentPoly({e + k: c for e, c in self._coeffs.items()})

    def to_str(self, var: str = "A") -> str:
        if not self._coeffs:
            return "0"
        parts = []
        for e, c in self._coeffs.items():
            if e == 0:
                term = str(abs(c))
            else:
                mag = "" if abs(c) == 1 else f"{abs(c)}*"
                term = f"{mag}{var}^{e}" if e != 1 else f"{mag}{var}"
            parts.append(("- " if c < 0 else "+ ") + term)
        text = " ".join(parts)
        return text[2:] if text.startswith("+ ") else "-" + text[2:]

    def __repr__(self) -> str:
        return f"LaurentPoly({self.to_str()})"
