"""GF(2) linear algebra on int-bitmask rows."""

from __future__ import annotations


def gf2_rank(rows: list[int]) -> int:
    """Rank over GF(2) of the row space; rows are int bitmasks."""
    pivots: dict[int, int] = {}  # leading bit -> reduced row
    rank = 0
    for row in rows:
        while row:
            lead = row.bit_length() - 1
            if lead in pivots:
                row ^= pivots[lead]
            else:
                pivots[lead] = row
                rank += 1
                break
    return rank

