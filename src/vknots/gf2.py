"""GF(2) linear algebra on int-bitmask rows.

``gf2_rank`` can also check that the rows compose to zero with a next map
(d o d = 0 for a chain complex).  It checks only the rows the elimination
finds independent of the rows before them, and that is the whole check:
each pivot is its row plus earlier pivots, so those rows span the row
space, and a linear map that is zero on a spanning set is zero on every
row.
"""

from __future__ import annotations


def gf2_rank(rows: list[int], next_rows: list[int] | None = None) -> int:
    """Rank over GF(2) of the row space; rows are int bitmasks.

    With ``next_rows``, bit c of a row selects ``next_rows[c]``, and every
    row the elimination finds independent must map to 0 (the XOR of the
    rows it selects); otherwise AssertionError("d o d != 0 ...") is raised.
    """
    pivots: dict[int, int] = {}  # leading bit -> reduced row
    rank = 0
    for row in rows:
        vec = row
        while vec:
            lead = vec.bit_length() - 1
            if lead in pivots:
                vec ^= pivots[lead]
            else:
                pivots[lead] = vec
                rank += 1
                if next_rows is not None:
                    image = 0
                    while row:
                        low = row & -row
                        image ^= next_rows[low.bit_length() - 1]
                        row ^= low
                    if image:
                        raise AssertionError(f"d o d != 0 on the row with pivot bit {lead}")
                break
    return rank
