"""GF(2) linear algebra on int-bitmask rows.

``gf2_rank`` can also check that the rows compose to zero with a next map
(d o d = 0 for a chain complex).  It checks only the rows the elimination
finds independent of the rows before them, and that is the whole check:
each pivot is its row plus earlier pivots, so those rows span the row
space, and a linear map that is zero on a spanning set is zero on every
row.

Along a complex ... -> C^i -> C^{i+1} -> ..., the checked pivots of d_i
also tell which rows of d_{i+1} the elimination of d_{i+1} may skip.  Each
pivot p_L of d_i, with leading bit L, is a sum of rows of d_i, all of
which the check has sent to 0 under d_{i+1}; so row L of d_{i+1} is the
sum of its rows at the lower bits of p_L.  By induction on L, every row of
d_{i+1} at a pivot's leading bit lies in the span of the rows at the other
indices.  Skipping those rows leaves the rank unchanged, and the kept rows
the elimination finds independent still span d_{i+1}'s row space, so the
check of d_{i+1} still covers every row.
"""

from __future__ import annotations

from collections.abc import Container


def gf2_rank(
    rows: list[int],
    next_rows: list[int] | None = None,
    spanned: Container[int] = (),
    pivots: dict[int, int] | None = None,
) -> int:
    """Rank over GF(2) of the row space; rows are int bitmasks.

    With ``next_rows``, bit c of a row selects ``next_rows[c]``, and every
    row the elimination finds independent must map to 0 (the XOR of the
    rows it selects); otherwise AssertionError("d o d != 0 ...") is raised.

    Rows whose index is in ``spanned`` are skipped: the caller vouches that
    they lie in the span of the other rows, as the leading bits of the
    previous map's checked pivots do (see the module docstring).
    ``pivots``, if given, is an empty dict that the elimination fills,
    leading bit -> reduced row; its keys are the ``spanned`` of the next
    map.
    """
    if pivots is None:
        pivots = {}
    for index, row in enumerate(rows):
        if index in spanned:
            continue
        vec = row
        while vec:
            lead = vec.bit_length() - 1
            if lead in pivots:
                vec ^= pivots[lead]
            else:
                pivots[lead] = vec
                if next_rows is not None:
                    image = 0
                    while row:
                        bit = row.bit_length() - 1
                        image ^= next_rows[bit]
                        row ^= 1 << bit
                    if image:
                        raise AssertionError(f"d o d != 0 on the row with pivot bit {lead}")
                break
    return len(pivots)
