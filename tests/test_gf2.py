"""``gf2_rank`` against a reference elimination, and its d o d check against
the full product computed row by row."""

import random

import pytest

from vknots.gf2 import gf2_rank


def reference_rank(rows):
    """Rank by an XOR basis with distinct leading bits, reduced greedily."""
    basis = []
    for row in rows:
        for b in sorted(basis, reverse=True):
            row = min(row, row ^ b)
        if row:
            basis.append(row)
    return len(basis)


def image(row, next_rows):
    out = 0
    for col in range(row.bit_length()):
        if (row >> col) & 1:
            out ^= next_rows[col]
    return out


def left_kernel(next_rows):
    """A basis of the rows v with image(v, next_rows) == 0."""
    pivots = {}  # leading bit of the image -> (image, combination)
    kernel = []
    for col, target in enumerate(next_rows):
        combo = 1 << col
        while target:
            lead = target.bit_length() - 1
            if lead not in pivots:
                pivots[lead] = (target, combo)
                break
            t, c = pivots[lead]
            target, combo = target ^ t, combo ^ c
        else:
            kernel.append(combo)
    return kernel


def sparse(rng, width, bits):
    row = 0
    for _ in range(bits):
        row |= 1 << rng.randrange(width)
    return row


def combination(rng, basis):
    out = 0
    while not out and basis:
        for b in basis:
            if rng.random() < 0.5:
                out ^= b
    return out


def full_rank(rng, width, count):
    """``count`` rows with distinct leading bits, shuffled."""
    leads = rng.sample(range(width), count)
    rows = [(1 << p) | sparse(rng, p, 2) if p else 1 for p in leads]
    rng.shuffle(rows)
    return rows


def rank_deficient(rng, width, count):
    rows = full_rank(rng, width, min(width, max(1, count // 2)))
    while len(rows) < count:
        rows.insert(rng.randrange(len(rows) + 1), combination(rng, rows) if rng.random() < 0.8 else 0)
    return rows


def check_against_product(rows, next_rows):
    """gf2_rank with next_rows raises exactly when some row maps to nonzero,
    and otherwise returns the rank without the check."""
    bad = any(image(row, next_rows) for row in rows)
    if bad:
        with pytest.raises(AssertionError, match="d o d"):
            gf2_rank(rows, next_rows)
    else:
        assert gf2_rank(rows, next_rows) == gf2_rank(rows)
    return bad


class TestRank:
    def test_empty(self):
        assert gf2_rank([]) == 0
        assert gf2_rank([], []) == 0
        assert gf2_rank([0, 0], []) == 0

    def test_full_rank(self):
        rng = random.Random(101)
        for _ in range(200):
            width = rng.randint(1, 60)
            rows = full_rank(rng, width, rng.randint(1, width))
            assert gf2_rank(rows) == reference_rank(rows) == len(rows)

    def test_rank_deficient(self):
        rng = random.Random(102)
        for _ in range(200):
            width = rng.randint(1, 60)
            rows = rank_deficient(rng, width, rng.randint(2, 2 * width + 2))
            want = reference_rank(rows)
            assert gf2_rank(rows) == want < len(rows)


class TestComposeCheck:
    def test_kernel_rows_pass_with_the_unchecked_rank(self):
        rng = random.Random(201)
        for _ in range(300):
            width, out = rng.randint(2, 40), rng.randint(1, 40)
            next_rows = [sparse(rng, out, rng.randint(0, 3)) for _ in range(width)]
            kernel = left_kernel(next_rows)
            rows = [combination(rng, kernel) for _ in range(rng.randint(0, 2 * width))]
            assert not check_against_product(rows, next_rows)
            assert gf2_rank(rows, next_rows) == reference_rank(rows)

    def test_one_bad_row_anywhere_is_caught(self):
        # every other row maps to 0, so the bad row is caught only if the
        # check reaches the row wherever it sits, not just at the first pivot
        rng = random.Random(202)
        positions = set()
        for _ in range(300):
            width, out = rng.randint(4, 40), rng.randint(1, 40)
            next_rows = [sparse(rng, out, rng.randint(0, 3)) for _ in range(width)]
            kernel = left_kernel(next_rows)
            if len(kernel) == width:  # next_rows all zero: nothing can fail
                continue
            rows = [combination(rng, kernel) for _ in range(rng.randint(1, width))]
            bad = 0
            while not image(bad, next_rows):
                bad = sparse(rng, width, rng.randint(1, 4))
            at = rng.randrange(len(rows) + 1)
            rows.insert(at, bad ^ combination(rng, kernel))
            positions.add(at)
            assert check_against_product(rows, next_rows)
        assert max(positions) > 5

    def test_random_rows_and_maps(self):
        rng = random.Random(203)
        outcomes = set()
        for _ in range(400):
            width, out = rng.randint(1, 30), rng.randint(1, 30)
            # next maps with many zero rows, so both outcomes occur
            next_rows = [
                sparse(rng, out, 1) if rng.random() < 0.2 else 0 for _ in range(width)
            ]
            make = rng.choice((full_rank, rank_deficient))
            rows = make(rng, width, rng.randint(1, width))
            outcomes.add(check_against_product(rows, next_rows))
        assert outcomes == {True, False}


def complex_maps(rng, widths):
    """Random maps d_0, ..., d_{k-1} of a complex C^0 -> ... -> C^k whose
    dimensions are ``widths``: each map's rows are bitmasks over the next
    space, and every row of d_i maps to 0 under d_{i+1}."""
    maps = [[sparse(rng, widths[-1], rng.randint(0, 3)) for _ in range(widths[-2])]]
    for width in reversed(widths[:-2]):
        kernel = left_kernel(maps[0])
        maps.insert(0, [combination(rng, kernel) for _ in range(width)])
    return maps


class TestSpannedRows:
    def test_skipping_the_previous_leads_keeps_rank_and_leads(self):
        # each map skips the rows at the leading bits of the previous map's
        # checked pivots; those rows lie in the span of the others, so the
        # rank and the set of pivot leads equal the plain elimination's
        rng = random.Random(301)
        skipped = 0
        for _ in range(200):
            widths = [rng.randint(1, 30) for _ in range(rng.randint(3, 6))]
            maps = complex_maps(rng, widths)
            spanned = ()
            for i, rows in enumerate(maps):
                next_rows = maps[i + 1] if i + 1 < len(maps) else None
                plain, pivots = {}, {}
                want = gf2_rank(rows, None, (), plain)
                assert want == reference_rank(rows)
                assert gf2_rank(rows, next_rows, spanned, pivots) == want
                assert pivots.keys() == plain.keys()
                skipped += len(spanned)
                spanned = pivots
        assert skipped > 1000

    def test_spanned_rows_are_not_read(self):
        # the caller vouches for the rows it names: they are neither
        # eliminated nor checked
        assert gf2_rank([1, 2], None, {1}) == 1
        with pytest.raises(AssertionError, match="d o d != 0"):
            gf2_rank([1, 2, 4], [0, 0, 1])
        assert gf2_rank([1, 2, 4], [0, 0, 1], {2}) == 2
