"""Reference implementations the tests hold the library to.

Each is the plain definition, built on what the library keeps, and reads
only inputs the tests make, so none checks its arguments.
"""

import itertools

from vknots.khovanov import _space
from vknots.laurent import LaurentPoly
from vknots.moves import MoveEvent, apply_move


def circles(sp, mask):
    """The circles of state ``mask`` of the state space ``sp``, traced on
    its own: each the tuple of its arcs, in order of their smallest arc."""
    arc_circle, count = sp._arc_circles(sp._partner(mask))
    return tuple(tuple(arc for arc, k in enumerate(arc_circle) if k == idx) for idx in range(count))


def mask_of(markers):
    """The state of a marker vector: bit k set where marker k is -1."""
    return sum(1 << k for k, mu in enumerate(markers) if mu < 0)


def lemma5_check(diagram, markers):
    """The Lemma 5 certificate on one state: every switch of a positive
    marker to a negative one keeps the circle count, and every switch of
    a negative marker to a positive one does not increase it."""
    sp = _space(diagram)
    mask = mask_of(markers)
    size = len(circles(sp, mask))
    for bit in (1 << k for k in range(sp.n)):
        switched = len(circles(sp, mask ^ bit))
        if switched > size if mask & bit else switched != size:
            return False
    return True


def lemma5_gradings(diagram, markers):
    """(i, j) of the all-1 enhanced state on ``markers``."""
    sp = _space(diagram)
    mask = mask_of(markers)
    i = sp.homological_i(mask)
    return i, sp.w + i + len(circles(sp, mask))


def subdiagram_expand(diagram):
    """All 2**n chord-subset subdiagrams, slots renumbered, by subset size."""
    ids = diagram.chord_ids()
    return [
        diagram.delete_chords(set(ids) - set(keep))
        for r in range(len(ids) + 1)
        for keep in itertools.combinations(ids, r)
    ]


def swap_slots(diagram, a, b):
    """``diagram`` with the endpoints in slots a and b exchanged."""
    where = list(range(diagram.slot_count))
    where[a], where[b] = b, a
    return diagram._moved(where)


def power(p, k):
    """The polynomial ``p`` to the power k >= 0."""
    out = LaurentPoly({0: 1})
    for _ in range(k):
        out = out * p
    return out


def insert_r2_pair(rng, d):
    """``d`` with a random R2 pair added, and the ids of the pair's chords."""
    m = d.slot_count
    before = set(d.chord_ids())
    d2 = apply_move(
        d,
        MoveEvent(
            "R2_add",
            (rng.randint(0, m), rng.randint(0, m), rng.choice((True, False)),
             rng.choice((1, -1)), "t"),
        ),
    )
    return d2, sorted(set(d2.chord_ids()) - before)
