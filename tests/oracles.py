"""Reference implementations the tests hold the library to.

Each is the plain definition, built on what the library keeps, and reads
only inputs the tests make, so none checks its arguments.
"""

import itertools

from vknots.arrows import v21, v22, writhe_polynomial
from vknots.diagram import reclose
from vknots.forbidden import UNKNOT_JONES, UNKNOT_TABLE, Verdict
from vknots.khovanov import _space, homology, jones_hat
from vknots.laurent import LaurentPoly
from vknots.moves import MoveEvent, SearchStats, apply_move, simplify


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


def certify_search_first(diagram, budget, cap):
    """``forbidden.certify_trivial`` with the R-move search run on every
    input: v21, then v22 on a long input; the search; jones_hat and the
    Khovanov table of the reduced diagram's closure, within the cap; last,
    the writhe polynomial of the reduced diagram."""
    if diagram.kind == "long":
        for name, fn in (("v21", v21), ("v22", v22)):
            val = fn(diagram)
            if val != 0:
                return Verdict("refuted", witness=(name, str(val), "0"))
    stats = SearchStats()
    reduced, trace = simplify(diagram, budget, stats=stats)
    if reduced.n == 0:
        return Verdict("certified", tuple(trace))
    if diagram.n <= cap:
        closed = reclose(reduced) if reduced.kind == "long" else reduced
        jh = jones_hat(closed)
        if jh != UNKNOT_JONES:
            return Verdict("refuted", witness=("jones_hat", jh.to_str("q"), UNKNOT_JONES.to_str("q")))
        table = homology(closed, cap).as_dict()
        if table != UNKNOT_TABLE:
            return Verdict("refuted", witness=("khovanov", str(table), str(UNKNOT_TABLE)))
    w = writhe_polynomial(reduced)
    if w:
        return Verdict("refuted", witness=("writhe", w.to_str("t"), "0"))
    if stats.budget_spent:
        return Verdict("unknown", reason="budget")
    return Verdict("unknown", reason="cap" if diagram.n > cap else "search")
