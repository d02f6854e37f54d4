"""The paper's XMark query families as hashable specs, drawn from a seed.

A spec is a plain tuple, so it keys the reference-answer memo and can be
turned into a fresh :class:`~repro.query.gtpq.GTPQ` object per request:

* ``("fig7", variant, person, item, seller)`` — Fig. 7 q1–q3;
* ``("exp1", name, person, seller, item)`` — Exp-1 Q4–Q8 (Table 3 outputs);
* ``("exp2", name, person, seller, item)`` — the Table 4 AND/OR/NOT GTPQs.

Unused group slots of Fig. 7 q1/q2 are pinned to 0 so that one query has
exactly one spec.
"""

from __future__ import annotations

import random

from repro.datasets import (
    NUM_GROUPS,
    TABLE3_OUTPUTS,
    TABLE4_PREDICATES,
    exp1_query,
    exp2_query,
    fig7_query,
)

FIG7 = ("q1", "q2", "q3")
EXP1 = tuple(TABLE3_OUTPUTS)
EXP2 = tuple(TABLE4_PREDICATES)


def build(spec):
    """A fresh GTPQ object for ``spec``."""
    family, name, a, b, c = spec
    if family == "fig7":
        return fig7_query(name, person_group=a, item_group=b, seller_group=c)
    if family == "exp1":
        return exp1_query(name, person_group=a, seller_group=b, item_group=c)
    if family == "exp2":
        return exp2_query(name, person_group=a, seller_group=b, item_group=c)
    raise ValueError(f"unknown query family {family!r}")


def fig7_spec(variant: str, person: int, item: int = 0, seller: int = 0):
    """The canonical spec of one Fig. 7 query."""
    if variant == "q1":
        return ("fig7", "q1", person, 0, 0)
    if variant == "q2":
        return ("fig7", "q2", person, item, 0)
    return ("fig7", "q3", person, item, seller)


#: every query shape of the three families.
SHAPES = (
    [("fig7", name) for name in FIG7]
    + [("exp1", name) for name in EXP1]
    + [("exp2", name) for name in EXP2]
)
#: the Fig. 11 shapes (Exp-1 and Table 4), which share most subtrees.
FIG11_SHAPES = SHAPES[len(FIG7):]


def spec_for(shape, rng: random.Random):
    """``shape`` with label groups drawn from ``rng``."""
    family, name = shape
    groups = [rng.randrange(NUM_GROUPS) for _ in range(3)]
    if family == "fig7":
        return fig7_spec(name, *groups)
    return (family, name, *groups)


def stratified_specs(rng: random.Random, seen: set):
    """Endless distinct specs not in ``seen`` (which it extends).  Each
    cycle holds every shape once, in shuffled order, so the query mix
    does not vary with the seed; a shape whose group choices run out
    (Fig. 7 q1 has ten) drops out of later cycles."""
    shapes = list(SHAPES)
    while shapes:
        rng.shuffle(shapes)
        for shape in list(shapes):
            for _ in range(200):
                spec = spec_for(shape, rng)
                if spec not in seen:
                    seen.add(spec)
                    yield spec
                    break
            else:
                shapes.remove(shape)


def zipf_weights(count: int, exponent: float) -> list[float]:
    """Popularity weights ``1 / rank**exponent`` for ranks 1..count."""
    return [1.0 / (rank ** exponent) for rank in range(1, count + 1)]
