"""Seeded random continuous self-maps, drawn without the search engine.

The fixed vertices map to themselves.  The other vertices take values in id
order, by iterative backtracking: each tries, in a seeded random order, the
values in the intersection of N*(f(y)) over its neighbours y that already
have one, so every edge is checked once both its ends are set.  The identity
is such a map, so one is always found.  Only `neighbors` and
`closed_neighborhood_bits` are read, so the maps can test `digitop.maps`
and the engine alike.
"""

import random

from digitop.graph import bits
from digitop.maps import Mapping


def random_continuous_map(image, fixed=(), seed=0):
    rng = random.Random(seed)
    value = [None] * image.n
    for x in fixed:
        value[image.check_vertex(x)] = x
    free = [v for v, fv in enumerate(value) if fv is None]

    def options(v):
        allowed = (1 << image.n) - 1
        for y in image.neighbors(v):
            if value[y] is not None:
                allowed &= image.closed_neighborhood_bits(value[y])
        values = list(bits(allowed))
        rng.shuffle(values)
        return values

    untried = []  # untried[k]: the values left for free[k]
    while len(untried) < len(free):
        untried.append(options(free[len(untried)]))
        while not untried[-1]:  # a dead end: back up to the last choice left
            untried.pop()
            value[free[len(untried)]] = None
        value[free[len(untried) - 1]] = untried[-1].pop()
    return Mapping(image, image, tuple(value))
