"""Unique shortest paths, for testing the paper's unique-path lemma.

The lemma: if a continuous self-map fixes both ends of a unique shortest
path, it fixes the whole path.  The verifier does not apply it as a rule,
because arc consistency already implies it, so the path computation lives
here with the tests of the lemma.
"""

from typing import Optional, Tuple

from digitop.graph import DigitalImage, DisconnectedImageError


def unique_shortest_path(
    image: DigitalImage, x: int, y: int
) -> Optional[Tuple[int, ...]]:
    """The shortest path from x to y when it is unique, else None.

    Path counting runs over the BFS layer DAG with counts capped at 2.
    """
    image.check_vertex(x)
    image.check_vertex(y)
    dist = {x: 0}
    count = {x: 1}
    pred = {}
    frontier = [x]
    while frontier:
        nxt = []
        for v in frontier:
            for w in image.neighbors(v):
                if w not in dist:
                    dist[w] = dist[v] + 1
                    count[w] = count[v]
                    pred[w] = v
                    nxt.append(w)
                elif dist[w] == dist[v] + 1:
                    count[w] = 2
        frontier = nxt
    if y not in dist:
        raise DisconnectedImageError(f"vertices {x} and {y} are not connected")
    if count[y] >= 2:
        return None
    path = [y]
    while path[-1] != x:
        path.append(pred[path[-1]])
    return tuple(reversed(path))
