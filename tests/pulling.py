"""The paper's coordinate-pulling law, for testing it on continuous maps.

The verifier does not apply the law as a rule, because arc consistency
already implies it, so the oracle lives here with the tests of the law.
"""

from digitop.maps import Mapping, is_continuous


def check_pulling(f: Mapping) -> bool:
    """Oracle for the coordinate-pulling law on c_u-embedded images.

    For adjacent q, q' and each coordinate: a continuous map that moves q
    past itself in some direction, with q' behind it, must also move q' in
    that direction.  Returns True for every continuous map; callable only on
    coordinate-backed images with a continuous input.
    """
    if not f.is_self_map:
        raise ValueError("pulling check is defined for self-maps only")
    image = f.source
    if not image.is_coordinate_backed:
        raise ValueError("pulling check requires a coordinate-backed c_u image")
    if not is_continuous(f):
        raise ValueError("pulling check requires a continuous map")
    coords = image.coords
    a = f.assignment
    for x, y in image.edges:
        for q, qp in ((x, y), (y, x)):
            pq, pqp, pfq, pfqp = coords[q], coords[qp], coords[a[q]], coords[a[qp]]
            for i in range(len(pq)):
                if pfq[i] > pq[i] > pqp[i] and not pfqp[i] > pqp[i]:
                    return False
                if pfq[i] < pq[i] < pqp[i] and not pfqp[i] < pqp[i]:
                    return False
    return True
