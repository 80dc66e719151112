"""Digital-topology toolkit: images on Z^d lattices, pyramid and cone
constructions, continuous self-maps, and an exhaustive freezing-set verifier."""

from .graph import DigitalImage, DisconnectedImageError, UnknownVertexError
from .lattice import CuSpec, DimensionMismatchError, c1_boundary, cu_adjacent
from .constructions import (
    NamedComplex,
    bipyramid,
    box,
    cone,
    interval,
    pyramid,
    simple_closed_curve,
    solid_bipyramid,
    solid_pyramid,
    suspension,
)
from .maps import (
    Mapping,
    fixed_points,
    is_continuous,
    is_isomorphism,
    max_displacement,
    push_forward,
    random_continuous_map,
)
from .verifier import (
    FAILS,
    HOLDS,
    UNKNOWN,
    SearchBudget,
    VerificationReport,
    enumerate_continuous_self_maps,
    find_counterexample_freezing,
    is_freezing,
    is_limiting,
    is_minimal_freezing,
    is_s_cold,
    search_minimal_freezing,
)
from .serialization import (
    complex_to_document,
    document_to_complex,
    dump_complex,
    load_complex,
    report_to_document,
    to_dot,
)
from .suite import run_suite

__version__ = "0.1.0"

__all__ = [
    "DigitalImage",
    "DisconnectedImageError",
    "UnknownVertexError",
    "CuSpec",
    "DimensionMismatchError",
    "c1_boundary",
    "cu_adjacent",
    "NamedComplex",
    "bipyramid",
    "box",
    "cone",
    "interval",
    "pyramid",
    "simple_closed_curve",
    "solid_bipyramid",
    "solid_pyramid",
    "suspension",
    "Mapping",
    "fixed_points",
    "is_continuous",
    "is_isomorphism",
    "max_displacement",
    "push_forward",
    "random_continuous_map",
    "FAILS",
    "HOLDS",
    "UNKNOWN",
    "SearchBudget",
    "VerificationReport",
    "enumerate_continuous_self_maps",
    "find_counterexample_freezing",
    "is_freezing",
    "is_limiting",
    "is_minimal_freezing",
    "is_s_cold",
    "search_minimal_freezing",
    "complex_to_document",
    "document_to_complex",
    "dump_complex",
    "load_complex",
    "report_to_document",
    "to_dot",
    "run_suite",
    "__version__",
]
