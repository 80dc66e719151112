"""Digital-topology toolkit: images on Z^d lattices, pyramid and cone
constructions, continuous self-maps, and an exhaustive freezing-set verifier."""

from .graph import DigitalImage, DisconnectedImageError, UnknownVertexError
from .lattice import DimensionMismatchError, c1_boundary
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
)
from .verifier import (
    FAILS,
    HOLDS,
    UNKNOWN,
    SearchBudget,
    VerificationReport,
    enumerate_continuous_self_maps,
    is_freezing,
    is_limiting,
    is_minimal_freezing,
    is_s_cold,
    search_minimal_freezing,
)
from .serialization import (
    complex_to_document,
    document_to_complex,
    report_to_document,
    to_dot,
)
from .suite import run_suite

__version__ = "0.1.0"

__all__ = [
    "DigitalImage",
    "DisconnectedImageError",
    "UnknownVertexError",
    "DimensionMismatchError",
    "c1_boundary",
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
    "FAILS",
    "HOLDS",
    "UNKNOWN",
    "SearchBudget",
    "VerificationReport",
    "enumerate_continuous_self_maps",
    "is_freezing",
    "is_limiting",
    "is_minimal_freezing",
    "is_s_cold",
    "search_minimal_freezing",
    "complex_to_document",
    "document_to_complex",
    "report_to_document",
    "to_dot",
    "run_suite",
    "__version__",
]
