"""Stationary weighted chord networks on the circle, with exact arithmetic,
replacement audits, and a desk-scale sphere min-max."""

from .circle import INFINITY, CirclePoint, tangent_point
from .chords import (
    ChordSet,
    audit_counting_argument,
    closed_form_bounds,
    enumerate_chord_sets,
    max_nonadjacent_chords,
)
from .errors import GeonetError
from .exact import RadExpr
from .network import (
    InteriorEdge,
    Network,
    Vertex,
    crossing_pairs,
    invariant_report,
    is_admissible,
    is_stationary,
    make_network,
    stationarity_residual,
)
from .io import read_network, write_network
from .replace import (
    AngleExpr,
    AuditEffort,
    AuditVerdict,
    ReplacementProblem,
    certify_no_good_n3,
    good_network_audit,
    n3_angle_map,
    rational_point_of_expr,
    replacement_feasible,
    replacement_problem,
)
from .render import RenderStyle, render_svg
from .solver import (
    SolveResult,
    StationaritySystem,
    build_system,
    n3_closed_forms,
    n3_imaginary_kernel,
    positive_integer_solutions,
    solve,
)

# geonet.sweep is the only numpy user; its names load on first access (PEP 562),
# so the exact-only library and CLI never import numpy
_SWEEP_EXPORTS = frozenset({
    "CapRegion",
    "PolyCurve",
    "SphereConfig",
    "Sweepout",
    "c_length",
    "flow_to_cmc",
    "latitude_curve",
    "latitude_sweepout",
    "minmax_closed_form",
    "minmax_estimate",
})


def __getattr__(name: str):
    if name in _SWEEP_EXPORTS:
        from . import sweep

        return getattr(sweep, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted(set(globals()) | _SWEEP_EXPORTS)


__version__ = "0.1.0"
