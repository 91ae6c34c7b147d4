"""Stationary weighted chord networks on the circle, with exact arithmetic,
replacement audits, and a desk-scale sphere min-max."""

import importlib

# Every exported name loads its module on first access (PEP 562), so a caller
# pays only for the modules it uses: `from geonet import chords` loads
# geonet.chords and geonet.errors, and only geonet.sweep imports numpy.
_EXPORTS = {
    name: module
    for module, names in {
        "circle": ("INFINITY", "CirclePoint", "tangent_point"),
        "chords": (
            "ChordSet",
            "audit_counting_argument",
            "closed_form_bounds",
            "enumerate_chord_sets",
            "max_nonadjacent_chords",
        ),
        "errors": ("GeonetError",),
        "exact": ("RadExpr",),
        "network": (
            "InteriorEdge",
            "Network",
            "Vertex",
            "crossing_pairs",
            "invariant_report",
            "is_admissible",
            "is_stationary",
            "make_network",
            "stationarity_residual",
        ),
        "io": ("read_network", "write_network"),
        "replace": (
            "AngleExpr",
            "AuditEffort",
            "AuditVerdict",
            "ReplacementProblem",
            "certify_no_good_n3",
            "good_network_audit",
            "n3_angle_map",
            "rational_point_of_expr",
            "replacement_feasible",
            "replacement_problem",
        ),
        "render": ("RenderStyle", "render_svg"),
        "solver": (
            "SolveResult",
            "StationaritySystem",
            "build_system",
            "n3_closed_forms",
            "n3_imaginary_kernel",
            "positive_integer_solutions",
            "solve",
        ),
        "sweep": (
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
        ),
    }.items()
    for name in names
}
_SUBMODULES = ("chords", "circle", "errors", "exact", "io", "linalg", "network", "render",
               "replace", "solver")

# a star import loads the exact library but leaves out the sweep names, so it
# still imports no numpy
__all__ = sorted({n for n, m in _EXPORTS.items() if m != "sweep"}.union(_SUBMODULES))


def __getattr__(name: str):
    if name in _SUBMODULES:
        return importlib.import_module(f"{__name__}.{name}")
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{_EXPORTS[name]}"), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()).union(_EXPORTS, _SUBMODULES))


__version__ = "0.1.0"
