"""Hasse diagrams of finite closure systems and polyhedral duals.

The pipeline: exact rational convex hulls feed regular subdivisions, whose
dual closure systems are enumerated output-sensitively; coordinatizing the
dual gives extended tight spans, and specializing to matroid subdivisions
of hypersimplices gives tropical linear spaces in their coarsest structure.
"""

from .closure import (
    ClosureSystem,
    GroundSet,
    HasseDiagram,
    NodeCapExceeded,
    ganter_hasse,
    poset_statistics,
)
from .exactgeom import (
    Fan,
    Facet,
    HRep,
    IncidenceMatrix,
    PointConfig,
    fan_closure,
    hull,
    polytope_closure_facet,
    polytope_closure_vertex,
)
from .matroid import (
    Matroid,
    MatroidError,
    Valuation,
    corank_valuation,
    format_census_line,
    non_matroidal_witness,
    parse_census_line,
)
from .subdivision import (
    ExtendedTightSpan,
    Subdivision,
    coordinatize,
    regular_subdivision,
    tight_span_closure,
)
from .troplin import (
    NonMatroidalValuation,
    SpeyerBoundWarning,
    TropicalLinearSpace,
    ValuatedMatroid,
    bergman_fan,
    speyer_bound,
    speyer_bounds,
    tropical_linear_space,
)

__all__ = [name for name in dir() if not name.startswith("_")]
