"""Token-system media: axioms, set-family and partial-cube representations,
isomorphism, and the linear-order / line-arrangement example constructions."""

from .arrangements import (
    Arrangement,
    Line,
    Region,
    arrangement_medium,
    enumerate_regions,
    mosaic_window,
    region_adjacency,
    region_family,
)
from .cubes import (
    CubeIsometry,
    LabeledGraph,
    NotPartialCube,
    extend_isometry,
    graph_to_medium,
    is_partial_cube,
    media_isomorphic,
    medium_graph,
)
from .errors import CapError, InputError, ParseError
from .families import (
    FamilyRepresentation,
    SetFamily,
    between,
    distance,
    family_medium,
    is_complete,
    is_well_graded,
    line_segment,
    normalize,
    translate,
    well_graded_witness,
)
from .linorders import LinearOrder, apply_token, covers, encode, is_order_encoding, linear_medium
from .represent import (
    ContentTable,
    MediumDecision,
    Orientation,
    contents,
    decide_medium,
    orient_from_state,
    positive_content_family,
    verify_embedding,
)
from .tokens import (
    AxiomReport,
    Message,
    TokenSystem,
    apply,
    check_axioms,
    content,
    is_consistent,
    is_stepwise_effective,
    is_vacuous,
    reduction,
    straight_message,
)

__version__ = "0.1.0"
