"""Triple-crossing knot diagrams: combinatorial maps, polynomial invariants,
exhaustive enumeration, and tabulation.

``tricross.alexander`` and ``tricross.homfly`` are the functions, not their
submodules, which stay importable by ``from``: callers that wrap invariants
by package attribute, as the benchmark's tracer does, rely on that.
"""

from .alexander import alexander
from .canon import (
    canonical_diagram_code,
    canonical_form,
    canonical_projection_code,
)
from .enumeration import (
    Budget,
    BudgetExceeded,
    ClassifyRun,
    KnotClass,
    classify,
    count_table,
    enumerate_diagrams,
    enumerate_projections,
    enumerate_raw_shadows,
    fold_jones,
    fold_kauffman,
)
from .homfly import BudgetError, homfly
from .kauffman import kauffman_f, kauffman_lambda
from .quotients import (
    connected_sum_counts,
    hom_counts,
    meridional_profile,
    permutation_group,
)
from .jones import (
    TripleRelation,
    bracket_jones,
    derive_triple_relation,
    jones_triple,
    jones_triple_batch,
    kauffman_bracket,
)
from .laurent import HalfLaurent, IntLaurent, Laurent2, breadth, is_monic
from .maps import (
    DiagramError,
    DoubleDiagram,
    InternalConsistencyError,
    TripleDiagram,
    TripleProjection,
    natural_orientations,
)
from .moves import (
    JR,
    JR_PRIME,
    M1,
    M2,
    MoveSite,
    StaleSiteError,
    apply_m,
    apply_move,
    find_jr_sites,
    find_m_sites,
)
from .spd import SpdSyntaxError, parse_spd, serialize_spd
from .tables import (
    ConjectureReport,
    ReferenceKnot,
    braid_closure_pd,
    conjecture_report,
    emit_table,
    emit_tikz,
    identify,
    load_reference,
    rational_knot_pd,
    reference_rows,
)
from .tangle import convert_to_double

__version__ = "0.1.0"
