"""Exact combinatorics for degree-d planar multigraph targets: parsing and
validation, odd-cut checks, local pattern detection, region charging,
perfect-matching edge colouring, and switching moves."""

from .coloring import (
    DEFAULT_COLOUR_CAP,
    EdgeColouring,
    edge_colour,
    perfect_matchings,
    verify_colouring,
)
from .config import (
    ConfigMatch,
    CutViolation,
    MultiplicityOver6,
    NotThreeConnected,
    PrimalityVerdict,
    TooFewVertices,
    ZeroMultEdge,
    detect,
    detect_all,
    doors,
    is_big,
    is_heavy,
    is_prime,
    is_tough,
    m_plus,
    recheck,
)
from .corpus import (
    CorpusItem,
    CorpusSpec,
    build_corpus,
    enumerate_multiplicities,
    fixture_names,
    load_fixture,
)
from .cuts import (
    CUT_CAP,
    CutWitness,
    is_oddly_connected,
    m_delta,
    min_odd_cut,
    strengthened_cut_check,
)
from .discharge import (
    BetaTrace,
    ChargeReport,
    GammaTrace,
    RegionCharge,
    RegionClass,
    alpha,
    beta_trace,
    charge_report,
    classify_region,
    gamma_trace,
    positive_regions,
)
from .errors import (
    AmbiguousContext,
    AsymmetricRotation,
    BadColouring,
    DTargetError,
    DuplicateNeighbour,
    EulerViolation,
    IdentityViolation,
    MismatchedD,
    MissingMultiplicity,
    NegativeMultiplicity,
    NoCommonRegion,
    NotAFourCycle,
    NotTwoConnected,
    OddVertexCount,
    ParseError,
    TooLarge,
    UnsupportedD,
    WouldGoNegative,
)
from .planar import (
    DTarget,
    Region,
    RotationGraph,
    ValidationReport,
    connectivity_level,
    norm_edge,
    other_region,
    parse_dtarget,
    region_pair,
    regions,
    serialize_dtarget,
    validate,
)
from .switching import (
    add_zero_edge,
    is_smaller,
    is_switchable,
    score_sequence,
    score_smaller,
    switch_path,
    switch_square,
)

__version__ = "0.1.0"
