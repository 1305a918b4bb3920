"""Attributed truss community search.

Given an attributed graph and a query (nodes, attributes, k, d), find a
connected (k,d)-truss containing the query nodes that maximizes the
attribute cohesion score.  Provides greedy peeling (basic/bulk), an
attribute-truss index with index-accelerated local search, and a synthetic
evaluation harness.
"""

__version__ = "0.1.0"

from .graph import (
    Graph,
    GraphFormatError,
    QuerySpec,
    Subgraph,
    UNREACHABLE,
    UnknownAttributeError,
    UnknownVertexError,
    induced_subgraph,
    load_attributes,
    load_edge_list,
    project_on_attribute,
    query_distance,
)
from .truss import (
    KdTruss,
    compute_supports,
    diameter,
    is_kd_truss,
    maintain_kd_truss,
    max_trussness_connecting,
    maximal_kd_truss,
    truss_decompose,
)
from .score import ScoreBreakdown
from .greedy import (
    CandidateTrace,
    NoFeasibleCommunity,
    SearchResult,
    basic_search,
    bulk_search,
    replay_candidate,
)
from .index import (
    ATIndex,
    ChecksumError,
    CorruptIndexError,
    GraphMismatchError,
    IndexFileError,
    VersionMismatchError,
    build_index,
    load_index,
    save_index,
)
from .local import (
    classify_query,
    expand_candidate,
    locatc_search,
    steiner_seed,
)
from .harness import (
    EvalReport,
    GroundTruth,
    evaluate,
    f1,
    gen_queries,
    gen_synth,
    plant_attributes,
    structure_baseline,
)
