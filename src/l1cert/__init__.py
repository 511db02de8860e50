"""Recursive-cycle point sets in L1, embedding certification, and
entropy-based dimension lower bounds."""

from .certifier import (
    BoundResult,
    CertificateReport,
    ConstraintReport,
    average_edge_vector,
    bound_for_distortion,
    certify,
    choose_k,
    constraint_lhs,
    constraint_report,
    dimension_bound,
    edge_difference_map,
    lift_recover,
    nonneg_lift,
    predictor_success,
)
from .infotheory import (
    JointDistribution,
    ProbVector,
    binary_entropy,
    chain_rule_terms,
    conditional_mutual_information,
    entropy,
    fano_bound,
    mutual_information,
)
from .l1metric import (
    DegenerateEmbeddingError,
    DistortionReport,
    Embedding,
    distortion,
    embedding_from_text,
    embedding_to_text,
    identity_embedding,
    l1_distance,
    l1_interval_distance,
    make_embedding,
    normalize_lipschitz,
    scale_embedding,
)
from .oracle import (
    LemmaReport,
    SearchConfig,
    SearchResult,
    brute_force_average,
    build_message_joint,
    lemma_check,
    max_claim_gap,
    search_embedding,
)
from .pointset import (
    CapacityError,
    FormatError,
    GraphParams,
    IntervalLabel,
    PointSet,
    RecursiveCycleGraph,
    ROOT_LEFT,
    ROOT_RIGHT,
    VertexAddress,
    antipodal_pairs,
    build_graph,
    edge_endpoints,
    point_set,
    pointset_from_text,
    pointset_to_text,
    vertex_count,
    vertex_label,
)

__version__ = "0.1.0"
