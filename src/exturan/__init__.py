"""Exact generalized Turan numbers, blowups and certified constructions."""

from .hypergraph import (
    BlowupSpec,
    HypergraphError,
    PartitionMap,
    UniformHypergraph,
    blowup,
    co_neighborhood,
    complete,
    complete_partite,
    induced,
    make,
    read_file,
    shadow,
    single_edge,
    write_file,
)
from .counting import (
    CliqueFamily,
    Embedding,
    ExponentReport,
    UniformityMismatch,
    cliques,
    contains,
    count_copies,
    count_embeddings,
    edge_multiplicity,
    exponents,
    is_blowup_free,
    materialize,
)
from .canonical import canonical_form, canonical_key
from .extremal import (
    CacheIntegrityError,
    ExtremalRecord,
    InfeasibleError,
    RecordCache,
    chain_check,
    exact_ex,
    heuristic_lower,
)
from .constructions import (
    APFreeSet,
    ConstructionCertificate,
    ConstructionError,
    apfree_set,
    build_lbap,
    deletion_construct,
    deletion_probability,
    lb4_construct,
    lbap_hypergraph,
    lbap_shadow_graph,
    verify_lbap_properties,
)
from .pipeline import (
    BlowupEmbedding,
    SharedEdgeFamily,
    ThinningPlan,
    aligned_copies,
    auxiliary_hypergraph,
    conditional_partition,
    edge_disjoint_greedy,
    find_blowup,
    lift_shadow,
    shared_edge_groups,
    thin_cliques,
)

__version__ = "0.1.0"
