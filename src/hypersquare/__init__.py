"""Constructive machinery for squared Hamiltonian cycles in 3-uniform
hypergraphs, with exact small-instance oracles for validation."""

__version__ = "0.1.0"

from .absorber import (
    AbsorberFamily,
    AbsorptionError,
    PathConstructionError,
    absorb,
    absorbable_mask,
    build_absorber_family,
    build_absorbing_path,
    enumerate_v_absorbers,
)
from .auxgraphs import (
    ExpansionReport,
    build_g3,
    build_gv,
    build_gvw,
    expansion_report,
    walk_count_table,
)
from .certify import (
    VertexSeq,
    certify_hamiltonian,
    format_sequence,
    is_squared_cycle,
    is_squared_path,
    is_squared_walk,
    is_v_absorber,
    parse_sequence,
)
from .connector import (
    Reservoir,
    connect,
    connect_through_reservoir,
    count_connections,
    reservoir_probability,
    sample_reservoir,
)
from .core import (
    AuxGraph,
    Config,
    Hypergraph3,
    ParseError,
    ResourceLimitError,
    bits_of,
    derive_seed,
    format_hypergraph,
    is_k4,
    mask_of,
    min_pair_degree,
    pair_degree,
    parse_hypergraph,
)
from .generators import (
    PikhurkoPartition,
    complete,
    dense_instance,
    dense_random,
    pikhurko,
    random_hypergraph,
)
from .pipeline import (
    ConstructionReport,
    OracleResult,
    construct_squared_hamiltonian,
    oracle_has_perfect_k4_tiling,
    oracle_has_squared_hamiltonian,
    threshold_probe,
)
from .tiling import (
    AlmostK4Factor,
    CoverResult,
    Tiling,
    almost_k4_factor,
    classify_pairs,
    cover_with_squared_paths,
    prune_bad_vertices,
    weighted_tiling,
)
