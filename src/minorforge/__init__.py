"""minorforge: half-order dense minors of graphs with independence number
at most two, built from conditioned random matchings and seagull packings,
with exact accounting of every missing minor edge."""

from .analysis import (
    CliqueStats,
    SeagullConditionReport,
    capacity,
    clique_number,
    clique_stats,
    complement_matching_size,
    is_alpha_le_2,
    is_five_wheel,
    is_k_connected,
    max_clique,
    min_capacity,
    seagull_conditions,
    working_clique,
)
from .bounds import (
    BoundReport,
    compute_bound_report,
    gamma_optimize,
    missing_edge_bound,
    missing_fraction,
    missing_fraction_extremal,
    selection_probability,
    zeta_monotonicity_check,
)
from .errors import MinorforgeError
from .generators import (
    c5_blowup_complement,
    generate,
    named_graph,
    triangle_free_process_complement,
    two_clique_complement,
)
from .graph import (
    BranchDecomposition,
    Graph,
    bits,
    complement,
    contract,
    from_text,
    induced_subgraph,
    mask_of,
    minor_violation,
    read_graph,
    text_lines,
    to_text,
    verify_minor,
    write_graph,
)
from .pairings import (
    Pairing,
    all_pairings,
    chebyshev_bound,
    in_concentration_event,
    pairing_edge_count,
    sample_conditioned,
    sample_uniform_pairing,
    subsample_matching,
)
from .pipeline import (
    Certificate,
    PipelineConfig,
    PipelineResult,
    PreconditionReport,
    PreparedPipeline,
    certify_batch,
    run_pipeline,
    strip_clique,
)
from .rng import trial_rng
from .seagulls import (
    SeagullPartition,
    is_seagull,
    max_disjoint_seagulls_bruteforce,
    seagull_partition,
)

__version__ = "0.1.0"
