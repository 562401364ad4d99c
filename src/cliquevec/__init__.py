"""cliquevec: clique vectors, b-vectors, threshold words, combinatorial
shifting and Stanley-Reisner Betti numbers of chordal graphs, all exact."""

from .graphs import (
    Graph,
    GraphFormatError,
    chordal_with_connectivities,
    components,
    cut_component_sum,
    format_graph,
    is_chordal,
    parse_graph,
    random_chordal,
    vertex_connectivity,
)
from .peo import (
    Peo,
    is_valid_peo,
    monotone_neighbors,
    special_peo,
    verify_special_peo,
)
from .cliques import (
    clique_vector,
    cliques_of_size,
    dominating_number,
    dominating_numbers,
    kappa_tilde,
    maximal_cliques,
)
from .vectors import b_from_c, c_from_b, f_from_h, h_from_f
from .threshold import (
    ProfileMismatch,
    ThresholdProfile,
    bvector_from_word,
    graph_from_word,
    normalize_word,
    random_word,
    recognize_threshold,
    shifted_vertex_order,
    threshold_labeling,
    threshold_profile,
    word_from_bvector,
)
from .complexes import (
    CapExceeded,
    SimplicialComplex,
    clique_complex,
    format_complex,
    is_matroid,
    is_pure,
    is_shifted,
    parse_complex,
    restrict,
)
from .betti import (
    BettiTable,
    HomologicalProfile,
    betti_from_bvector,
    betti_from_hvector,
    full_betti_hochster,
    homological_profile,
    linear_strand_hochster,
    reduced_homology_ranks,
)
from .shifting import (
    BijectionReport,
    ShiftResult,
    ShiftVerificationError,
    alpha_shift,
    clique_bijection_check,
)
from .verify import ClaimResult, build_random_corpus, evaluate_graph

__version__ = "0.1.0"
