"""Centered Markov chains on graphs and groups.

Construct and verify cycle decompositions that witness centering, compute
Dirichlet-form and Green-kernel comparisons, check the combinatorial
centering conditions on group generating sequences, and measure Gaussian
tail constants, escape, speed and entropy on concrete walks.
"""

from .dirichlet_forms import (
    GreenReport,
    antisymmetric_form_cycles,
    certified_sector_bound,
    dirichlet_form,
    green_absorbing,
    green_comparison,
    green_partial,
    poincare_constant,
    sector_bound,
    sector_ratio,
    symmetrized_form,
    symmetrized_kernel,
    symmetrized_weights,
)
from .errors import (
    BudgetExhaustedError,
    CenterwalkError,
    InputParseError,
    OutOfMemoryError,
    PreconditionError,
    StructuralError,
    SupportOverflowError,
)
from .evolution import (
    CVReport,
    EntropyEstimate,
    SparseDistribution,
    SpeedEstimate,
    WREATH_LAMP_PAIR,
    entropy_estimate,
    escape_probability,
    evolve,
    fit_cv_constant,
    mc_sample,
    speed_estimate,
    step_measure,
    walk_distributions,
    walk_laws,
    wreath_lamp_identity,
)
from .group_walks import (
    C1SearchResult,
    C1Witness,
    C2Report,
    CancellationGraph,
    F2_SEQUENCE,
    abelian_c1,
    brute_force_c1,
    c1_search,
    c2_check,
    cayley_kernel,
    f2_reduce,
    finite_group_kernel,
    torsion_decomposition,
    translated_cycle_decomposition,
    volume_growth,
    word_ball,
    word_distance,
)
from .groups import (
    AbelianImage,
    BaumslagSolitar,
    FiniteCyclic,
    FreeGroup,
    Group,
    Heisenberg,
    IntegerLattice,
    WreathZZ,
    group_from_spec,
    parse_generators,
)
from .markov_graph import (
    CenteringReport,
    Cycle,
    CycleDecomposition,
    InvarianceReport,
    Kernel,
    Measure,
    circulation_to_cycles,
    directed_detour,
    graph_distance,
    invariance_check,
    reversible_decomposition,
    rotation_kernel,
    step_kernel,
    time_reversal,
    verify_centering,
)

__version__ = "0.1.0"
