"""Exact computations with necklace Lie algebras of quivers.

The library computes with the path algebra of a double quiver and its trace
quotient (necklace words), relative noncommutative differential forms with
their Cartan calculus, the necklace bracket and its hamiltonian derivations,
Kac root systems, and the combinatorial classification of the (dimension
vector, weight) pairs whose deformed-preprojective quotient varieties are
coadjoint orbits.  A small floating-point layer cross-checks the exact
dimension formulas by solving the moment equation numerically.
"""

from .forms import (
    DEGREE_CAP,
    LENGTH_CAP,
    PIECE_CAP,
    BoundExceeded,
    FormBasisElement,
    FormSum,
    contract,
    d_of_path_sum,
    differential,
    dr0_dimension,
    form_of,
    form_unit,
    graded_homology_dim,
    in_commutator_span,
    is_symplectic,
    karoubi_count,
    karoubi_dim,
    karoubi_homology_dim,
    lie_derivative,
    necklace_differential,
    omega_basis,
    reduce_to_dr1,
    symplectic_form,
    tau,
)
from .lie import derivation_commutator, hamiltonian_derivation, kontsevich_bracket
from .numerics import (
    MomentSolveResult,
    RankReport,
    moment_eval,
    random_rep,
    rank_report,
    rep_dimension,
    solve,
)
from .paths import (
    Derivation,
    NecklaceSum,
    NecklaceWord,
    Path,
    PathSum,
    canonical_necklace,
    compose,
    concat,
    euler_derivation,
    moment_element,
    necklaces_of_length,
    partial_derivative,
    paths_between,
    paths_of_length,
    project_to_necklaces,
    unit,
    zero_derivation,
)
from .quiver import (
    Arrow,
    DimVector,
    DoubleQuiver,
    Quiver,
    QuiverError,
    Weight,
    as_dim_vector,
    as_weight,
    bilinear,
    componentwise_leq,
    componentwise_lt,
    double,
    euler_form,
    num_parameters,
    support_connected,
    tits_form,
    weight_pairing,
)
from .roots import (
    IMAGINARY,
    NOT_ROOT,
    REAL,
    RootClass,
    classify_root,
    enumerate_positive_roots,
    in_fundamental_set,
    reflect,
)
from .strata import (
    ClassifyReport,
    CoadjointVerdict,
    LocalQuiverSetting,
    SigmaMembership,
    SliceCheck,
    TwoAlphaCheck,
    classify,
    coadjoint_verdict,
    delta_lambda,
    ext1_dim,
    local_quiver,
    minimal_in_sigma,
    parameter_sum,
    rep_types,
    sigma_membership,
    slice_smooth_check,
    two_alpha_nonsmooth,
)
from .textio import (
    QuiverFormatError,
    parse_dim_vector,
    parse_necklace,
    parse_path,
    parse_quiver_file,
    parse_quiver_text,
    parse_weight,
)

__version__ = "0.1.0"
