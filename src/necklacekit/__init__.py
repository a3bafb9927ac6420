"""Exact computations with necklace Lie algebras of quivers.

The library computes with the path algebra of a double quiver and its trace
quotient (necklace words), relative noncommutative differential forms with
their Cartan calculus, the necklace bracket and its hamiltonian derivations,
Kac root systems, and the combinatorial classification of the (dimension
vector, weight) pairs whose deformed-preprojective quotient varieties are
coadjoint orbits.  A small floating-point layer cross-checks the exact
dimension formulas by solving the moment equation numerically.

The package namespace is lazy (PEP 562): importing ``necklacekit`` loads no
layer module, and a public name loads its home module, listed in
``_EXPORTS``, the first time it is read.  So ``from necklacekit import
classify`` loads ``quiver``, ``roots`` and ``strata``, and only the numerics
names (``solve``, ``rank_report``, ...) load numpy.  ``__all__`` and
``dir()`` list the same names as the table, the nine layer modules included,
and ``from necklacekit import *`` binds all of them.
"""

# home module -> the public names the package serves from it
_EXPORTS = {
    "forms": (
        "FormBasisElement", "FormSum", "contract", "d_of_path_sum", "differential",
        "dr0_dimension", "form_of", "form_unit", "graded_homology_dim",
        "in_commutator_span", "is_symplectic", "karoubi_count", "karoubi_dim",
        "karoubi_homology_dim", "lie_derivative", "necklace_differential", "omega_basis",
        "reduce_to_dr1", "symplectic_form", "tau",
    ),
    "lie": ("derivation_commutator", "hamiltonian_derivation", "kontsevich_bracket"),
    "numerics": (
        "MomentSolveResult", "RankReport", "moment_eval", "random_rep", "rank_report",
        "rep_dimension", "solve",
    ),
    "paths": (
        "Derivation", "NecklaceSum", "NecklaceWord", "Path", "PathSum",
        "canonical_necklace", "compose", "concat", "euler_derivation", "moment_element",
        "necklaces_of_length", "partial_derivative", "paths_between", "paths_of_length",
        "project_to_necklaces", "unit", "zero_derivation",
    ),
    "quiver": (
        "Arrow", "DimVector", "DoubleQuiver", "Quiver", "QuiverError", "Weight",
        "as_dim_vector", "as_weight", "bilinear", "componentwise_leq", "componentwise_lt",
        "double", "euler_form", "num_parameters", "support_connected", "tits_form",
        "weight_pairing",
    ),
    "roots": (
        "IMAGINARY", "NOT_ROOT", "REAL", "RootClass", "classify_root",
        "enumerate_positive_roots", "in_fundamental_set", "reflect",
    ),
    "strata": (
        "ClassifyReport", "CoadjointVerdict", "LocalQuiverSetting", "SigmaMembership",
        "SliceCheck", "TwoAlphaCheck", "classify", "coadjoint_verdict", "delta_lambda",
        "ext1_dim", "local_quiver", "minimal_in_sigma", "parameter_sum", "rep_types",
        "sigma_membership", "slice_smooth_check", "two_alpha_nonsmooth",
    ),
    "textio": (
        "QuiverFormatError", "parse_dim_vector", "parse_necklace", "parse_path",
        "parse_quiver_file", "parse_quiver_text", "parse_weight",
    ),
    # exact row reduction: no name of its own and no library caller; bench/tracer.py wraps it
    "linalg": (),
}

# every public name -> its home module; a layer module is its own home
_HOME = {name: module for module, names in _EXPORTS.items() for name in (module, *names)}

__all__ = list(_HOME)

__version__ = "0.1.0"


def __getattr__(name: str):
    home = _HOME.get(name)
    if home is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    # __import__, unlike importlib.import_module, shows in -X importtime's
    # log; importing a layer module binds it here, and a name from it is
    # bound now, so this hook runs once per name
    __import__(f"{__name__}.{home}")
    if home != name:
        globals()[name] = getattr(globals()[home], name)
    return globals()[name]


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
