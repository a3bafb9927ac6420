"""The lazy package namespace and the per-command imports of the CLI.

``necklacekit`` serves its public names through a module ``__getattr__``
that loads a name's home module on first use, and each CLI command imports
only the layer it runs.  These tests pin the namespace to the 109 names the
package bound eagerly before it was made lazy, and check in fresh processes
which modules each command loads.
"""
import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import necklacekit

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "golden"

LAYERS = ("forms", "lie", "linalg", "numerics", "paths", "quiver", "roots", "strata", "textio")

PUBLIC_NAMES = frozenset(
    LAYERS
    + (
        "Arrow", "ClassifyReport", "CoadjointVerdict",
        "Derivation", "DimVector", "DoubleQuiver", "FormBasisElement", "FormSum",
        "IMAGINARY", "LocalQuiverSetting", "MomentSolveResult", "NOT_ROOT",
        "NecklaceSum", "NecklaceWord", "Path", "PathSum", "Quiver",
        "QuiverError", "QuiverFormatError", "REAL", "RankReport", "RootClass",
        "SigmaMembership", "SliceCheck", "TwoAlphaCheck", "Weight", "as_dim_vector",
        "as_weight", "bilinear", "canonical_necklace", "classify", "classify_root",
        "coadjoint_verdict", "componentwise_leq", "componentwise_lt", "compose", "concat",
        "contract", "d_of_path_sum", "delta_lambda", "derivation_commutator",
        "differential", "double", "dr0_dimension", "enumerate_positive_roots",
        "euler_derivation", "euler_form", "ext1_dim", "form_of", "form_unit",
        "graded_homology_dim", "hamiltonian_derivation", "in_commutator_span",
        "in_fundamental_set", "is_symplectic", "karoubi_count", "karoubi_dim",
        "karoubi_homology_dim", "kontsevich_bracket", "lie_derivative", "local_quiver",
        "minimal_in_sigma", "moment_element", "moment_eval", "necklace_differential",
        "necklaces_of_length", "num_parameters", "omega_basis", "parameter_sum",
        "parse_dim_vector", "parse_necklace", "parse_path", "parse_quiver_file",
        "parse_quiver_text", "parse_weight", "partial_derivative", "paths_between",
        "paths_of_length", "project_to_necklaces", "random_rep", "rank_report",
        "reduce_to_dr1", "reflect", "rep_dimension", "rep_types", "sigma_membership",
        "slice_smooth_check", "solve", "support_connected", "symplectic_form", "tau",
        "tits_form", "two_alpha_nonsmooth", "unit", "weight_pairing", "zero_derivation",
    )
)


def test_the_table_lists_every_public_name_once():
    assert len(PUBLIC_NAMES) == 105
    assert len(necklacekit.__all__) == 105
    assert set(necklacekit.__all__) == PUBLIC_NAMES


def test_every_name_resolves_to_the_object_in_its_home_module():
    for layer, names in necklacekit._EXPORTS.items():
        home = importlib.import_module(f"necklacekit.{layer}")
        assert getattr(necklacekit, layer) is home
        for name in names:
            assert getattr(necklacekit, name) is getattr(home, name), name


def test_star_import_and_dir_give_the_public_names():
    namespace: dict = {}
    exec("from necklacekit import *", namespace)
    assert set(namespace) - {"__builtins__"} == PUBLIC_NAMES
    public = {name for name in dir(necklacekit) if not name.startswith("_")}
    # the CLI module is bound on the package once anything imports it
    assert public - {"cli"} == PUBLIC_NAMES
    assert "__version__" in dir(necklacekit)


def test_an_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="module 'necklacekit' has no attribute 'nope'"):
        necklacekit.nope
    with pytest.raises(ImportError, match="cannot import name 'nope'"):
        exec("from necklacekit import nope", {})


def loaded_after(code: str) -> dict:
    """Run ``code`` in a fresh interpreter; the layer modules it loaded and
    whether it loaded numpy, read from ``sys.modules`` at the end."""
    script = code + (
        "\nimport json, sys\n"
        "print(json.dumps({'layers': sorted(m.split('.')[1] for m in sys.modules"
        " if m.startswith('necklacekit.')), 'numpy': 'numpy' in sys.modules}))\n"
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, env=env, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def test_importing_the_package_loads_no_layer_yet_lists_every_name():
    loaded = loaded_after(
        "import necklacekit\n"
        "assert {n for n in dir(necklacekit) if not n.startswith('_')} == set(necklacekit.__all__)"
    )
    assert loaded == {"layers": [], "numpy": False}


def test_a_name_loads_only_its_home_module_and_what_that_imports():
    loaded = loaded_after("from necklacekit import classify")
    assert loaded == {"layers": ["quiver", "roots", "strata"], "numpy": False}


CALOGERO = str(GOLDEN / "calogero.quiver")
TWO_LOOPS = str(GOLDEN / "two_loops.quiver")

COMMANDS = {
    "info": ["info", CALOGERO],
    "roots": ["roots", CALOGERO, "--box", "2,3"],
    "sigma": ["sigma", CALOGERO, "--alpha", "1,2", "--lambda", "-2,1"],
    "classify": ["classify", CALOGERO, "--alpha", "1,2", "--lambda", "-2,1"],
    "bracket": ["bracket", TWO_LOOPS, "--w1", "x y", "--w2", "x* y*"],
    "derham": ["derham", CALOGERO, "--max-length", "3"],
    "karoubi": ["karoubi", CALOGERO, "--max-length", "3"],
    "moment": ["moment", CALOGERO, "--alpha", "1,2", "--lambda", "-2,1", "--seeds", "1"],
}


def run_command(argv: list[str]) -> dict:
    return loaded_after(
        "import contextlib, io\n"
        "from necklacekit import cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    assert cli.main({argv!r}) == 0\n"
    )


@pytest.mark.parametrize("command", [c for c in COMMANDS if c != "moment"])
def test_only_moment_loads_numpy(command):
    assert not run_command(COMMANDS[command])["numpy"]


def test_classify_loads_no_path_form_lie_or_numerics_layer():
    layers = run_command(COMMANDS["classify"])["layers"]
    assert {"roots", "strata"} <= set(layers)
    assert not {"paths", "forms", "linalg", "lie", "numerics"} & set(layers)


@pytest.mark.parametrize("command", ["karoubi", "derham"])
def test_forms_and_its_commands_load_no_row_reducer(command):
    assert "linalg" not in loaded_after("import necklacekit.forms")["layers"]
    layers = run_command(COMMANDS[command])["layers"]
    assert "forms" in layers and "linalg" not in layers


def test_moment_loads_no_path_form_or_root_layer():
    loaded = run_command(COMMANDS["moment"])
    assert loaded["numpy"] and "numerics" in loaded["layers"]
    assert not {"paths", "forms", "linalg", "strata", "roots"} & set(loaded["layers"])


def test_every_command_is_checked():
    from necklacekit import cli

    assert set(COMMANDS) == set(cli.COMMANDS)
