"""Import hygiene: ``import diracosc``, the CLI and ``solve`` run without
numpy or scipy, and the names that load them later are still all there.

Each check runs in a fresh interpreter: this one has numpy loaded already.
"""

import json
import os
import subprocess
import sys

import diracosc

SRC = os.path.dirname(os.path.dirname(os.path.abspath(diracosc.__file__)))
LAZY = ("OracleComparison", "RadialGrid", "compare", "fd_eigenvalue", "self_consistent_energy",
        "RadialProfile", "count_nodes", "ode_residual", "radial_profile")


def fresh(code: str):
    """Run ``code`` in a new interpreter on this package; the JSON value of
    its last stdout line."""
    env = dict(os.environ, PYTHONPATH=SRC)
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


LOADED = "import json, sys; print(json.dumps([m for m in ('numpy', 'scipy') if m in sys.modules]))"


def test_import_loads_neither_numpy_nor_scipy():
    assert fresh(f"import diracosc; {LOADED}") == []
    assert fresh(f"import diracosc.cli; {LOADED}") == []


def test_cli_without_numpy():
    # the README nu-trace command, and --help (argparse exits 0 after it)
    trace = ["nu-trace", "--symmetry", "pseudospin", "--M", "1", "--a", "1", "--b", "1",
             "--B", "2", "--flux", "3.141592653589793", "--m", "1", "--E", "2"]
    code = f"from diracosc import cli; assert cli.main({trace!r}) == 0; {LOADED}"
    assert fresh(code) == []
    code = ("from diracosc import cli\n"
            "try:\n    cli.main(['--help'])\nexcept SystemExit as exc:\n    assert exc.code == 0\n"
            f"{LOADED}")
    assert fresh(code) == []


def test_solve_without_numpy():
    # the README solve command: find_states needs neither numpy nor scipy
    solve = ["solve", "--symmetry", "spin", "--M", "1", "--a", "1", "--b", "0", "--B", "0",
             "--flux", "0", "--n", "0", "--m", "0"]
    code = f"from diracosc import cli; assert cli.main({solve!r}) == 0; {LOADED}"
    assert fresh(code) == []


def test_star_import_binds_every_public_name():
    code = (
        "import json, types\n"
        "from diracosc import *\n"
        "import diracosc\n"
        "missing = [n for n in diracosc.__all__ if n not in globals()]\n"
        "modules = [isinstance(getattr(diracosc, n), types.ModuleType) for n in ('oracle', 'wavefunc')]\n"
        "print(json.dumps([missing, modules]))"
    )
    assert fresh(code) == [[], [True, True]]


def test_submodules_resolve_as_attributes():
    code = (
        "import json, diracosc\n"
        "print(json.dumps([diracosc.oracle.__name__, diracosc.wavefunc.__name__,\n"
        "                  diracosc.compare is diracosc.oracle.compare]))"
    )
    assert fresh(code) == ["diracosc.oracle", "diracosc.wavefunc", True]


def test_dir_lists_the_lazy_names_and_unknown_names_raise():
    code = (
        "import json, diracosc\n"
        "try:\n    diracosc.no_such_name\nexcept AttributeError as exc:\n    err = str(exc)\n"
        f"print(json.dumps([sorted(set(dir(diracosc)) & set({LAZY!r} + ('oracle', 'wavefunc'))), err,\n"
        "                  'numpy' in __import__('sys').modules]))"
    )
    listed, err, numpy_loaded = fresh(code)
    assert listed == sorted(LAZY + ("oracle", "wavefunc"))
    assert "no_such_name" in err
    assert not numpy_loaded
    assert set(LAZY) <= set(diracosc.__all__)
