"""Each CLI call loads only the modules its command uses, and the package
loads its submodules on first use."""

import importlib
import json
import os
import subprocess
import sys

import pytest

from orbitcodes.cli import main
from tests.conftest import data_path

SRC = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src")

# main(argv) in a fresh interpreter; prints its exit code and the modules it loaded
PROBE = """
import json, sys
before = set(sys.modules)
from orbitcodes.cli import main
code = main(json.loads(sys.argv[1]))
print(json.dumps([code, sorted(set(sys.modules) - before)]), file=sys.stderr)
"""


def loaded_by(argv) -> set:
    proc = subprocess.run([sys.executable, "-c", PROBE, json.dumps(argv)],
                          env=dict(os.environ, PYTHONPATH=SRC),
                          capture_output=True, text=True, check=True)
    code, modules = json.loads(proc.stderr.splitlines()[-1])
    assert code == 0
    return set(modules)


@pytest.fixture(scope="module")
def db(tmp_path_factory):
    path = str(tmp_path_factory.mktemp("db") / "orbits.jsonl")
    assert main(["classify", "--n", "6", "--k", "3", "--db", path]) == 0
    return path


COMMANDS = {
    "verify": lambda tmp, db: ["verify", data_path("cyclic_n5k2.json")],
    "dualize": lambda tmp, db: ["dualize", data_path("cyclic_n5k2.json"),
                                "-o", str(tmp / "dual.json"), "--format", "json"],
    "bound": lambda tmp, db: ["bound", "--n", "6", "--d", "4", "--k", "3"],
    "spread": lambda tmp, db: ["spread", "--n", "6", "--t", "3",
                               "-o", str(tmp / "spread.json")],
    "classify": lambda tmp, db: ["classify", "--n", "6", "--k", "3",
                                 "--db", str(tmp / "orbits.jsonl")],
    "conjecture-check": lambda tmp, db: ["conjecture-check", "--n", "6", "--k", "2"],
    "graph": lambda tmp, db: ["graph", "--db", db, "--d", "4", "-o", str(tmp / "g.dimacs")],
    "clique": lambda tmp, db: ["clique", "--db", db, "--d", "4"],
    "selfdual": lambda tmp, db: ["selfdual", "--n", "4", "--format", "json"],
}
WITHOUT_CENSUS = {"verify", "dualize", "bound", "spread"}
WITHOUT_CONSTRUCTION = WITHOUT_CENSUS | {"classify", "conjecture-check"}
WITHOUT_CODES = {"classify", "conjecture-check"}


@pytest.mark.parametrize("command", COMMANDS)
def test_command_loads_only_what_it_uses(tmp_path, db, command):
    modules = loaded_by(COMMANDS[command](tmp_path, db))
    assert "dataclasses" not in modules
    assert ("orbitcodes.orbits" in modules) == (command not in WITHOUT_CENSUS)
    assert ("orbitcodes.construct" in modules) == (command not in WITHOUT_CONSTRUCTION)
    assert ("orbitcodes.codes" in modules) == (command not in WITHOUT_CODES)


def test_gaussian_coefficient_loads_only_gfext():
    """It lives in gfext; codes re-exports the same function."""
    proc = subprocess.run(
        [sys.executable, "-c", "import json, sys, orbitcodes; orbitcodes.gaussian_coefficient; "
         "print(json.dumps(sorted(sys.modules)))"],
        env=dict(os.environ, PYTHONPATH=SRC), capture_output=True, text=True, check=True)
    loaded = [m for m in json.loads(proc.stdout) if m.startswith("orbitcodes")]
    assert loaded == ["orbitcodes", "orbitcodes.errors", "orbitcodes.gfext"]
    from orbitcodes import codes, gfext
    assert codes.gaussian_coefficient is gfext.gaussian_coefficient


def test_import_loads_no_submodule():
    proc = subprocess.run(
        [sys.executable, "-c", "import json, sys, orbitcodes; print(json.dumps(sorted(sys.modules)))"],
        env=dict(os.environ, PYTHONPATH=SRC), capture_output=True, text=True, check=True)
    assert [m for m in json.loads(proc.stdout) if m.startswith("orbitcodes")] == ["orbitcodes"]


# every name the package exported when it imported its submodules eagerly
EXPORTED = {
    "codes": ["SubspaceCode", "code_from_generators", "code_from_words", "dualize",
              "dump_code_file", "etzion_vardy_bound", "gaussian_coefficient",
              "is_cyclic", "is_quasi_cyclic", "is_self_dual", "load_code_file",
              "min_distance", "spread_code", "verify_code_file"],
    "construct": ["CliqueResult", "CompatGraph", "SelfDualHit", "assemble_code",
                  "build_graph", "find_cliques", "inter_orbit_distance", "read_dimacs",
                  "self_dual_search", "write_dimacs"],
    "errors": ["OrbitCodesError", "ResourceLimit"],
    "gfext": ["FieldElement", "FieldSpec", "default_poly", "make_field", "parse_poly"],
    "orbits": ["CensusTable", "Checkpoint", "ConjectureVerdict", "Orbit", "RunBudget",
               "classify", "conjecture_check", "enumerate_orbits", "orbit_members",
               "orbit_min_distance", "orbit_of", "read_orbit_db", "stabilizer_degree",
               "write_orbit_db"],
    "subspace": ["Subspace", "canonical_rotation", "distance", "from_bits",
                 "from_exponents", "full_space", "intersect", "orthogonal_complement",
                 "shift", "span", "zero_subspace"],
}


@pytest.mark.parametrize("module, name", [(m, n) for m, names in EXPORTED.items()
                                          for n in names])
def test_exported_name_imports_from_the_package(module, name):
    namespace = {}
    exec(f"from orbitcodes import {name}", namespace)
    assert namespace[name] is getattr(importlib.import_module(f"orbitcodes.{module}"), name)


def test_package_exports_and_lists_the_same_names():
    import orbitcodes
    names = {n for names in EXPORTED.values() for n in names}
    assert set(orbitcodes.__all__) == names and names <= set(dir(orbitcodes))
    assert orbitcodes.__version__ == "1.0.0"
    with pytest.raises(AttributeError):
        orbitcodes.no_such_name
