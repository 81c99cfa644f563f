"""Cyclic and m-quasi-cyclic subspace codes over finite fields.

Subspaces of F_{q^n} are encoded as integer bitsets over the exponents of a
primitive element; intersection is bitwise AND, the cyclic shift is bitset
rotation.  On top of that encoding the package classifies orbits, verifies
and bounds codes, computes duals, and constructs codes as cliques of an
orbit compatibility graph.

The names below are loaded from their submodules on first use (PEP 562),
so importing the package, or one submodule, loads no other submodule.
"""

from importlib import import_module

__version__ = "1.0.0"

_EXPORTS = {
    "codes": (
        "SubspaceCode", "code_from_generators", "code_from_words", "dualize",
        "dump_code_file", "etzion_vardy_bound", "is_cyclic", "is_quasi_cyclic",
        "is_self_dual", "load_code_file", "min_distance", "spread_code",
        "verify_code_file",
    ),
    "construct": (
        "CliqueResult", "CompatGraph", "SelfDualHit", "assemble_code",
        "build_graph", "find_cliques", "inter_orbit_distance", "read_dimacs",
        "self_dual_search", "write_dimacs",
    ),
    "errors": ("OrbitCodesError", "ResourceLimit"),
    "gfext": ("FieldSpec", "default_poly", "gaussian_coefficient", "make_field",
              "parse_poly"),
    "orbits": (
        "CensusTable", "Checkpoint", "ConjectureVerdict", "Orbit", "RunBudget",
        "classify", "conjecture_check", "enumerate_orbits", "orbit_of",
        "read_orbit_db", "write_orbit_db",
    ),
    "subspace": (
        "Subspace", "distance", "from_bits", "from_exponents",
        "orthogonal_complement", "shift", "span",
    ),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_MODULE_OF)


def __getattr__(name):
    try:
        module = _MODULE_OF[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    value = getattr(import_module(f"{__name__}.{module}"), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *_MODULE_OF})
