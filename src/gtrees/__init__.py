"""Finite G-trees, their deformation moves, retract pipelines, Stallings core
graphs, and the twisted-action constructions that surround them.

`import gtrees` loads no submodule.  Each public name below is imported from
its submodule on first access (PEP 562) and then kept in this namespace, so a
command that uses only `gtrees.stallings` never loads the G-tree code.
"""

from importlib import import_module

# public name -> the submodule that defines it; the keys, in order, are __all__
_EXPORTS = {
    name: module
    for module, names in (
        ("words", ("Alphabet", "Word", "conjugate", "cyclic_reduce", "format_word", "multiply", "parse_word", "power_word", "substitute")),
        ("stallings", ("CoreGraph", "fold", "from_generators")),
        ("gaction", ("FiniteGroup", "GSet", "is_conjugate_incomparable", "is_retract", "retraction_map")),
        ("ggraph", ("GGraph", "compress", "geodesic", "reorient", "slide", "subdivide", "validate")),
        (
            "retract",
            (
                "Filtration",
                "RetractState",
                "build_filtration",
                "check_filtration",
                "compress_to_U",
                "eliminate_problematic",
                "make_state",
                "paths_P",
                "problematic",
                "retract_tree",
            ),
        ),
        ("almost", ("AbelianGroup", "GModule", "check_derivation", "coset_retraction", "hochschild_v", "twisted_gset", "untwist")),
        (
            "counterexample",
            (
                "ExampleData",
                "default_data",
                "documented_mutations",
                "fixed_point_profile",
                "verify_all",
                "verify_really",
                "verify_schreier",
                "verify_stabilizer_inclusions",
            ),
        ),
    )
    for name in names
}

_SUBMODULES = frozenset(_EXPORTS.values()) | {"errors", "unionfind"}

__all__ = list(_EXPORTS)


def __getattr__(name: str):
    if name in _EXPORTS:
        value = getattr(import_module(f".{_EXPORTS[name]}", __name__), name)
        globals()[name] = value
        return value
    if name in _SUBMODULES:
        return import_module(f".{name}", __name__)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
