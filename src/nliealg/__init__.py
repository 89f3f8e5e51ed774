"""Exact arithmetic for n-Lie algebras: Reynolds and Nijenhuis operators,
NS structures, operator cohomology, and first-order deformations.

Importing the package imports none of its modules.  Each name of
``__all__``, and each module (``nliealg.reynolds``), is looked up in its
module on every access (PEP 562), which imports that module the first
time; so the ``nlie`` command line loads only what the invoked command
runs, and nothing is bound here that a patch of a module could miss.
"""

from importlib import import_module

# each export, by the module that defines it
_HOMES = {
    "NAryAlgebra": "algebra",
    "RepresentationTable": "algebra",
    "adjoint_representation": "algebra",
    "check_filippov": "algebra",
    "check_representation": "algebra",
    "is_derivation": "algebra",
    "semidirect_product": "algebra",
    "Cochain": "cohomology",
    "ReynoldsComplex": "cohomology",
    "coboundary": "cohomology",
    "reynolds_representation": "cohomology",
    "LinearFunctional": "constructions",
    "check_assoc_reynolds": "constructions",
    "comm_assoc_algebra": "constructions",
    "extend_by_functional": "constructions",
    "reynolds_lift_criterion": "constructions",
    "check_equivalence_witness": "deformation",
    "is_infinitesimal_deformation": "deformation",
    "is_trivial_deformation": "deformation",
    "NLieError": "errors",
    "Matrix": "linalg",
    "check_nijenhuis": "nijenhuis",
    "deformed_algebra": "nijenhuis",
    "deformed_bracket_ladder": "nijenhuis",
    "NSAlgebra": "ns",
    "check_ns": "ns",
    "ns_from_nijenhuis": "ns",
    "ns_from_reynolds": "ns",
    "subadjacent": "ns",
    "check_reynolds": "reynolds",
    "induced_bracket": "reynolds",
}

__all__ = list(_HOMES)


def __getattr__(name):
    if name in _HOMES:
        return getattr(import_module(f"{__name__}.{_HOMES[name]}"), name)
    try:
        return import_module(f"{__name__}.{name}")
    except ModuleNotFoundError as exc:
        if exc.name != f"{__name__}.{name}":  # a module of the package failed to import
            raise
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted({*globals(), *__all__})
