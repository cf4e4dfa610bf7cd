"""Exact combinatorics of curves, triangulations and shear coordinates
on the four-punctured sphere.

Everything is integer arithmetic (a rational slope is a pair of integers);
no floating point anywhere.
The main entry points are:

- :mod:`spherelam.lattice` -- rational slopes, Farey relations, basis changes
- :mod:`spherelam.curves` -- tagged arcs, allowable curves, compatibility,
  the tagged triangulation class and its JSON forms
- :mod:`spherelam.triangulation` -- triangulation types, flips, exchange matrices
- :mod:`spherelam.shear` -- shear coordinates (three independent computation paths)
- :mod:`spherelam.fan` -- maximal cones of the rational quasi-lamination fan
- :mod:`spherelam.coefficients` -- universal coefficient and g-vector lists
- :mod:`spherelam.cli` -- command line front end

The names below are re-exported from those modules.  A module is imported
on first access to one of its names (PEP 562), so ``import spherelam`` and
every command line call load only the modules they use.
"""

import importlib

_EXPORTS = {
    "lattice": (
        "Slope", "UnimodularMap", "standard_form", "farey_distance",
        "is_farey1_triple", "mediant", "enumerate_slopes",
        "separating_neighbors",
    ),
    "curves": (
        "Puncture", "Tagging", "SpiralDir", "TaggedArc", "AllowableCurve",
        "PairClass", "endpoint_sets", "kappa", "kappa_inv", "arcs_compatible",
        "curves_compatible", "classify_pair", "enumerate_arcs", "enumerate_curves",
        "TaggedTriangulation", "type_i_triangulation", "base_triangulation",
    ),
    "triangulation": (
        "TriType", "classify", "build_type", "enumerate_triangulations", "flip",
        "signed_adjacency", "mutate",
    ),
    "shear": (
        "Word", "Tangle", "QuasiLamination", "word_prime",
        "word_of_curve", "shear_via_word", "shear_closed_form", "shear_oracle",
        "shear_wrt", "shear_lamination", "tangle_shear", "torus_shear",
        "sphere_torus_check", "find_witness", "apply_perm",
        "PERM_X", "PERM_Z", "GROUP_Y", "GROUP_Z", "GAMMA24",
    ),
    "fan": (
        "MaximalCollection", "Cone", "maximal_collections", "cone_of",
        "locate", "count_containing_cones",
        "flip_adjacency", "fan_check", "induced_torus_check",
    ),
    "coefficients": ("g_vectors", "universal_coeffs"),
}
_OWNER = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = list(_OWNER)
__version__ = "0.1.0"


def __getattr__(name: str):
    module = _OWNER.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__})
