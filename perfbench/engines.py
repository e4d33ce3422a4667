"""The one table of orbitlab entry points that the workloads call.

Every name the benchmark uses from orbitlab is listed here and looked up
once per table.  Tracing rebinds module attributes first and then builds a
fresh table, so the workloads reach the wrapped functions through the same
names; tests swap single entries to perturb one engine.
"""

from __future__ import annotations

import importlib
from types import SimpleNamespace

ENTRY_POINTS = {
    # scalars and exact values
    "LocalField": ("scalar", "LocalField"),
    "smallest_nonresidue": ("scalar", "smallest_nonresidue"),
    "valuation": ("scalar", "valuation"),
    "Cyc": ("cyclo", "Cyc"),
    "Q2": ("quadext", "Q2"),
    # step functions
    "Space": ("steps", "Space"),
    "LineBlock": ("steps", "LineBlock"),
    "QuadBlock": ("steps", "QuadBlock"),
    "StepFunction": ("steps", "StepFunction"),
    "Term": ("steps", "Term"),
    "MonomialGram": ("steps", "MonomialGram"),
    # etale algebras
    "EtaleAlgebra": ("etale", "EtaleAlgebra"),
    "LineFactor": ("etale", "LineFactor"),
    "QuadFactor": ("etale", "QuadFactor"),
    "squarefree_kernel": ("etale", "squarefree_kernel"),
    # orbit-integral engines
    "algebra_space": ("integrals", "algebra_space"),
    "germ_extract": ("integrals", "germ_extract"),
    "c_empty_closed_form": ("integrals", "c_empty_closed_form"),
    "deep_element": ("integrals", "deep_element"),
    "torus_orbit_integral": ("integrals", "torus_orbit_integral"),
    "gl_orbit_integral": ("integrals", "gl_orbit_integral"),
    "nilpotent_orbit_integral_gl": ("integrals",
                                    "nilpotent_orbit_integral_gl"),
    "unitary_orbit_integral": ("integrals", "unitary_orbit_integral"),
    "parabolic_descent": ("integrals", "parabolic_descent"),
    "weil_index": ("integrals", "weil_index"),
    "weil_index_form": ("integrals", "weil_index_form"),
    # matrices, torsors and signs
    "GLTriple": ("spaces", "GLTriple"),
    "all_classes": ("cohomology", "all_classes"),
    "delta_family": ("cohomology", "delta_family"),
    "inv": ("cohomology", "inv"),
    "subset_pairing": ("cohomology", "subset_pairing"),
    "kappa_sign": ("cohomology", "kappa_sign"),
    "H1Class": ("cohomology", "H1Class"),
    "index_ratio": ("weilsign", "index_ratio"),
    # harness: factor catalog, transfer construction, ledger
    "germ_mixes": ("harness", "germ_mixes"),
    "construct_jr_transfer_n1": ("harness", "construct_jr_transfer_n1"),
    "NormalizationLedger": ("harness", "NormalizationLedger"),
}


def resolve() -> SimpleNamespace:
    """Look up every entry point in the currently loaded orbitlab modules."""
    return SimpleNamespace(**{
        name: getattr(importlib.import_module(f"orbitlab.{mod}"), attr)
        for name, (mod, attr) in ENTRY_POINTS.items()})
