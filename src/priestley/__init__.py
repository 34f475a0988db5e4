"""Workbench for Priestley duals, nuclei, and d-spectrum analysis."""

from .poset import (
    FinitePoset,
    build_poset,
    canonical_form,
    enumerate_upsets,
    extrema,
    order_closure,
    poset_from_json,
    poset_to_json,
)
from .birkhoff import (
    ClopenUpset,
    DistLattice,
    clopen_upset_lattice,
    heyting,
    lattice_from_json,
    priestley_dual,
    stone_map,
    validate_lattice,
)
from .nuclei import (
    NuclearSet,
    Nucleus,
    admissible_upset,
    booleanization,
    density_check,
    double_negation,
    nuclear_join,
    nuclear_of_nucleus,
    nucleus_of_nuclear,
    validate_nucleus,
)
from .spectrum import AnalysisReport, FiniteEngine, spectrum_report
from .fans import TameSet, engine_for
from .oracle import TheoremCase, enumerate_posets, run_suite

__all__ = [
    "FinitePoset", "build_poset", "canonical_form", "enumerate_upsets",
    "extrema", "order_closure", "poset_from_json", "poset_to_json",
    "ClopenUpset", "DistLattice", "clopen_upset_lattice", "heyting",
    "lattice_from_json", "priestley_dual", "stone_map", "validate_lattice",
    "NuclearSet", "Nucleus", "admissible_upset", "booleanization",
    "density_check", "double_negation", "nuclear_join",
    "nuclear_of_nucleus", "nucleus_of_nuclear", "validate_nucleus",
    "AnalysisReport", "FiniteEngine", "spectrum_report",
    "TameSet", "engine_for",
    "TheoremCase", "enumerate_posets", "run_suite",
]
