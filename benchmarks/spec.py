"""What the benchmark measures: workloads, metrics and traced boundaries.

This module is the single source for the metric names printed by
``run.py``; ``BENCHMARK.json`` at the repository root lists the same
names (``test_benchmark.py`` checks that the two agree).

End-to-end metrics are reported by every workload, so their names are
roles rather than commands.  Each workload fills a role with its own
operation:

==========  ==========================  ===========================  ============================
role        verify-b5                   symbolic-sweep               duality
==========  ==========================  ===========================  ============================
cmd_s       p90 of a full verify pass   fresh engine, report and     p90 of the 2^7 lattice: JSON
            at bound 5, fresh           JSON: p90 per family,        in, dual out, Stone map
            interpreter, process wall   summed over the four
                                        families
op_ms       p90 of the cold poset       d-law battery on one         accept path of one lattice:
            enumeration of one pass     distinct sample: p90 per     p90 per size, summed over
                                        family, summed over the two  the five sizes
work_per_s  registry cases per second   distinct samples per second  nuclei per second through
            at the p90 check time of a  through the battery, one     one space of each size, at
            pass, enumeration excluded  round of each family at the  the p90 time of its size
                                        p90 time of its round
==========  ==========================  ===========================  ============================

On verify-b5, ``op_ms`` and ``work_per_s`` time disjoint parts of a
pass (enumeration, then the checks without it); ``cmd_s`` adds
interpreter start and import.  Gated latencies are p90s because the
machine switches between a fast and a slower state (see
``run.end_to_end``); the medians and tails of the named figures
(``verify_s``, ``sweep_p50_ms``, ``analyze_fan_tail_ms``,
``dual_accept_p50_ms`` and so on) are printed beside them.

``setup_s`` (``import priestley`` in a fresh interpreter) and
``peak_rss_mb`` mean the same on every workload.  The figures in
``NAMED`` and ``failed_share`` are printed by name on the lines before
the result.

Which figure each layer should move, and where (layers are the modules
of ``priestley``; each is absent from the workloads not listed, so the
prediction there is no change):

========  ==================================================  =========================
layer     figures it should move                              workloads
========  ==================================================  =========================
oracle    verify_s; op_ms (enumeration) and work_per_s        verify-b5
          (checks) of verify-b5
poset     verify_s; dual_*, nuclei_per_s                      verify-b5, duality
birkhoff  dual_accept_*, dual_bool128_s, dual_reject_p50_ms;  duality, verify-b5
          a small share of verify_s
nuclei    nuclei_per_s; a small share of verify_s             duality, verify-b5
spectrum  verify_s (finite engine); sweep_*, analyze_fan_*    verify-b5, symbolic-sweep
fans      sweep_*, analyze_fan_*, peak_rss_mb;                symbolic-sweep, verify-b5
          a small share of verify_s
cli       verify_s                                            verify-b5
setup     setup_s                                             all
========  ==================================================  =========================
"""

WORKLOADS = ("verify-b5", "symbolic-sweep", "duality")
# Verify bound by workload.  verify-b6, at the program's default bound,
# runs only when named: its 4-6 s passes each mix the fast and slow
# states of a shared machine, and the handful a run holds gave figures
# that moved by a third from run to run.
VERIFY_BOUNDS = {"verify-b5": 5, "verify-b6": 6}

# name -> (unit, better)
END_TO_END = {
    "setup_s": ("s", "lower"),
    "peak_rss_mb": ("MB", "lower"),
    "cmd_s": ("s", "lower"),
    "op_ms": ("ms", "lower"),
    "work_per_s": ("1/s", "higher"),
}

# Named figures each workload prints by name (name -> unit).
NAMED = {
    "verify-b5": {"verify_s": "s", "verify_tail_s": "s"},
    "verify-b6": {"verify_s": "s", "verify_tail_s": "s"},
    "symbolic-sweep": {
        "sweep_samples_per_s": "1/s", "sweep_p50_ms": "ms",
        "sweep_tail_ms": "ms", "analyze_fan_p50_ms": "ms",
        "analyze_fan_tail_ms": "ms",
    },
    "duality": {
        "dual_accept_p50_ms": "ms", "dual_accept_tail_ms": "ms",
        "dual_reject_p50_ms": "ms", "dual_bool128_s": "s",
        "nuclei_per_s": "1/s",
    },
}

THEOREM_IDS = (
    "arithmetic-core-law", "booleanization-sublocale", "compacts-d-initial",
    "core-d-forms", "d-is-double-negation", "d-nucleus-laws",
    "dense-iff-cofinal", "duality-round-trip", "eqv-conditions-rmax",
    "fan-d-laws", "fan-figures", "fan-tame-soundness", "heyting-adjunction",
    "inductive-core-collapse", "join-meet-formulas", "lemma-nj-restrict",
    "max-bounded-iff-d-initial", "max-least-cofinal", "max-y-in-yd",
    "min-yd-homeomorphism", "min-yd-max-d-upsets", "nuclei-galois",
    "nuclei-order-reversal", "priestley-separation",
    "regularity-equivalences", "rho-forms", "stone-embedding",
    "sublocale-roundtrip", "t1-min-yd", "unit-criteria", "upset-Nj-eq-Fj",
)

# Traced boundaries.  Each entry: (metric base name, module, attribute,
# kind).  Kinds: "func" wraps a module-level function under every name
# the package binds it to; "init" wraps a class's constructor; "method"
# wraps a method on every listed class that defines it; "split" records
# returns and raises as two boundaries; "count" only counts calls.
# Spans (name, start, end, parent, run id) are kept for the coarse ones.
BOUNDARIES = (
    ("oracle.enumerate_posets", "oracle", "enumerate_posets", "func"),
    ("poset.build_poset", "poset", "build_poset", "func"),
    ("poset.FinitePoset", "poset", "FinitePoset", "init"),
    ("poset.enumerate_upsets", "poset", "enumerate_upsets", "func"),
    ("poset.canonical_form", "poset", "canonical_form", "func"),
    ("poset.relabel_canonically", "poset", "relabel_canonically", "func"),
    ("poset.order_closure", "poset", "order_closure", "func"),
    ("poset.extrema", "poset", "extrema", "func"),
    ("birkhoff.validate_lattice", "birkhoff", "validate_lattice", "split"),
    ("birkhoff.priestley_dual", "birkhoff", "priestley_dual", "func"),
    ("birkhoff.stone_map", "birkhoff", "stone_map", "func"),
    ("birkhoff.clopen_upset_lattice", "birkhoff", "clopen_upset_lattice", "func"),
    ("birkhoff.implies_set", "birkhoff", "implies_set", "func"),
    ("birkhoff.pseudocomplement_set", "birkhoff", "pseudocomplement_set", "func"),
    ("nuclei.Nucleus", "nuclei", "Nucleus", "init"),
    ("nuclei.nucleus_of_nuclear", "nuclei", "nucleus_of_nuclear", "func"),
    ("nuclei.nuclear_of_nucleus", "nuclei", "nuclear_of_nucleus", "func"),
    ("nuclei.admissible_upset", "nuclei", "admissible_upset", "func"),
    ("nuclei.density_check", "nuclei", "density_check", "func"),
    ("nuclei.booleanization", "nuclei", "booleanization", "func"),
    ("spectrum.FiniteEngine", "spectrum", "FiniteEngine", "init"),
    ("spectrum.FiniteEngine.up", "spectrum", "FiniteEngine.up", "method"),
    ("spectrum.FiniteEngine.down", "spectrum", "FiniteEngine.down", "method"),
    ("spectrum.FiniteEngine.all_upsets", "spectrum", "FiniteEngine.all_upsets", "method"),
    ("spectrum.FiniteEngine.points_with_up_inside", "spectrum",
     "FiniteEngine.points_with_up_inside", "method"),
    ("spectrum.d_apply", "spectrum", "d_apply", "func"),
    ("spectrum.double_neg", "spectrum", "double_neg", "func"),
    ("spectrum.yd_set", "spectrum", "yd_set", "func"),
    ("spectrum.spectrum_report", "spectrum", "spectrum_report", "func"),
    ("fans.make_tame", "fans", "make_tame", "func"),
    ("fans.tame_meet", "fans", "tame_meet", "func"),
    ("fans.tame_join", "fans", "tame_join", "func"),
    ("fans.tame_complement", "fans", "tame_complement", "func"),
    ("fans.tame_closure", "fans", "tame_closure", "func"),
    ("fans.engine.up", "fans", "engines.up", "method"),
    ("fans.engine.down", "fans", "engines.down", "method"),
    ("fans.engine.core", "fans", "engines.core", "method"),
    ("fans.engine.points_with_up_inside", "fans", "engines.points_with_up_inside", "method"),
    ("fans.engine.clop_sup_test", "fans", "engines.clop_sup_test", "method"),
    ("fans.engine.sample_clopen_upsets", "fans", "engines.sample_clopen_upsets", "method"),
    ("fans.Region", "fans", "Region.__post_init__", "count"),
    ("cli.main", "cli", "main", "func"),
)

# Boundaries whose calls are also recorded as spans.
SPAN_BOUNDARIES = {
    "oracle.enumerate_posets", "spectrum.spectrum_report", "cli.main",
}


def _timed_names():
    names = []
    for base, _, _, kind in BOUNDARIES:
        if kind == "split":
            names += [base + ".accept", base + ".reject"]
        elif kind != "count":
            names.append(base)
    return names


TIMED = tuple(_timed_names())


def per_layer_metrics():
    """Every per-layer metric name -> unit, in a fixed order."""
    out = {}
    out["oracle.canon_calls_per_poset"] = "ratio"
    for tid in THEOREM_IDS:
        out[f"oracle.check_s.{tid}"] = "s"
    for name in TIMED:
        out[name + ".calls"] = "count"
        out[name + ".self_s"] = "s"
    out["fans.Region.inits"] = "count"
    out["fans.make_tame.distinct_share"] = "ratio"
    out["setup.numpy_import_s"] = "s"
    out["setup.priestley_import_s"] = "s"
    out["trace.overhead_ratio"] = "ratio"
    out["host.probe_s"] = "s"
    return out


# Boundaries each workload must reach in a traced run (calls > 0).
REQUIRED = {
    "verify-b5": tuple(n for n in TIMED if n != "poset.build_poset"),
    "verify-b6": tuple(n for n in TIMED if n != "poset.build_poset"),
    "symbolic-sweep": (
        "fans.make_tame", "fans.tame_meet", "fans.tame_join",
        "fans.tame_complement", "fans.tame_closure", "fans.engine.up",
        "fans.engine.down", "fans.engine.core",
        "fans.engine.points_with_up_inside", "fans.engine.clop_sup_test",
        "fans.engine.sample_clopen_upsets", "spectrum.d_apply",
        "spectrum.double_neg", "spectrum.yd_set", "spectrum.spectrum_report",
    ),
    "duality": (
        "poset.build_poset", "poset.FinitePoset", "poset.enumerate_upsets",
        "poset.order_closure", "poset.extrema",
        "birkhoff.validate_lattice.accept", "birkhoff.validate_lattice.reject",
        "birkhoff.priestley_dual", "birkhoff.stone_map",
        "birkhoff.implies_set", "birkhoff.pseudocomplement_set",
        "nuclei.Nucleus", "nuclei.nucleus_of_nuclear",
        "nuclei.nuclear_of_nucleus", "nuclei.admissible_upset",
        "nuclei.density_check", "nuclei.booleanization",
    ),
}
