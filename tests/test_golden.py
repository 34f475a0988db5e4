"""Golden corpus: ``dual``, lattice rejections, ``analyze``, the poset
enumeration, the nucleus dictionary, the fan engines' operations on
their samples, the samples themselves at small counts and several
seeds, their rules on the sparse-shape upsets, and the
theorem registry's verdicts and witnesses, compared byte for byte with
the files in ``tests/golden/``.  The demos' stdout is kept there too,
and ``test_demos.py`` compares it.

Regenerate the files (only when an output change is intended) with::

    PYTHONPATH=src python3 tests/test_golden.py
"""

import contextlib
import io
import json
import os
import pathlib
import subprocess
import sys
import tempfile

import pytest

from priestley import (
    NuclearSet,
    admissible_upset,
    booleanization,
    build_poset,
    cli,
    density_check,
    enumerate_upsets,
    lattice_from_json,
    nuclear_of_nucleus,
    nucleus_of_nuclear,
    validate_nucleus,
)
from priestley import oracle
from priestley import spectrum as sp
from priestley.fans import FAMILIES, engine_for, tame_to_json
from priestley.nuclei import all_nuclei
from priestley.oracle import enumerate_posets
from test_oracle import ENGINE_FAULTS
from test_tame import sparse_sets

ROOT = pathlib.Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "golden"
DEMOS = sorted((ROOT / "demos").glob("0[1-4]_*.py"))


def _boolean(k):
    """The Boolean lattice 2^k, points named by bit strings."""
    names = [format(m, f"0{k}b") for m in range(1 << k)]
    covers = [[names[m], names[m | 1 << b]]
              for m in range(1 << k) for b in range(k) if not m >> b & 1]
    return {"points": names, "covers": covers}


LATTICES = {
    "chain3": {"points": ["0", "a", "1"], "covers": [["0", "a"], ["a", "1"]],
               "bottom": "0", "top": "1"},
    "bool7": _boolean(7),
    # 2 x 2 with its atoms listed out of order: four points, not a chain
    "square": {"points": ["1", "x", "0", "y"],
               "covers": [["0", "x"], ["0", "y"], ["x", "1"], ["y", "1"]]},
}

REJECTS = {
    "m3": {"points": ["0", "a", "b", "c", "1"],
           "covers": [["0", "a"], ["0", "b"], ["0", "c"],
                      ["a", "1"], ["b", "1"], ["c", "1"]]},
    "n5": {"points": ["0", "a", "b", "c", "1"],
           "covers": [["0", "a"], ["a", "b"], ["b", "1"],
                      ["0", "c"], ["c", "1"]]},
    "bowtie": {"points": ["0", "a", "b", "c", "d", "1"],
               "covers": [["0", "a"], ["0", "b"], ["a", "c"], ["a", "d"],
                          ["b", "c"], ["b", "d"], ["c", "1"], ["d", "1"]]},
    "vee": {"points": ["a", "b", "c"], "covers": [["a", "c"], ["b", "c"]]},
}

SPACES = {
    "finite": {"points": ["a", "b", "c", "d", "e"],
               "covers": [["a", "c"], ["b", "c"], ["b", "d"], ["d", "e"]]},
    "bare_fan": {"family": "bare_fan"},
    "fan_plus_bottom": {"family": "fan_plus_bottom"},
    "omega_fans": {"family": "omega_fans"},
    "chain_fans": {"family": "chain_fans"},
}


NUCLEI_SPACES = {
    # graded: two minimal and two maximal points in a zigzag
    "zigzag": build_poset(["a", "b", "c", "d"],
                          [("a", "c"), ("b", "c"), ("b", "d")]),
    # not graded: maximal chains bot<mid<top and bot<side; labels listed
    # out of alphabetical order, so label and index order differ
    "nongraded": build_poset(["top", "mid", "bot", "side"],
                             [("bot", "mid"), ("mid", "top"), ("bot", "side")]),
}


def _planted_tables(P):
    """Name -> a raw table on P that breaks exactly one nucleus law
    (inflation, idempotence, meets), or totality or upset images."""
    ups = enumerate_upsets(P)
    ident = {u: u for u in ups}
    full = frozenset(range(P.n))
    top = next(u for u in ups if len(u) == 1)
    above = next(u for u in ups if top < u and u != full)
    low = next(i for i in range(P.n) if P.up[i] != 1 << i)
    return {
        "non-inflationary": {**ident, above: top, full: top},
        "non-idempotent": {**ident, top: above, above: full},
        "non-meet-preserving": {**ident, frozenset(): top},
        "not-total": {u: u for u in ups[1:]},
        "image-not-an-upset": {**ident, frozenset(): frozenset({low})},
    }


def nuclei_golden():
    """Every nucleus of two 4-point frames with its dictionary images,
    the Booleanization, and the errors of planted bad tables."""
    out = []
    for name, P in NUCLEI_SPACES.items():
        def show(s):
            return json.dumps(sorted(P.labels[i] for i in s))

        def table(j):
            # [[upset labels], [image labels]] per upset, in table order
            return json.dumps([[sorted(P.labels[i] for i in range(P.n) if m >> i & 1)
                                for m in pair] for pair in j.masks.items()])

        out.append(f"# {name}: {P!r}\n")
        for j in all_nuclei(P):
            back = nuclear_of_nucleus(j).members
            out.append(
                f"N={show(back)} table={table(j)} "
                f"admissible={show(admissible_upset(j))} "
                f"density={json.dumps(density_check(j), sort_keys=True)}\n")
            assert nucleus_of_nuclear(NuclearSet(P, back)) == j
        out.append("booleanization=" + json.dumps(
            [sorted(P.labels[i] for i in u) for u in booleanization(P)]) + "\n")
        for kind, table in _planted_tables(P).items():
            try:
                validate_nucleus(P, table)
            except Exception as e:  # the class and message are the output
                carried = getattr(e, "upset", getattr(e, "pair", None))
                out.append(f"{kind}: {type(e).__name__}: {e}"
                           f" | carries {carried!r}\n")
            else:
                out.append(f"{kind}: nothing\n")
    return "".join(out)


VERIFY_BOUND = 4


def fan_ops_golden():
    """For every sample of each fan family (``SAMPLE_COUNT`` at
    ``DEFAULT_SEED``): dU, up, down, core, closure, the meet with the
    previous sample and the Scott test."""
    def show(a):
        return json.dumps(tame_to_json(a), sort_keys=True)

    out = []
    for family in FAMILIES:
        E = engine_for(family)
        samples = E.sample_clopen_upsets(oracle.SAMPLE_COUNT, seed=oracle.DEFAULT_SEED)
        out.append(f"# {family}: {len(samples)} samples\n")
        for k, u in enumerate(samples):
            out.append(f"[{k}] u={show(u)}\n")
            out.append(f"  d={show(sp.d_apply(E, u))}\n")
            out.append(f"  up={show(E.up(u))}\n")
            out.append(f"  down={show(E.down(u))}\n")
            out.append(f"  core={show(E.core(u))}\n")
            out.append(f"  closure={show(E.closure(u))}\n")
            if k:
                out.append(f"  meet_prev={show(E.meet(u, samples[k - 1]))}\n")
            out.append(f"  clop_sup_test={E.clop_sup_test(u)}\n")
    return "".join(out)


SAMPLE_SEEDS = (0, 1, 7)
SAMPLE_COUNTS = (0, 1, 2, 9)


def fan_samples_golden():
    """The samples of each fan family at every count in ``SAMPLE_COUNTS``
    and seed in ``SAMPLE_SEEDS``, one line each."""
    out = []
    for family in FAMILIES:
        E = engine_for(family)
        for seed in SAMPLE_SEEDS:
            for count in SAMPLE_COUNTS:
                samples = E.sample_clopen_upsets(count, seed=seed)
                out.append(f"# {family} seed={seed} count={count}: "
                           f"{len(samples)} samples\n")
                out += [json.dumps(tame_to_json(u), sort_keys=True) + "\n"
                        for u in samples]
    return "".join(out)


def sparse_clopen_upsets(E):
    """Every distinct clopen upset ``E.up(a)`` of the sparse-shape sets."""
    ups = dict.fromkeys(E.up(a) for a in sparse_sets(E.family))
    return [u for u in ups if E.is_open(u) and E.is_closed(u)]


@pytest.mark.parametrize("family", FAMILIES)
def test_core_is_the_upset_of_its_localic_points(family):
    # the closed-form core against its slow generic form, so that a
    # regenerated fan_rules.txt cannot bless a changed rule
    E = engine_for(family)
    L = sp.localic_part(E)
    samples = E.sample_clopen_upsets(oracle.SAMPLE_COUNT, seed=oracle.DEFAULT_SEED)
    for u in sparse_clopen_upsets(E) + samples:
        assert E.core(u) == E.up(E.meet(u, L)), E.describe_set(u)


def fan_rules_golden():
    """For every distinct clopen upset ``E.up(a)`` of the sparse-shape
    sets of each fan family: core, dU and the Scott test, one line each."""
    def show(a):
        return json.dumps(tame_to_json(a), sort_keys=True)

    out = []
    for family in FAMILIES:
        E = engine_for(family)
        ups = sparse_clopen_upsets(E)
        out.append(f"# {family}: {len(ups)} clopen upsets\n")
        out += [f"u={show(u)} core={show(E.core(u))} d={show(sp.d_apply(E, u))} "
                f"clop_sup_test={E.clop_sup_test(u)}\n" for u in ups]
    return "".join(out)


def verify_golden():
    """Every case of the registry at bound 4, and the failed cases (with
    witnesses) under each planted fault of ``ENGINE_FAULTS``."""
    out = [f"# run_suite(bound={VERIFY_BOUND})\n"]
    out += [f"{c.theorem_id} | {c.instance} | {c.status}\n"
            for c in oracle.run_suite(bound=VERIFY_BOUND)]
    for owner, name, fault, ids, _ in ENGINE_FAULTS:
        out.append(f"# fault {owner.__name__.rpartition('.')[2]}.{name}\n")
        # undone as pytest's monkeypatch does: a method a class inherits
        # is deleted from it again, not copied into it
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(owner, name, fault)
            out += [f"{c.theorem_id} | {c.instance} | {c.witness}\n"
                    for c in oracle.run_suite(ids, bound=VERIFY_BOUND) if not c.ok()]
    return "".join(out)


def _run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            cli.main(argv)
        except SystemExit as e:
            code = e.code or 0
    return f"exit {code}\n--- stdout\n{out.getvalue()}--- stderr\n{err.getvalue()}"


def _raised(obj):
    try:
        lattice_from_json(obj)
    except Exception as e:  # the class and message are the output
        return f"--- raises\n{type(e).__name__}: {e}\n"
    return "--- raises\nnothing\n"


def golden_outputs():
    """File name -> expected text, computed by the current code."""
    files = {}
    with tempfile.TemporaryDirectory() as tmp:
        def path(name, obj):
            p = os.path.join(tmp, name + ".json")
            with open(p, "w", encoding="utf-8") as fh:
                json.dump(obj, fh)
            return p

        dot = os.path.join(tmp, "out.dot")

        def read_dot():
            with open(dot, encoding="utf-8") as fh:
                return fh.read()

        for name, obj in LATTICES.items():
            files[f"dual_{name}.txt"] = _run(["dual", path(name, obj), "--dot", dot])
            files[f"dual_{name}.dot"] = read_dot()
        for name, obj in REJECTS.items():
            files[f"reject_{name}.txt"] = (
                _run(["dual", path(name, obj)]) + _raised(obj))
        for name, obj in SPACES.items():
            p = path(name, obj)
            files[f"analyze_{name}.txt"] = _run(["analyze", p, "--dot", dot])
            files[f"analyze_{name}.dot"] = read_dot()
            files[f"analyze_{name}.json"] = _run(["analyze", p, "--format", "json"])
    for n in range(1, 7):
        files[f"posets_{n}.txt"] = "".join(
            repr(P) + "\n" for P in enumerate_posets(n))
    files["nuclei.txt"] = nuclei_golden()
    files["fan_ops.txt"] = fan_ops_golden()
    files["fan_samples.txt"] = fan_samples_golden()
    files["fan_rules.txt"] = fan_rules_golden()
    files[f"verify_b{VERIFY_BOUND}.txt"] = verify_golden()
    return files


def demo_golden_name(demo):
    return f"demo_{demo.name[:2]}.txt"


def run_demos():
    """Golden file name -> (stdout bytes, stderr text, exit code) of each
    demo, each run in a fresh interpreter."""
    path = os.pathsep.join(filter(None, [str(ROOT / "src"),
                                         os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path}
    # started together, so the caller waits for the slowest demo only
    procs = [
        subprocess.Popen([sys.executable, str(p)], cwd=ROOT, env=env,
                         stdout=subprocess.PIPE, stderr=subprocess.PIPE)
        for p in DEMOS
    ]
    results = {}
    for p, proc in zip(DEMOS, procs):
        out, err = proc.communicate(timeout=120)
        results[demo_golden_name(p)] = (out, err.decode("utf-8", "replace"),
                                        proc.returncode)
    return results


def test_golden_corpus_is_byte_identical():
    expected = golden_outputs()
    assert sorted(p.name for p in GOLDEN.iterdir()) == sorted(
        [*expected, *map(demo_golden_name, DEMOS)])
    for name, text in expected.items():
        assert (GOLDEN / name).read_bytes() == text.encode("utf-8"), name


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    for old in GOLDEN.iterdir():
        old.unlink()
    for name, text in golden_outputs().items():
        (GOLDEN / name).write_bytes(text.encode("utf-8"))
    for name, (out, err, code) in run_demos().items():
        assert code == 0, (name, err)
        (GOLDEN / name).write_bytes(out)
    print(f"wrote {len(list(GOLDEN.iterdir()))} files to {GOLDEN}", file=sys.stderr)
