"""Golden corpus: ``dual``, lattice rejections, ``analyze`` and the poset
enumeration, compared byte for byte with the files in ``tests/golden/``.

Regenerate the files (only when an output change is intended) with::

    PYTHONPATH=src python3 tests/test_golden.py
"""

import contextlib
import io
import json
import os
import pathlib
import sys
import tempfile

from priestley import cli, lattice_from_json
from priestley.oracle import enumerate_posets

GOLDEN = pathlib.Path(__file__).resolve().parent / "golden"


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
    for n in range(1, 6):
        files[f"posets_{n}.txt"] = "".join(
            repr(P) + "\n" for P in enumerate_posets(n))
    return files


def test_golden_corpus_is_byte_identical():
    expected = golden_outputs()
    assert sorted(p.name for p in GOLDEN.iterdir()) == sorted(expected)
    for name, text in expected.items():
        assert (GOLDEN / name).read_bytes() == text.encode("utf-8"), name


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    for old in GOLDEN.iterdir():
        old.unlink()
    for name, text in golden_outputs().items():
        (GOLDEN / name).write_bytes(text.encode("utf-8"))
    print(f"wrote {len(list(GOLDEN.iterdir()))} files to {GOLDEN}", file=sys.stderr)
