"""CLI: subcommands, exit codes, deterministic output."""

import json
import os
import pathlib
import re
import subprocess
import sys

import pytest

from priestley import build_poset, cli, oracle
from priestley import spectrum as sp
from priestley.errors import InternalAssertionError
from priestley.fans import (FAMILIES, FULL_REGION, OmegaFansEngine, engine_for,
                            make_tame, tame_meet)


def run_cli(argv, capsys):
    with pytest.raises(SystemExit) as e:
        cli.main(argv)
    out = capsys.readouterr()
    code = e.value.code if e.value.code is not None else 0
    return code, out.out, out.err


@pytest.fixture
def chain3(tmp_path):
    p = tmp_path / "chain3.json"
    p.write_text(json.dumps({
        "points": ["0", "a", "1"],
        "covers": [["0", "a"], ["a", "1"]],
        "bottom": "0", "top": "1",
    }))
    return str(p)


@pytest.fixture
def m3(tmp_path):
    p = tmp_path / "m3.json"
    p.write_text(json.dumps({
        "points": ["0", "a", "b", "c", "1"],
        "covers": [["0", "a"], ["0", "b"], ["0", "c"],
                   ["a", "1"], ["b", "1"], ["c", "1"]],
    }))
    return str(p)


def test_dual_three_chain(chain3, tmp_path, capsys):
    out_file = tmp_path / "space.json"
    dot_file = tmp_path / "space.dot"
    code, out, _ = run_cli(
        ["dual", chain3, "--out", str(out_file), "--dot", str(dot_file)],
        capsys,
    )
    assert code == 0
    space = json.loads(out_file.read_text())
    assert sorted(space["points"]) == ["1", "a"]
    assert len(space["covers"]) == 1
    assert "digraph" in dot_file.read_text()


def test_dual_rejects_m3(m3, capsys):
    code, _, err = run_cli(["dual", m3], capsys)
    assert code == 2
    assert "distributivity" in err


def test_dual_reports_an_internal_assertion_as_exit_3(chain3, monkeypatch, capsys):
    def broken(obj):
        raise InternalAssertionError("every triple distributes")
    monkeypatch.setattr(cli, "lattice_from_json", broken)
    code, out, err = run_cli(["dual", chain3], capsys)
    assert (code, out) == (3, "")
    assert err == "internal assertion failed: every triple distributes\n"


# a DOT node line whose label is one quoted string, quotes and
# backslashes inside it escaped
DOT_NODE = re.compile(r'  n\d+ \[label="((?:[^"\\]|\\.)*)", shape=\w+, style="[^"]*"\];')


@pytest.mark.parametrize("command, labels", [
    ("dual", ["c\\"]),
    ("analyze", ['a"b', "c\\"]),
])
def test_dot_labels_escape_quotes_and_backslashes(command, labels, tmp_path, capsys):
    p = tmp_path / "quoted.json"
    p.write_text(json.dumps({"points": ['a"b', "c\\"], "covers": [['a"b', "c\\"]]}))
    dot = tmp_path / "out.dot"
    code, _, _ = run_cli([command, str(p), "--dot", str(dot)], capsys)
    nodes = [line for line in dot.read_text().splitlines() if "label=" in line]
    matches = [DOT_NODE.fullmatch(line) for line in nodes]
    assert code == 0 and all(matches), nodes
    assert [re.sub(r"\\(.)", r"\1", m[1]) for m in matches] == labels


def test_dual_two_element(tmp_path, capsys):
    p = tmp_path / "two.json"
    p.write_text(json.dumps({"points": ["0", "1"], "covers": [["0", "1"]]}))
    code, out, _ = run_cli(["dual", str(p)], capsys)
    assert code == 0
    assert len(json.loads(out)["points"]) == 1


def test_analyze_families(tmp_path, capsys):
    expectations = {
        "omega_fans": {"hausdorff": False, "has_unit": True},
        "bare_fan": {"hausdorff": True, "compact": False, "has_unit": False,
                     "max_bounded": True},
    }
    for family, expected in expectations.items():
        p = tmp_path / f"{family}.json"
        p.write_text(json.dumps({"family": family}))
        code, out, _ = run_cli(["analyze", str(p), "--format", "json"], capsys)
        assert code == 0
        flags = json.loads(out)["flags"]
        for key, value in expected.items():
            assert flags[key] == value, (family, key)


def test_analyze_finite_two_chain(tmp_path, capsys):
    p = tmp_path / "two_chain.json"
    p.write_text(json.dumps({"points": ["x1", "x2"], "covers": [["x1", "x2"]]}))
    code, out, _ = run_cli(["analyze", str(p), "--format", "json"], capsys)
    assert code == 0
    report = json.loads(out)
    assert report["min_y_d"] == "{x2}"
    assert all(report["flags"].values())


def test_analyze_deterministic(tmp_path, capsys):
    p = tmp_path / "omega.json"
    p.write_text(json.dumps({"family": "omega_fans"}))
    code1, out1, _ = run_cli(["analyze", str(p), "--format", "json"], capsys)
    code2, out2, _ = run_cli(["analyze", str(p), "--format", "json"], capsys)
    assert code1 == code2 == 0 and out1 == out2


def test_analyze_fan_dot(tmp_path, capsys):
    p = tmp_path / "chain.json"
    p.write_text(json.dumps({"family": "chain_fans"}))
    dot = tmp_path / "chain.dot"
    code, _, _ = run_cli(["analyze", str(p), "--dot", str(dot)], capsys)
    assert code == 0
    text = dot.read_text()
    assert "X_omega*" in text and "..." in text


def test_analyze_dot_builds_one_engine(tmp_path, monkeypatch, capsys):
    # the report and the diagram read Y_d and min Y_d from the same engine
    built = []
    monkeypatch.setattr(cli, "engine_for",
                        lambda family: built.append(family) or engine_for(family))
    p = tmp_path / "omega.json"
    p.write_text(json.dumps({"family": "omega_fans"}))
    code, _, _ = run_cli(["analyze", str(p), "--dot", str(tmp_path / "o.dot")],
                         capsys)
    assert code == 0 and built == ["omega_fans"]


def edges(text):
    return re.findall(r"^  (\w+) -> (\w+);$", text, re.M)


def test_the_fan_diagram_is_drawn_from_the_engine_order():
    # with no fan above a spine point, y0 -> fan0 must leave the diagram
    class NoFanAboveTheSpine(OmegaFansEngine):
        def strict_up(self, a):
            no_fans = make_tame(self.family, spine=FULL_REGION, omega_star=True)
            return tame_meet(super().strict_up(a), no_fans)

    drawn = edges(cli.dot(engine_for("omega_fans"), cli._FAN_NODES))
    planted = edges(cli.dot(NoFanAboveTheSpine(), cli._FAN_NODES))
    assert ("y0", "fan0") in drawn and ("y0", "fan0") not in planted
    assert planted == [("y0", "omega"), ("y_more", "omega"), ("omega", "omega_star")]


def test_the_finite_diagram_draws_the_covers():
    for P in oracle.posets_up_to(5):
        drawn = edges(cli.dot(sp.FiniteEngine(P), cli._finite_nodes(P)))
        assert drawn == [(f"n{i}", f"n{j}") for i, j in P.covers()], P


@pytest.mark.parametrize("space", [
    *FAMILIES,
    build_poset(["a", "b", "c", "d", "e"],
                [("a", "c"), ("b", "c"), ("b", "d"), ("d", "e")]),
], ids=[*FAMILIES, "finite"])
def test_every_report_field_is_rendered_once(space):
    E = engine_for(space) if isinstance(space, str) else sp.FiniteEngine(space)
    report = sp.spectrum_report(E)
    # the report's one field declaration: (name, label, flag, text)
    fields = sp._LAYOUT
    assert sp.AnalysisReport._fields == tuple(name for name, *_ in fields)
    # exactly one of the two unit lines, as the report has them
    assert (report.unit_witness is None) != (report.unit_refutation is None)
    shown = [(name, label) for name, label, *_ in fields
             if getattr(report, name) is not None]
    lines = report.to_text().splitlines()
    assert len({label for _, label, *_ in fields}) == len(fields)
    assert [line.split(":")[0] for line in lines] == [label for _, label in shown]
    for (name, label), line in zip(shown, lines):
        value = getattr(report, name)
        if not isinstance(value, dict):
            assert line == f"{label + ':':<18}{value}", name
    out = report.to_json_dict()
    flags = out.pop("flags")
    assert not set(out) & set(flags)
    assert set(flags) == {name for name, _, flag, _ in fields if flag}
    assert {**out, **flags} == {name: getattr(report, name) for name, *_ in fields}


def test_analyze_bad_input(tmp_path, capsys):
    p = tmp_path / "bad.json"
    p.write_text(json.dumps({"something": "else"}))
    code, _, err = run_cli(["analyze", str(p)], capsys)
    assert code == 2 and "family" in err

    q = tmp_path / "worse.json"
    q.write_text("not json")
    code, _, _ = run_cli(["analyze", str(q)], capsys)
    assert code == 2


def test_a_file_that_is_not_utf8_exits_2(tmp_path, capsys):
    p = tmp_path / "latin1.json"
    p.write_bytes(b'{"family": "omega_fans\xe9"}')
    code, out, err = run_cli(["analyze", str(p)], capsys)
    assert code == 2 and out == "" and f"cannot read {p}" in err


@pytest.mark.parametrize("command", ["analyze", "dual"])
def test_json_nested_too_deep_exits_2(command, tmp_path, capsys):
    # the decoder gives up with RecursionError, not ValueError
    p = tmp_path / "deep.json"
    p.write_text("[" * 100_000 + "]" * 100_000)
    code, out, err = run_cli([command, str(p)], capsys)
    assert code == 2 and out == "" and f"cannot read {p}" in err, err


@pytest.mark.parametrize("command, option", [
    ("dual", "--out"), ("dual", "--dot"), ("analyze", "--out"), ("analyze", "--dot"),
])
def test_an_unwritable_output_exits_2(command, option, chain3, tmp_path, capsys):
    target = tmp_path / "missing" / "out.txt"
    code, _, err = run_cli([command, chain3, option, str(target)], capsys)
    assert code == 2 and f"cannot write {target}" in err, err


@pytest.mark.parametrize("command, obj, field", [
    ("dual", {"points": ["0", "1"], "covers": [["0"]]}, "covers.0"),
    ("analyze", {"points": ["0", "1"], "covers": [["0"]]}, "covers.0"),
    ("analyze", {"points": "ab"}, "points"),
    ("dual", {"points": ["0", "1"], "covers": [["0", "1"]], "top": ["1"]}, "top"),
])
def test_malformed_poset_json_exits_2_naming_the_field(command, obj, field,
                                                       tmp_path, capsys):
    p = tmp_path / "bad.json"
    p.write_text(json.dumps(obj))
    code, out, err = run_cli([command, str(p)], capsys)
    assert code == 2 and out == "" and f": {field}: " in err, err


def test_verify_green_and_filtered(capsys):
    code, out, _ = run_cli(
        ["verify", "--bound", "3", "--only", "upset-Nj-eq-Fj,fan-figures"],
        capsys,
    )
    assert code == 0
    assert "0 failed" in out


def test_verify_unknown_id(capsys):
    code, _, err = run_cli(["verify", "--only", "nope"], capsys)
    assert code == 2 and "nope" in err


def test_verify_bound_over_cap(capsys):
    code, out, err = run_cli(["verify", "--bound", "9"], capsys)
    assert code == 64 and out == ""
    assert err == f"bound 9 exceeds the configured cap {oracle.MAX_BOUND}\n"


def test_usage_error(capsys):
    code, _, _ = run_cli(["frobnicate"], capsys)
    assert code == 64


@pytest.mark.parametrize("argv", [
    ["--bound", "0"],
    ["--bound", "-2", "--only", "rho-forms"],
])
def test_verify_rejects_a_bound_below_one(argv, capsys):
    # a verifier that checks no poset must not report success
    code, out, err = run_cli(["verify"] + argv, capsys)
    assert code == 64 and out == ""
    assert err == f"bound {argv[1]} is below 1: no poset would be checked\n"


@pytest.mark.parametrize("only", [",", " ", "", " , ,"])
def test_verify_rejects_an_empty_only(only, capsys):
    # nor may one that checks no theorem
    code, out, err = run_cli(["verify", "--bound", "2", "--only", only], capsys)
    assert code == 64 and out == ""
    assert err == "--only: no theorem id given: no case would be checked\n"


# the eight cases of d-nucleus-laws at bound 3 under the fault below:
# (instance, witness) per case, in case order; an instance is named by
# its poset's repr, covers and all
D_TABLE_FAILURES = [
    ("FinitePoset(['p0'], covers=[])", "d is not dense"),
    ("FinitePoset(['p0', 'p1'], covers=[])", "d is not dense"),
    ("FinitePoset(['p0', 'p1'], covers=[('p0', 'p1')])", "{p0} is not a clopen upset"),
    ("FinitePoset(['p0', 'p1', 'p2'], covers=[])", "d is not dense"),
    ("FinitePoset(['p0', 'p1', 'p2'], covers=[('p1', 'p2')])", "d is not dense"),
    ("FinitePoset(['p0', 'p1', 'p2'], covers=[('p0', 'p2'), ('p1', 'p2')])",
     "{p0} is not a clopen upset"),
    ("FinitePoset(['p0', 'p1', 'p2'], covers=[('p0', 'p1'), ('p0', 'p2')])",
     "{p0} is not a clopen upset"),
    ("FinitePoset(['p0', 'p1', 'p2'], covers=[('p0', 'p1'), ('p1', 'p2')])",
     "{p0} is not a clopen upset"),
]


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_verify_reports_each_failure(fmt, monkeypatch, capsys):
    # point 0 joins every d image: d of the empty set is not dense, or
    # not an upset
    d_table = oracle._d_table
    monkeypatch.setattr(oracle, "_d_table",
                        lambda E: {u: v | 1 for u, v in d_table(E).items()})
    code, out, err = run_cli(["verify", "--bound", "3", "--only", "d-nucleus-laws",
                              "--format", fmt], capsys)
    assert code == 1 and err == ""
    if fmt == "text":
        assert out.splitlines() == [
            f"FAILED d-nucleus-laws on {inst}: {w}" for inst, w in D_TABLE_FAILURES
        ] + ["0/8 cases verified, 8 failed"]
    else:
        assert json.loads(out) == {
            "total": 8, "verified": 0, "failed": 8,
            "failures": [{"theorem": "d-nucleus-laws", "instance": inst, "witness": w}
                         for inst, w in D_TABLE_FAILURES],
        }


def test_verify_runs_a_repeated_id_once(capsys):
    code, out, _ = run_cli(
        ["verify", "--bound", "3", "--only", "rho-forms,fan-figures,rho-forms"],
        capsys,
    )
    # 8 posets of up to 3 points and 4 fan families
    assert code == 0 and out == "12/12 cases verified, 0 failed\n"


def test_verify_stats_count_every_case_once(capsys):
    code, out, _ = run_cli(
        ["verify", "--bound", "3", "--format", "json", "--stats",
         "--only", "stone-embedding,rho-forms,fan-figures"], capsys)
    payload = json.loads(out)
    stats = payload["stats"]
    theorems = stats["theorems"]
    assert code == 0 and list(theorems) == ["fan-figures", "rho-forms", "stone-embedding"]
    assert sum(t["cases"] for t in theorems.values()) == payload["total"]
    assert all(t["failed"] == 0 and t["seconds"] >= 0 for t in theorems.values())
    assert stats["enumerate_s"] >= 0

    code, text, _ = run_cli(
        ["verify", "--bound", "3", "--stats",
         "--only", "stone-embedding,rho-forms,fan-figures"], capsys)
    lines = text.splitlines()
    assert lines[0] == f"{payload['total']}/{payload['total']} cases verified, 0 failed"
    rows = {line.split()[0]: line.split()[1:] for line in lines[2:]}
    assert list(rows) == ["stone-embedding", "rho-forms", "fan-figures", "enumeration"]
    assert sum(int(r[0]) for r in list(rows.values())[:-1]) == payload["total"]


def test_verify_without_stats_prints_only_the_summary(capsys):
    code, out, _ = run_cli(["verify", "--bound", "2", "--format", "json"], capsys)
    assert code == 0 and "stats" not in json.loads(out)


def unwritable_stdout_cases():
    """(argv, PYTHONUNBUFFERED, stdout) per command and buffering: stdout
    a pipe whose reader is gone, or a full device where there is one."""
    full = pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")
    for name, argv in (("verify", ["verify", "--bound", "2"]),
                       ("analyze", ["analyze", "{space}"])):
        for mode, unbuffered in (("buffered", ""), ("unbuffered", "1")):
            yield pytest.param(argv, unbuffered, "pipe", id=f"{name}-{mode}")
            yield pytest.param(argv, unbuffered, "/dev/full",
                               id=f"{name}-{mode}-dev-full", marks=full)


@pytest.mark.parametrize("argv, unbuffered, stdout", unwritable_stdout_cases())
def test_a_closed_stdout_exits_2_without_a_traceback(argv, unbuffered, stdout, tmp_path):
    space = tmp_path / "omega.json"
    space.write_text(json.dumps({"family": "omega_fans"}))
    src = str(pathlib.Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONUNBUFFERED=unbuffered)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    # the reader is gone before the writer starts, or the device is
    # full, so the first write (or the flush of a buffered stdout) fails
    # every time
    if stdout == "pipe":
        read, write = os.pipe()
        os.close(read)
    else:
        write = os.open(stdout, os.O_WRONLY)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "priestley.cli",
             *(a.format(space=space) for a in argv)],
            stdout=write, stderr=subprocess.PIPE, env=env, text=True, timeout=120)
    finally:
        os.close(write)
    assert proc.returncode == 2, proc.stderr
    assert proc.stderr.startswith("cannot write to stdout:")
    assert len(proc.stderr.splitlines()) == 1, proc.stderr


def test_an_error_raised_by_a_command_is_not_taken_for_a_stdout_error(monkeypatch):
    # only the write of a command's stdout text is an output error: an
    # OSError raised by the computation itself propagates
    def broken(*args, **kwargs):
        raise BrokenPipeError("raised by the checks")

    monkeypatch.setattr(cli, "run_suite", broken)
    with pytest.raises(BrokenPipeError, match="raised by the checks"):
        cli.main(["verify", "--bound", "2"])
