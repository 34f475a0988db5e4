"""Command-line surface: dualize lattices, analyze spaces, verify theorems.

Exit codes: 0 ok, 1 verification failure, 2 input error, 3 internal
assertion (a bug, never expected), 64 usage error.  Output is
deterministic: identical inputs produce byte-identical reports.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import spectrum as sp
from .birkhoff import lattice_from_json, priestley_dual
from .errors import (
    BoundExceeded,
    InternalAssertionError,
    UnknownTheoremId,
    WorkbenchError,
)
from .fans import FAMILIES, engine_for
from .oracle import DEFAULT_BOUND, run_suite, summarize
from .poset import poset_from_json, poset_to_json

EXIT_OK = 0
EXIT_VERIFICATION = 1
EXIT_INPUT = 2
EXIT_INTERNAL = 3
EXIT_USAGE = 64


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def _read_json(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, json.JSONDecodeError) as e:
        print(f"cannot read {path}: {e}", file=sys.stderr)
        raise SystemExit(EXIT_INPUT)


# ---------------------------------------------------------------------
# DOT rendering
# ---------------------------------------------------------------------


def dot_finite(P, engine=None):
    """Hasse diagram (covers only); localic points, Y_d, and min Y_d get
    distinct node styles."""
    E = engine or sp.FiniteEngine(P)
    yd = sp.yd_set(E)
    myd = sp.min_yd(E)
    lines = ["digraph hasse {", "  rankdir=BT;"]
    for i, lab in enumerate(P.labels):
        style = ["solid"]
        shape = "circle"
        if yd >> i & 1:
            style.append("filled")
        if myd >> i & 1:
            shape = "doublecircle"
        lines.append(
            f'  n{i} [label="{lab}", shape={shape}, style="{",".join(style)}"];'
        )
    for i, j in P.covers():
        lines.append(f"  n{i} -> n{j};")
    lines.append("}")
    return "\n".join(lines) + "\n"


_FAN_DOT_EDGES = {
    # one representative node per region class, ellipsis markers for the
    # repeated classes
    "bare_fan": (
        ["fan0", "fan_more", "star0"], [],
    ),
    "fan_plus_bottom": (
        ["fan0", "fan_more", "star0", "y0"],
        [("y0", "fan0"), ("y0", "fan_more"), ("y0", "star0")],
    ),
    "omega_fans": (
        ["fan0", "fan_more", "star0", "y0", "y_more", "omega", "omega_star"],
        [("y0", "fan0"), ("y0", "fan_more"), ("y0", "star0"),
         ("y0", "omega"), ("y_more", "omega"), ("omega", "omega_star")],
    ),
    "chain_fans": (
        ["fan0", "fan_more", "star0", "y0", "y_more", "omega", "omega_star"],
        [("y0", "fan0"), ("y0", "fan_more"), ("y0", "star0"),
         ("y_more", "y0"), ("omega", "y_more"), ("omega", "omega_star")],
    ),
}

_FAN_DOT_LABEL = {
    "fan0": "x(0,0) ...", "fan_more": "x(i,k) ...", "star0": "X*(0) ...",
    "y0": "y(0)", "y_more": "y(i) ...", "omega": "omega",
    "omega_star": "X_omega*",
}


def dot_fan(family):
    E = engine_for(family)
    yd = sp.yd_set(E)
    myd = sp.min_yd(E)
    from .fans import OMEGA, OMEGA_STAR, fan_point, fan_star, spine_point

    rep = {
        "fan0": fan_point(0, 0), "fan_more": fan_point(1, 0),
        "star0": fan_star(0), "y0": spine_point(0), "y_more": spine_point(1),
        "omega": OMEGA, "omega_star": OMEGA_STAR,
    }
    nodes, edges = _FAN_DOT_EDGES[family]
    lines = ["digraph hasse {", "  rankdir=BT;"]
    for node in nodes:
        pt = rep[node]
        style = ["solid"]
        shape = "circle"
        if E.contains(yd, pt):
            style.append("filled")
        if E.contains(myd, pt):
            shape = "doublecircle"
        lines.append(
            f'  {node} [label="{_FAN_DOT_LABEL[node]}", shape={shape}, '
            f'style="{",".join(style)}"];'
        )
    for a, b in edges:
        lines.append(f"  {a} -> {b};")
    lines.append("}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------


def cmd_dual(args):
    obj = _read_json(args.lattice)
    try:
        D = lattice_from_json(obj)
        X = priestley_dual(D)
    except WorkbenchError as e:
        print(f"invalid lattice: {e}", file=sys.stderr)
        return EXIT_INPUT
    payload = json.dumps(poset_to_json(X), indent=2, sort_keys=True) + "\n"
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(payload)
    else:
        sys.stdout.write(payload)
    if args.dot:
        with open(args.dot, "w", encoding="utf-8") as fh:
            fh.write(dot_finite(X))
    return EXIT_OK


def cmd_analyze(args):
    obj = _read_json(args.space)
    try:
        if isinstance(obj, dict) and "family" in obj:
            family = obj["family"]
            if family not in FAMILIES:
                print(f"unknown family {family!r}", file=sys.stderr)
                return EXIT_INPUT
            engine = engine_for(family)
            dot = lambda: dot_fan(family)
        elif isinstance(obj, dict) and "points" in obj:
            P = poset_from_json(obj)
            if P.n == 0:
                print("space must have at least one point", file=sys.stderr)
                return EXIT_INPUT
            engine = sp.FiniteEngine(P)
            dot = lambda: dot_finite(P, engine)
        else:
            print("space JSON needs 'family' or 'points'", file=sys.stderr)
            return EXIT_INPUT
    except WorkbenchError as e:
        print(f"invalid space: {e}", file=sys.stderr)
        return EXIT_INPUT
    try:
        report = sp.spectrum_report(engine)
    except InternalAssertionError as e:
        print(f"internal assertion failed: {e}", file=sys.stderr)
        return EXIT_INTERNAL
    if args.format == "json":
        out = json.dumps(report.to_json_dict(), indent=2, sort_keys=True) + "\n"
    else:
        out = report.to_text() + "\n"
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(out)
    else:
        sys.stdout.write(out)
    if args.dot:
        with open(args.dot, "w", encoding="utf-8") as fh:
            fh.write(dot())
    return EXIT_OK


def cmd_verify(args):
    if args.bound > DEFAULT_BOUND:
        print(
            f"bound {args.bound} exceeds the configured cap {DEFAULT_BOUND}",
            file=sys.stderr,
        )
        return EXIT_USAGE
    only = None
    if args.only:
        only = [t.strip() for t in args.only.split(",") if t.strip()]
    try:
        cases = run_suite(only, bound=args.bound, seed=args.seed)
    except UnknownTheoremId as e:
        print(str(e), file=sys.stderr)
        return EXIT_INPUT
    except BoundExceeded as e:  # pragma: no cover - guarded above
        print(str(e), file=sys.stderr)
        return EXIT_USAGE
    s = summarize(cases)
    if args.format == "json":
        payload = {
            "total": s["total"],
            "verified": s["verified"],
            "failed": s["failed"],
            "failures": [
                {"theorem": c.theorem_id, "instance": c.instance,
                 "witness": c.witness}
                for c in s["failures"]
            ],
        }
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        for c in s["failures"]:
            print(f"FAILED {c.theorem_id} on {c.instance}: {c.witness}")
        print(f"{s['verified']}/{s['total']} cases verified, {s['failed']} failed")
    return EXIT_OK if s["failed"] == 0 else EXIT_VERIFICATION


def make_parser():
    parser = _Parser(prog="workbench",
                     description="Priestley duality and d-spectrum workbench")
    subs = parser.add_subparsers(dest="command", required=True)

    p_dual = subs.add_parser("dual", help="Priestley dual of a lattice")
    p_dual.add_argument("lattice", help="lattice JSON file")
    p_dual.add_argument("--out", help="write the dual poset JSON here")
    p_dual.add_argument("--dot", help="write a Hasse diagram in DOT format")
    p_dual.set_defaults(fn=cmd_dual)

    p_an = subs.add_parser("analyze", help="d-spectrum report of a space")
    p_an.add_argument("space", help="poset JSON or fan descriptor JSON")
    p_an.add_argument("--format", choices=("json", "text"), default="text")
    p_an.add_argument("--out", help="write the report here instead of stdout")
    p_an.add_argument("--dot", help="write a Hasse diagram in DOT format")
    p_an.set_defaults(fn=cmd_analyze)

    p_ver = subs.add_parser("verify", help="run the theorem suite")
    p_ver.add_argument("--bound", type=int, default=DEFAULT_BOUND,
                       help=f"max poset size (cap {DEFAULT_BOUND})")
    p_ver.add_argument("--only", help="comma-separated theorem ids")
    p_ver.add_argument("--seed", type=int, default=2024,
                       help="seed for the deterministic tame samples")
    p_ver.add_argument("--format", choices=("json", "text"), default="text")
    p_ver.set_defaults(fn=cmd_verify)
    return parser


def main(argv=None):
    parser = make_parser()
    args = parser.parse_args(argv)
    sys.exit(args.fn(args))


if __name__ == "__main__":
    main()
