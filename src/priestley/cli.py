"""Command-line surface: dualize lattices, analyze spaces, verify theorems.

Exit codes: 0 ok, 1 verification failure, 2 input error (including an
unreadable input, an unwritable output file or a standard output whose
reader is gone), 3 internal assertion (a bug, never expected), 64 usage
error.  Output is deterministic: identical inputs produce byte-identical
reports.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from . import spectrum as sp
from .birkhoff import lattice_from_json, priestley_dual
from .errors import (
    BoundExceeded,
    EmptySelection,
    InternalAssertionError,
    UnknownTheoremId,
    WorkbenchError,
)
from .fans import (
    FAMILIES,
    OMEGA,
    OMEGA_STAR,
    engine_for,
    fan_point,
    fan_star,
    spine_point,
)
from .oracle import DEFAULT_BOUND, DEFAULT_SEED, MAX_BOUND, run_suite, summarize
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
    # ValueError: bad UTF-8 or JSON; RecursionError: nesting too deep
    except (OSError, ValueError, RecursionError) as e:
        print(f"cannot read {path}: {e}", file=sys.stderr)
        raise SystemExit(EXIT_INPUT)


def _write(path, text):
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as e:
        print(f"cannot write {path}: {e}", file=sys.stderr)
        raise SystemExit(EXIT_INPUT)


# ---------------------------------------------------------------------
# DOT rendering
# ---------------------------------------------------------------------


def _dot(nodes, edges):
    """A Hasse diagram in DOT, bottom to top.  Nodes are (id, label,
    in Y_d, in min Y_d): Y_d is filled and min Y_d double-circled.
    Edges are (lower id, upper id) pairs."""
    lines = ["digraph hasse {", "  rankdir=BT;"]
    for node, label, in_yd, in_min_yd in nodes:
        shape = "doublecircle" if in_min_yd else "circle"
        style = "solid,filled" if in_yd else "solid"
        label = label.replace("\\", "\\\\").replace('"', '\\"')
        lines.append(f'  {node} [label="{label}", shape={shape}, style="{style}"];')
    lines += [f"  {a} -> {b};" for a, b in edges]
    lines.append("}")
    return "\n".join(lines) + "\n"


def dot_finite(E):
    """Hasse diagram of the finite engine E's poset (covers only), with
    Y_d and min Y_d read from E."""
    P = E.poset
    yd = sp.yd_set(E)
    myd = sp.min_yd(E)
    nodes = [(f"n{i}", lab, yd >> i & 1, myd >> i & 1)
             for i, lab in enumerate(P.labels)]
    return _dot(nodes, [(f"n{i}", f"n{j}") for i, j in P.covers()])


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

# node -> (label, the point it stands for)
_FAN_DOT_NODES = {
    "fan0": ("x(0,0) ...", fan_point(0, 0)),
    "fan_more": ("x(i,k) ...", fan_point(1, 0)),
    "star0": ("X*(0) ...", fan_star(0)),
    "y0": ("y(0)", spine_point(0)),
    "y_more": ("y(i) ...", spine_point(1)),
    "omega": ("omega", OMEGA),
    "omega_star": ("X_omega*", OMEGA_STAR),
}


def dot_fan(E):
    """Hasse diagram of the fan engine E's family, one node per region
    class, with Y_d and min Y_d read from E."""
    yd = sp.yd_set(E)
    myd = sp.min_yd(E)
    names, edges = _FAN_DOT_EDGES[E.family]
    nodes = []
    for node in names:
        label, pt = _FAN_DOT_NODES[node]
        nodes.append((node, label, yd.member(pt), myd.member(pt)))
    return _dot(nodes, edges)


# ---------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------


def cmd_dual(args):
    obj = _read_json(args.lattice)
    try:
        D = lattice_from_json(obj)
        X = priestley_dual(D)
    except InternalAssertionError as e:
        print(f"internal assertion failed: {e}", file=sys.stderr)
        return EXIT_INTERNAL
    except WorkbenchError as e:
        print(f"invalid lattice: {e}", file=sys.stderr)
        return EXIT_INPUT
    payload = json.dumps(poset_to_json(X), indent=2, sort_keys=True) + "\n"
    if args.out:
        _write(args.out, payload)
    else:
        sys.stdout.write(payload)
    if args.dot:
        _write(args.dot, dot_finite(sp.FiniteEngine(X)))
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
            dot = dot_fan
        elif isinstance(obj, dict) and "points" in obj:
            P = poset_from_json(obj)
            if P.n == 0:
                print("space must have at least one point", file=sys.stderr)
                return EXIT_INPUT
            engine = sp.FiniteEngine(P)
            dot = dot_finite
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
        _write(args.out, out)
    else:
        sys.stdout.write(out)
    if args.dot:
        _write(args.dot, dot(engine))
    return EXIT_OK


def cmd_verify(args):
    only = None
    if args.only is not None:
        only = [t.strip() for t in args.only.split(",") if t.strip()]
    stats = {} if args.stats else None
    try:
        cases = run_suite(only, bound=args.bound, seed=args.seed, stats=stats)
    except BoundExceeded as e:
        print(str(e), file=sys.stderr)
        return EXIT_USAGE
    except EmptySelection as e:
        print(f"--only: {e}", file=sys.stderr)
        return EXIT_USAGE
    except UnknownTheoremId as e:
        print(str(e), file=sys.stderr)
        return EXIT_INPUT
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
        if stats is not None:
            payload["stats"] = stats
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        for c in s["failures"]:
            print(f"FAILED {c.theorem_id} on {c.instance}: {c.witness}")
        print(f"{s['verified']}/{s['total']} cases verified, {s['failed']} failed")
        if stats is not None:
            print(_stats_text(stats))
    return EXIT_OK if s["failed"] == 0 else EXIT_VERIFICATION


def _stats_text(stats):
    """The ``--stats`` table: one row per theorem in run order, then the
    enumeration."""
    rows = [f"{'theorem':<28} {'cases':>6} {'failed':>6} {'seconds':>8}"]
    rows += [f"{tid:<28} {t['cases']:>6} {t['failed']:>6} {t['seconds']:>8.3f}"
             for tid, t in stats["theorems"].items()]
    rows.append(f"{'enumeration':<28} {'':>6} {'':>6} {stats['enumerate_s']:>8.3f}")
    return "\n".join(rows)


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
                       help=f"max poset size (cap {MAX_BOUND})")
    p_ver.add_argument("--only", help="comma-separated theorem ids")
    p_ver.add_argument("--seed", type=int, default=DEFAULT_SEED,
                       help="seed for the deterministic tame samples")
    p_ver.add_argument("--format", choices=("json", "text"), default="text")
    p_ver.add_argument("--stats", action="store_true",
                       help="report cases, failures and seconds per theorem")
    p_ver.set_defaults(fn=cmd_verify)
    return parser


def main(argv=None):
    parser = make_parser()
    args = parser.parse_args(argv)
    try:
        code = args.fn(args)
        sys.stdout.flush()
    except BrokenPipeError as e:
        # the reader of stdout is gone: what is still buffered goes to
        # devnull, so the flush at exit cannot fail again
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        print(f"cannot write to stdout: {e}", file=sys.stderr)
        code = EXIT_INPUT
    sys.exit(code)


if __name__ == "__main__":
    main()
