"""Command-line surface: dualize lattices, analyze spaces, verify theorems.

Exit codes: 0 ok, 1 verification failure, 2 input error (including an
unreadable input, an unwritable output file or an unwritable standard
output), 3 internal assertion (a bug, never expected), 64 usage error.
Output is deterministic: identical inputs produce byte-identical
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
    NotRepresentable,
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
from .poset import FinitePoset, _mask, poset_from_json, poset_to_json

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


def _fail(code, message):
    print(message, file=sys.stderr)
    raise SystemExit(code)


def _read_json(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    # ValueError: bad UTF-8 or JSON; RecursionError: nesting too deep
    except (OSError, ValueError, RecursionError) as e:
        _fail(EXIT_INPUT, f"cannot read {path}: {e}")


def _write(path, text):
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as e:
        _fail(EXIT_INPUT, f"cannot write {path}: {e}")


# ---------------------------------------------------------------------
# DOT rendering
# ---------------------------------------------------------------------


def dot(E, nodes):
    """A Hasse diagram of the engine E in DOT, bottom to top, read from
    the engine contract alone.  ``nodes`` lists (id, label, point); a
    point E does not have is left out.  The edges are the covers of the
    order E induces on the points kept (a relation that is no order is
    rejected there), Y_d is filled and min Y_d double-circled."""
    kept = []
    for node, label, pt in nodes:
        try:
            kept.append((node, label, E.point_set(pt)))
        except NotRepresentable:
            pass
    sets = [s for _, _, s in kept]
    order = FinitePoset([node for node, _, _ in kept], [
        _mask(j for j, t in enumerate(sets) if sp.subset(E, t, up)) for up in map(E.up, sets)])
    yd = sp.yd_set(E)
    myd = sp.min_yd(E)
    lines = ["digraph hasse {", "  rankdir=BT;"]
    for node, label, s in kept:
        shape = "doublecircle" if sp.subset(E, s, myd) else "circle"
        style = "solid,filled" if sp.subset(E, s, yd) else "solid"
        label = label.replace("\\", "\\\\").replace('"', '\\"')
        lines.append(f'  {node} [label="{label}", shape={shape}, style="{style}"];')
    lines += [f"  {order.labels[i]} -> {order.labels[j]};" for i, j in order.covers()]
    lines.append("}")
    return "\n".join(lines) + "\n"


def _finite_nodes(P):
    return [(f"n{i}", label, i) for i, label in enumerate(P.labels)]


# one node per region class of a fan space, with ellipsis markers for
# the repeated classes; x(0,1) stands for a fan point above y(0) other
# than x(0,0)
_FAN_NODES = (
    ("fan0", "x(0,0) ...", fan_point(0, 0)),
    ("fan_more", "x(i,k) ...", fan_point(0, 1)),
    ("star0", "X*(0) ...", fan_star(0)),
    ("y0", "y(0)", spine_point(0)),
    ("y_more", "y(i) ...", spine_point(1)),
    ("omega", "omega", OMEGA),
    ("omega_star", "X_omega*", OMEGA_STAR),
)


# ---------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------


def cmd_dual(args):
    obj = _read_json(args.lattice)
    try:
        D = lattice_from_json(obj)
        X = priestley_dual(D)
    except InternalAssertionError as e:
        _fail(EXIT_INTERNAL, f"internal assertion failed: {e}")
    except WorkbenchError as e:
        _fail(EXIT_INPUT, f"invalid lattice: {e}")
    out = json.dumps(poset_to_json(X), indent=2, sort_keys=True) + "\n"
    if args.out:
        _write(args.out, out)
        out = ""
    if args.dot:
        _write(args.dot, dot(sp.FiniteEngine(X), _finite_nodes(X)))
    return EXIT_OK, out


def cmd_analyze(args):
    obj = _read_json(args.space)
    try:
        if isinstance(obj, dict) and "family" in obj:
            family = obj["family"]
            if family not in FAMILIES:
                _fail(EXIT_INPUT, f"unknown family {family!r}")
            engine = engine_for(family)
            nodes = _FAN_NODES
        elif isinstance(obj, dict) and "points" in obj:
            P = poset_from_json(obj)
            if P.n == 0:
                _fail(EXIT_INPUT, "space must have at least one point")
            engine = sp.FiniteEngine(P)
            nodes = _finite_nodes(P)
        else:
            _fail(EXIT_INPUT, "space JSON needs 'family' or 'points'")
    except WorkbenchError as e:
        _fail(EXIT_INPUT, f"invalid space: {e}")
    try:
        report = sp.spectrum_report(engine)
    except InternalAssertionError as e:
        _fail(EXIT_INTERNAL, f"internal assertion failed: {e}")
    if args.format == "json":
        out = json.dumps(report.to_json_dict(), indent=2, sort_keys=True) + "\n"
    else:
        out = report.to_text() + "\n"
    if args.out:
        _write(args.out, out)
        out = ""
    if args.dot:
        _write(args.dot, dot(engine, nodes))
    return EXIT_OK, out


def cmd_verify(args):
    only = None
    if args.only is not None:
        only = [t.strip() for t in args.only.split(",") if t.strip()]
    stats = {} if args.stats else None
    try:
        cases = run_suite(only, bound=args.bound, seed=args.seed, stats=stats)
    except BoundExceeded as e:
        _fail(EXIT_USAGE, str(e))
    except EmptySelection as e:
        _fail(EXIT_USAGE, f"--only: {e}")
    except UnknownTheoremId as e:
        _fail(EXIT_INPUT, str(e))
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
        lines = [json.dumps(payload, indent=2, sort_keys=True)]
    else:
        lines = [f"FAILED {c.theorem_id} on {c.instance}: {c.witness}"
                 for c in s["failures"]]
        lines.append(f"{s['verified']}/{s['total']} cases verified, {s['failed']} failed")
        if stats is not None:
            lines.append(_stats_text(stats))
    code = EXIT_OK if s["failed"] == 0 else EXIT_VERIFICATION
    return code, "\n".join(lines) + "\n"


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
    # each command returns its exit code and its stdout text, which is
    # written here only: a failed write (a reader gone, a full device)
    # is an output error, and one raised by the computation is not
    code, out = args.fn(args)
    try:
        sys.stdout.write(out)
        sys.stdout.flush()
    except OSError as e:
        # what is still buffered goes to devnull, so the flush at exit
        # cannot fail again
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        print(f"cannot write to stdout: {e}", file=sys.stderr)
        code = EXIT_INPUT
    sys.exit(code)


if __name__ == "__main__":
    main()
