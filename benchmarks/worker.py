"""One worker process of the benchmark; prints one JSON line when done.

Modes:

``setup``
    time ``import priestley`` in this fresh interpreter.
``verify-pass``
    one ``workbench verify --format json --bound B`` pass through
    ``cli.main``.
``symbolic-sweep`` / ``duality``
    rounds of the workload until ``--seconds`` have passed, or exactly
    ``--rounds`` rounds.

Every operation is checked against the known answers in :mod:`checks`
outside its timed region.  ``--trace PATH`` installs the wrappers of
:mod:`tracing` first and writes the spans to PATH.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import resource
import sys
import time
from array import array
from collections import Counter, defaultdict
from time import perf_counter

import checks
import inputs
from spec import THEOREM_IDS

FAMILIES = ("bare_fan", "fan_plus_bottom", "omega_fans", "chain_fans")
# The single-fan samplers have about 1.6k distinct outputs in all, too
# few to keep every sample of a run distinct, so the d-law battery runs
# on the two multi-fan families; the reports cover all four.
BATTERY_FAMILIES = ("omega_fans", "chain_fans")
SAMPLES_PER_ROUND = 8
SAMPLE_BATCH = 40


def rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


class Run:
    """Operation timings, verdicts and spans of one worker.

    Timings go into ``array('d')`` so that the worker's own memory
    barely grows with the number of operations: ``peak_rss_mb`` should
    not rise when the program gets faster and a run does more.
    """

    def __init__(self, tracer):
        self.tracer = tracer
        self.ops = defaultdict(lambda: array("d"))
        self.attempted = 0
        self.failures = []

    @contextlib.contextmanager
    def op(self, kind, run_id):
        if self.tracer is not None:
            self.tracer.run_id = run_id
            self.tracer.begin(f"bench.{kind}")
        t0 = perf_counter()
        try:
            yield
        finally:
            self.ops[kind].append(perf_counter() - t0)
            if self.tracer is not None:
                self.tracer.end()

    @contextlib.contextmanager
    def untraced(self):
        """Calls the harness makes into the package to build inputs or
        check answers; the traced run leaves them out of its counts."""
        if self.tracer is None:
            yield
            return
        self.tracer.paused = True
        try:
            yield
        finally:
            self.tracer.paused = False

    def verdict(self, run_id, reason):
        self.attempted += 1
        if reason is not None:
            self.failures.append(f"{run_id}: {reason}")


# ---------------------------------------------------------------------
# verify-b5, verify-b6
# ---------------------------------------------------------------------


def verify_pass(args, run):
    from priestley import cli, oracle

    captured = {}
    run_suite = cli.run_suite

    def recording_run_suite(*a, **k):
        captured["cases"] = run_suite(*a, **k)
        return captured["cases"]

    cli.run_suite = recording_run_suite
    # Seconds in poset enumeration (cold on the first call of each size)
    # and in the registry checks, the enumeration they trigger excluded.
    spent = {"enumerate": 0.0, "checks": 0.0}
    inside = []

    def timed(key, fn):
        def wrapper(*a, **k):
            inside.append(key)
            t0 = perf_counter()
            try:
                return fn(*a, **k)
            finally:
                dt = perf_counter() - t0
                inside.pop()
                spent[key] += dt
                if inside:
                    spent[inside[-1]] -= dt
        return wrapper

    oracle.enumerate_posets = timed("enumerate", oracle.enumerate_posets)
    for tid, fn in list(oracle.CHECKS.items()):
        oracle.CHECKS[tid] = timed("checks", fn)
    out = io.StringIO()
    code = 0
    with run.op("verify", "pass"), contextlib.redirect_stdout(out):
        try:
            cli.main(["verify", "--format", "json", "--bound", str(args.bound),
                      "--seed", str(args.seed)])
        except SystemExit as e:
            code = e.code
    end_stamp = time.monotonic()

    expected = checks.expected_case_counts(THEOREM_IDS, args.bound)
    total = sum(expected.values())
    reason = None
    try:
        payload = json.loads(out.getvalue())
    except ValueError:
        payload = None
    counts = Counter(c.theorem_id for c in captured.get("cases", ()))
    sizes = tuple(len(oracle._POSET_MEMO.get(n, ())) for n in range(1, args.bound + 1))
    oeis = checks.A000112[1:args.bound + 1]
    if code != 0:
        reason = f"verify exited with {code}"
    elif payload is None:
        reason = "verify printed no JSON summary"
    elif (payload["total"], payload["verified"], payload["failed"]) != (total, total, 0):
        reason = (f"summary total={payload['total']} verified={payload['verified']} "
                  f"failed={payload['failed']}, expected {total} all verified")
    elif dict(counts) != expected:
        diff = {t: (counts.get(t, 0), expected.get(t, 0))
                for t in set(counts) | set(expected)
                if counts.get(t, 0) != expected.get(t, 0)}
        reason = f"cases per theorem (got, expected): {diff}"
    elif sizes != oeis:
        reason = f"posets per size {sizes}, OEIS A000112 gives {oeis}"
    run.verdict("pass", reason)
    return {"end_stamp": end_stamp, "enumerate_s": spent["enumerate"],
            "checks_s": spent["checks"]}


# ---------------------------------------------------------------------
# symbolic-sweep
# ---------------------------------------------------------------------


def battery(sp, E, nd, u, prev):
    """The d-law battery on one clopen upset u (prev: the sample before)."""
    du = sp.d_apply(E, u)
    if not sp.subset(E, u, du):
        return "d is not inflationary"
    if sp.d_apply(E, du) != du:
        return "d is not idempotent"
    if du != E.diff(E.full, E.down(E.diff(nd, u))):
        return "dU differs from X \\ down(N_d \\ U)"
    scott = E.clop_sup_test(u)
    if scott != sp.scott_upset_flag(E, u):
        return "clop_sup_test disagrees with scott_upset_flag"
    if scott and du != sp.double_neg(E, u):
        return "dU != U** on a Scott upset"
    if prev is not None:
        if sp.d_apply(E, E.meet(u, prev)) != E.meet(du, sp.d_apply(E, prev)):
            return "d does not preserve the meet with the previous sample"
    return None


class Sampler:
    """Seeded ``sample_clopen_upsets`` draws, distinct over the whole run.

    Samples already drawn are remembered in a fixed bitset of their
    hashes, touched in full up front, so the worker's memory stays flat;
    a hash collision only skips a sample.
    """

    SEEN_BITS = 1 << 23

    def __init__(self, seed, family):
        self.seed = seed
        self.family = family
        self.batches = 0
        self.drawn = 0
        self.distinct = 0
        self.seen = bytearray(self.SEEN_BITS // 8)
        for i in range(0, len(self.seen), 4096):
            self.seen[i] = 0
        self.pending = []

    def take(self, E, count):
        idle = 0
        while len(self.pending) < count:
            digest = hashlib.sha256(
                f"sweep:{self.seed}:{self.family}:{self.batches}".encode()
            ).digest()
            self.batches += 1
            fresh = 0
            for u in E.sample_clopen_upsets(SAMPLE_BATCH, seed=int.from_bytes(digest[:8], "big")):
                self.drawn += 1
                h = hash(u) % self.SEEN_BITS
                if not self.seen[h >> 3] >> (h & 7) & 1:
                    self.seen[h >> 3] |= 1 << (h & 7)
                    self.distinct += 1
                    self.pending.append(u)
                    fresh += 1
            idle = 0 if fresh else idle + 1
            if idle > 50:
                raise RuntimeError(f"{self.family} sampler is exhausted")
        out, self.pending = self.pending[:count], self.pending[count:]
        return out


def symbolic_sweep(args, run):
    from priestley import spectrum as sp
    from priestley.fans import engine_for

    samplers = {f: Sampler(args.seed, f) for f in BATTERY_FAMILIES}
    previous = dict.fromkeys(BATTERY_FAMILIES)
    first_text = {}
    start = perf_counter()
    r = 0
    while _more(args, r, start):
        engines = {}
        for family in FAMILIES:
            rid = f"r{r}.report.{family}"
            with run.op(f"analyze.{family}", rid):
                E = engine_for(family)
                text = json.dumps(sp.spectrum_report(E).to_json_dict(),
                                  indent=2, sort_keys=True)
            engines[family] = E
            if first_text.setdefault(family, text) != text:
                run.verdict(rid, "report JSON differs from the first repeat")
            else:
                run.verdict(rid, checks.check_report(family, json.loads(text)))
        for family in BATTERY_FAMILIES:
            E = engines[family]
            with run.untraced():
                nd = sp.nd_set(E)
            for k, u in enumerate(samplers[family].take(E, SAMPLES_PER_ROUND)):
                rid = f"r{r}.sample.{family}.{k}"
                with run.op(f"battery.{family}", rid):
                    reason = battery(sp, E, nd, u, previous[family])
                run.verdict(rid, reason)
                previous[family] = u
        r += 1
    drawn = sum(s.drawn for s in samplers.values())
    distinct = sum(s.distinct for s in samplers.values())
    return {"rounds": r, "inputs": {
        "distinct_sample_share": distinct / drawn if drawn else 0.0,
        "samples_drawn": drawn,
    }}


# ---------------------------------------------------------------------
# duality
# ---------------------------------------------------------------------


def _dual(run, kind, rid, lat):
    import priestley as pr

    try:
        with run.op(kind, rid):
            D = pr.lattice_from_json(lat.json)
            X = pr.priestley_dual(D)
            dual_json = pr.poset_to_json(X)
            stones = [pr.stone_map(D, a) for a in range(D.n)]
    except Exception as e:  # a wrong verdict, recorded, not a crash
        run.verdict(rid, f"accept path raised {type(e).__name__}: {e}")
        return
    labels = {
        D.labels[a]: {X.labels[i] for i in s.members} for a, s in enumerate(stones)
    }
    run.verdict(rid, checks.check_dual(lat, dual_json, labels))


def _reject(run, rid, obj, expected, witness):
    import priestley as pr

    error = None
    with run.op("reject", rid):
        try:
            pr.lattice_from_json(obj)
        except Exception as e:  # the class is the verdict under test
            error = e
    run.verdict(rid, checks.check_reject(error, expected, witness))


def _mask(members):
    return sum(1 << i for i in members)


def _nuclei(run, rid, up):
    import priestley as pr
    from priestley.nuclei import all_nuclei

    n = len(up)
    labels = [f"x{i}" for i in range(n)]
    with run.untraced():
        P = pr.build_poset(labels, [
            (labels[i], labels[j]) for i in range(n) for j in inputs.bits(up[i]) if j != i
        ])
    found = []
    try:
        with run.op(f"nuclei.{n}", rid):
            for j in all_nuclei(P):
                found.append((j, pr.nuclear_of_nucleus(j), pr.admissible_upset(j),
                              pr.density_check(j)))
            fix = pr.booleanization(P)
    except Exception as e:  # a wrong verdict, recorded, not a crash
        run.verdict(rid, f"nuclei path raised {type(e).__name__}: {e}")
        return 0
    ups = inputs.upsets(up)
    with run.untraced():
        results = [
            ({u: _mask(j(frozenset(inputs.bits(u)))) for u in ups},
             _mask(N.members), _mask(adm), dens)
            for j, N, adm, dens in found
        ]
    run.verdict(rid, checks.check_nuclei(up, results, [_mask(u) for u in fix]))
    return len(found)


def duality(args, run):
    sizes = Counter()
    nuclei = 0
    start = perf_counter()
    r = 0
    while _more(args, r, start):
        accept, reject, boolean, spaces = inputs.duality_round(args.seed, r)
        for k, lat in enumerate(accept):
            _dual(run, f"accept.{lat.size}", f"r{r}.accept.{k}", lat)
            sizes[lat.size] += 1
        for k, (kind, obj, expected, witness) in enumerate(reject):
            _reject(run, f"r{r}.reject.{k}.{kind}", obj, expected, witness)
        if boolean is not None:
            _dual(run, "bool128", f"r{r}.bool128", boolean)
            sizes[boolean.size] += 1
        for k, up in enumerate(spaces):
            nuclei += _nuclei(run, f"r{r}.nuclei.{k}", up)
        r += 1
    lattices = sum(sizes.values()) + len(run.ops["reject"])
    return {"rounds": r, "nuclei": nuclei, "inputs": {
        "lattice_sizes": {str(k): v for k, v in sorted(sizes.items())},
        "reject_share": len(run.ops["reject"]) / lattices,
    }}


def _more(args, r, start):
    if args.rounds is not None:
        return r < args.rounds
    return r == 0 or perf_counter() - start < args.seconds


# ---------------------------------------------------------------------


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("mode", choices=("setup", "verify-pass", "symbolic-sweep", "duality"))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=1.0)
    ap.add_argument("--rounds", type=int)
    ap.add_argument("--bound", type=int, help="verify bound of a verify-pass")
    ap.add_argument("--trace")
    args = ap.parse_args(argv)
    if sys.flags.optimize:
        print("refusing to run under -O: nuclei.py checks its laws with assert",
              file=sys.stderr)
        return 2
    if args.mode == "setup":
        t0 = perf_counter()
        import priestley
        import_s = perf_counter() - t0
        print(json.dumps({"import_s": import_s, "file": priestley.__file__}))
        return 0

    import priestley
    tracer = None
    if args.trace:
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()
    run = Run(tracer)
    fn = {"verify-pass": verify_pass, "symbolic-sweep": symbolic_sweep,
          "duality": duality}[args.mode]
    extra = fn(args, run)
    result = {
        "file": priestley.__file__,
        "rss_mb": rss_mb(),
        "ops": {kind: list(times) for kind, times in run.ops.items()},
        "attempted": run.attempted,
        "failures": run.failures,
        **extra,
    }
    if tracer is not None:
        result["layers"] = tracer.layer_metrics()
        tracer.write_spans(args.trace)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
