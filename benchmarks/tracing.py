"""Wrappers installed from outside the package at each layer boundary.

A wrapper replaces a function under every name the package binds it to
(``priestley.poset.canonical_form`` and ``priestley.oracle.canonical_form``
are the same object, so both are patched), a constructor or a method on
its class, or a value of ``oracle.CHECKS``.  Every wrapper counts calls
and self time, which is its duration minus the durations of wrapped
calls made inside it.  Coarse boundaries also record spans
(name, start, end, parent, run id).  Everything is kept in memory and
written out once, at the end of the run.
"""

from __future__ import annotations

import functools
import json
import sys
from collections import defaultdict
from time import perf_counter

from spec import BOUNDARIES, SPAN_BOUNDARIES, TIMED


class Tracer:
    def __init__(self):
        self.calls = defaultdict(int)
        self.self_s = defaultdict(float)
        self.frames = []           # child time of each open wrapped call
        self.spans = []            # [name, start, end, parent, run_id]
        self.open_spans = []
        self.run_id = None
        self.paused = False        # set while the harness itself calls in
        self.region_inits = 0
        self.tame_results = set()
        self.posets_kept = {}

    # -- spans ------------------------------------------------------------

    def begin(self, name):
        parent = self.open_spans[-1] if self.open_spans else None
        self.spans.append([name, perf_counter(), None, parent, self.run_id])
        self.open_spans.append(len(self.spans) - 1)

    def end(self):
        self.spans[self.open_spans.pop()][2] = perf_counter()

    # -- wrappers ---------------------------------------------------------

    def _timed(self, name, fn, span=False, on_result=None, on_error=None):
        calls, self_s, frames = self.calls, self.self_s, self.frames

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self.paused:
                return fn(*args, **kwargs)
            frame = [0.0]
            frames.append(frame)
            if span:
                self.begin(name)
            label = name
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                if on_error is not None:
                    label = on_error
                raise
            else:
                if on_result is not None:
                    on_result(args, result)
                return result
            finally:
                dur = perf_counter() - t0
                if span:
                    self.end()
                frames.pop()
                calls[label] += 1
                self_s[label] += dur - frame[0]
                if frames:
                    frames[-1][0] += dur

        return wrapper

    def install(self):
        """Patch every boundary; a boundary that cannot be found raises."""
        import importlib

        from priestley import cli, fans, oracle  # noqa: F401  (cli binds names too)

        modules = [
            m for name, m in sys.modules.items()
            if m is not None and (name == "priestley" or name.startswith("priestley."))
        ]
        for base, modname, attr, kind in BOUNDARIES:
            mod = importlib.import_module(f"priestley.{modname}")
            if kind in ("func", "split"):
                orig = getattr(mod, attr)
                if kind == "split":
                    w = self._timed(base + ".accept", orig,
                                    on_error=base + ".reject")
                else:
                    w = self._timed(base, orig, span=base in SPAN_BOUNDARIES,
                                    on_result=self._on_result(base))
                for m in modules:
                    for key, value in list(vars(m).items()):
                        if value is orig:
                            setattr(m, key, w)
            elif kind == "init":
                cls = getattr(mod, attr)
                cls.__init__ = self._timed(base, cls.__init__)
            elif kind == "method":
                owner, meth = attr.split(".")
                if owner == "engines":
                    classes = [
                        c for c in vars(fans).values()
                        if isinstance(c, type) and hasattr(c, "sample_clopen_upsets")
                    ]
                else:
                    classes = [getattr(mod, owner)]
                patched = 0
                for cls in classes:
                    if meth in vars(cls):
                        setattr(cls, meth, self._timed(base, vars(cls)[meth]))
                        patched += 1
                if not patched:
                    raise AttributeError(f"no class defines {attr} for {base}")
            elif kind == "count":
                owner, meth = attr.split(".")
                cls = getattr(mod, owner)
                setattr(cls, meth, self._counter(getattr(cls, meth)))
        for tid, fn in list(oracle.CHECKS.items()):
            oracle.CHECKS[tid] = self._timed(f"oracle.check.{tid}", fn, span=True)

    def _counter(self, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.paused:
                self.region_inits += 1
            return fn(*args, **kwargs)

        return wrapper

    def _on_result(self, base):
        if base == "fans.make_tame":
            return lambda args, result: self.tame_results.add(hash(result))
        if base == "oracle.enumerate_posets":
            def kept(args, result):
                self.posets_kept[args[0]] = len(result)
            return kept
        return None

    # -- results ----------------------------------------------------------

    def layer_metrics(self):
        """calls/self_s per timed boundary, checks and derived ratios.

        A check's time is inclusive; the first check that needs the
        posets also pays for enumerating them (``oracle.enumerate_posets``).
        """
        out = {}
        kept = sum(self.posets_kept.values())
        canon = self.calls["poset.canonical_form"]
        out["oracle.canon_calls_per_poset"] = canon / kept if kept else 0.0
        for name, start, end, _, _ in self.spans:
            if name.startswith("oracle.check."):
                key = "oracle.check_s." + name[len("oracle.check."):]
                out[key] = out.get(key, 0.0) + end - start
        for name in TIMED:
            out[name + ".calls"] = self.calls[name]
            out[name + ".self_s"] = self.self_s[name]
        out["fans.Region.inits"] = self.region_inits
        made = self.calls["fans.make_tame"]
        out["fans.make_tame.distinct_share"] = (
            len(self.tame_results) / made if made else 0.0
        )
        return out

    def write_spans(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(
                [
                    {"name": n, "start": s, "end": e, "parent": p, "run": r}
                    for n, s, e, p, r in self.spans
                ],
                fh,
            )
