"""Per-layer tracing of the matrixcode package, installed from outside it.

`Tracer.install` replaces each traced function on every module attribute
through which callers reach it (``interpreter``, ``verifier`` and ``kleene``
import ``image`` by name, so patching ``relations.image`` alone would miss
them), and each traced method on its class.  ``uninstall`` puts the
originals back.  Nothing under ``src/`` is edited.

A "span" layer records one span per call: layer id, parent span, start and
end.  A "count" layer records only how many times it was entered, keyed by
the layer of the span that was open at the time; it is used where a span
would cost more than the work it measures.  Generator functions get one
span per resumption, so their time is charged where it is spent.

Spans are kept in flat arrays in memory.  ``fold`` (called between
operations, when no span is open) computes each span's self time -- its
duration minus the durations of its direct children -- adds it to the
per-layer totals, keeps the first SPANS_KEPT spans for the trace file and
clears the arrays.
"""

from __future__ import annotations

import inspect
import sys
import time
from array import array

# (home module, attribute, kind, patch the home module too)
# Recursive functions (eval_expr, compile_expr, image) are not patched in
# their home module, so only entries from other modules are traced.
LAYERS = [
    ("dsl", "parse", "span", True),
    ("matrix", "validate", "span", True),
    ("matrix", "CodeMatrix.outgoing", "span", True),
    ("values", "copy_state", "span", True),
    ("values", "freeze_state", "span", True),
    ("expr", "eval_expr", "span", False),
    ("expr", "compile_expr", "count", False),
    ("relations", "image", "span", False),
    ("interpreter", "step", "span", True),
    ("interpreter", "run", "span", True),
    ("interpreter", "enumerate_runs", "span", True),
    ("verifier", "enumerate_states", "span", True),
    ("verifier", "Condition.holds_on", "span", True),
    ("verifier", "check_vector", "span", True),
    ("verifier", "completeness", "span", True),
    ("kleene", "tabulate", "span", True),
    ("kleene", "matrix_closure", "span", True),
    ("kleene", "FiniteRelation.then", "count", True),
    ("kleene", "_reachability", "span", True),
    ("kleene", "fsm_language", "span", True),
    ("kleene", "check_identities", "span", True),
]

# per-layer "units": what a call produced, beyond being a call
# (generator layers count one unit per item yielded)
UNITS = {
    "interpreter.step": len,  # transitions taken
    "verifier.holds_on": lambda held: 1 if held is True else 0,
}


SPANS_KEPT = 50_000  # spans written to the trace file


def layer_name(module, attr):
    return "%s.%s" % (module, attr.split(".")[-1])


class Tracer:
    def __init__(self):
        self.layers = [layer_name(mod, attr) for mod, attr, _k, _o in LAYERS]
        n = len(self.layers)
        self.calls = [0] * n
        self.self_ns = [0] * n
        self.units = [0] * n
        self.entered_from = {}  # (layer id, parent layer id or -1) -> calls
        self._name = array("i")
        self._parent = array("i")
        self._start = array("q")
        self._end = array("q")
        self._stack = [-1]
        self._t0 = time.perf_counter_ns()
        self.kept = []  # (layer, parent index, start ns, duration ns, self ns)
        self.spans_seen = 0
        self._patches = []

    # -- installing -----------------------------------------------------------
    def install(self, package):
        """Wrap every traced layer of the freshly imported package."""
        prefix = package.__name__
        modules = [m for name, m in sorted(sys.modules.items())
                   if m is not None and (name == prefix or name.startswith(prefix + "."))]
        for lid, (mod, attr, kind, own) in enumerate(LAYERS):
            home = sys.modules["%s.%s" % (prefix, mod)]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(home, cls_name)
                fn = cls.__dict__[meth]
                self._patch(cls, meth, self._wrap(fn, lid, kind))
                continue
            fn = getattr(home, attr)
            wrapper = self._wrap(fn, lid, kind)
            for m in modules:
                if m is home and not own:
                    continue
                for key, value in list(vars(m).items()):
                    if value is fn:
                        self._patch(m, key, wrapper)

    def _patch(self, owner, key, wrapper):
        self._patches.append((owner, key, getattr(owner, key)))
        setattr(owner, key, wrapper)

    def uninstall(self):
        for owner, key, original in reversed(self._patches):
            setattr(owner, key, original)
        self._patches = []

    def _wrap(self, fn, lid, kind):
        names, parents, starts, ends = self._name, self._parent, self._start, self._end
        stack, units, calls, entered = self._stack, self.units, self.calls, self.entered_from
        measure = UNITS.get(self.layers[lid])
        clock = time.perf_counter_ns

        if kind == "count":
            def counted(*args, **kwargs):
                top = stack[-1]
                key = (lid, names[top] if top >= 0 else -1)
                entered[key] = entered.get(key, 0) + 1
                calls[lid] += 1
                return fn(*args, **kwargs)
            return counted

        def open_span():
            idx = len(names)
            names.append(lid)
            parents.append(stack[-1])
            starts.append(0)
            ends.append(0)
            stack.append(idx)
            return idx

        if inspect.isgeneratorfunction(fn):
            def resumed(*args, **kwargs):
                it = fn(*args, **kwargs)
                while True:
                    idx = open_span()
                    t0 = clock()
                    try:
                        item = next(it)
                    except StopIteration:
                        return
                    finally:
                        ends[idx] = clock()
                        starts[idx] = t0
                        stack.pop()
                    units[lid] += 1
                    yield item
            return resumed

        def spanned(*args, **kwargs):
            idx = open_span()
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                starts[idx] = t0
                stack.pop()
            if measure is not None:
                units[lid] += measure(result)
            return result
        return spanned

    # -- folding spans into per-layer totals --------------------------------------
    def fold(self):
        """Self times and call counts from the spans recorded since the last
        fold.  Call only when no traced call is in progress."""
        names, parents, starts, ends = self._name, self._parent, self._start, self._end
        n = len(names)
        dur = [e - s for s, e in zip(starts, ends)]
        child = [0] * n
        for i, p in enumerate(parents):
            if p >= 0:
                child[p] += dur[i]
        calls, self_ns, entered = self.calls, self.self_ns, self.entered_from
        for i, lid in enumerate(names):
            calls[lid] += 1
            self_ns[lid] += dur[i] - child[i]
            p = parents[i]
            key = (lid, names[p] if p >= 0 else -1)
            entered[key] = entered.get(key, 0) + 1
        room = SPANS_KEPT - len(self.kept)
        if room > 0:
            base = self.spans_seen
            for i in range(min(room, n)):
                p = parents[i]
                self.kept.append((names[i], base + p if p >= 0 else -1,
                                  starts[i] - self._t0, dur[i], dur[i] - child[i]))
        self.spans_seen += n
        for arr in (names, parents, starts, ends):
            del arr[:]

    def snapshot(self):
        """Copy of the running totals, for per-round differences."""
        return {
            "calls": list(self.calls),
            "self_ns": list(self.self_ns),
            "units": list(self.units),
            "entered": dict(self.entered_from),
        }

    def write(self, path, header):
        """Write the kept spans as tab-separated lines, times in microseconds."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("# %s\n" % header)
            fh.write("# spans kept %d of %d recorded\n" % (len(self.kept), self.spans_seen))
            fh.write("span\tparent\tlayer\tstart_us\tdur_us\tself_us\n")
            for i, (lid, parent, start, dur, own) in enumerate(self.kept):
                fh.write("%d\t%d\t%s\t%.3f\t%.3f\t%.3f\n" % (
                    i, parent, self.layers[lid], start / 1e3, dur / 1e3, own / 1e3))


def round_delta(before, after):
    """Per-round totals: the difference of two snapshots."""
    return {
        "calls": [b - a for a, b in zip(before["calls"], after["calls"])],
        "self_ns": [b - a for a, b in zip(before["self_ns"], after["self_ns"])],
        "units": [b - a for a, b in zip(before["units"], after["units"])],
        "entered": {k: v - before["entered"].get(k, 0)
                    for k, v in after["entered"].items()},
    }
