"""Spans and per-layer counters around the package's public functions.

`Tracer.install` replaces every public function of the layer modules,
in every module namespace that binds it, and `GeneratorSet.apply_word`
with a wrapper.  While `enabled` is set, a wrapped call adds to its
function's call count, inclusive time and self time (inclusive minus the
time of wrapped calls made inside it).  Calls into the five upper layers
also leave a span (name, start, end, parent span, op id).  Calls into
the leaf layers `exactlin` and `words` are only aggregated: one pass
makes millions of them, which would not fit in memory as spans.
"""

import functools
import inspect
import time

LAYERS = ("exactlin", "words", "clifford_rep", "basis_builder",
          "lie_algebra", "golden", "cli")
LEAF_LAYERS = ("exactlin", "words")

# (callee, caller): calls of callee made while caller is running.
NESTED = (("words.words_commute", "clifford_rep.find_involution_system"),
          ("exactlin.dot_form", "lie_algebra.compute_table"))


class Tracer:
    def __init__(self):
        self.enabled = False
        self.op_id = None
        self.stats = {}     # name -> [calls, inclusive s, self s]
        self.nested = {pair: 0 for pair in NESTED}
        self.madds = 0      # n * k * m over exactlin.mat_mul calls
        self.cells = 0      # cells returned by lie_algebra.compute_table
        self.spans = []     # [name, start, end, parent index, op id]
        self._active = {}   # name -> open call count
        self._stack = []    # open calls: [child seconds, span index]

    def install(self, modules, extra_namespaces=()):
        """Wrap the public functions of modules, a dict layer -> module."""
        wrapped = {}
        for layer, mod in modules.items():
            for attr, obj in vars(mod).items():
                if (inspect.isfunction(obj) and not attr.startswith("_")
                        and obj.__module__ == mod.__name__):
                    wrapped[obj] = self._wrap("%s.%s" % (layer, attr), obj)
        for ns in list(modules.values()) + list(extra_namespaces):
            for attr, obj in list(vars(ns).items()):
                if inspect.isfunction(obj) and obj in wrapped:
                    setattr(ns, attr, wrapped[obj])
        gens = modules["clifford_rep"].GeneratorSet
        gens.apply_word = self._wrap("clifford_rep.apply_word", gens.apply_word)

    def _wrap(self, name, fn):
        self.stats[name] = [0, 0.0, 0.0]
        self._active[name] = 0
        keep_span = name.split(".")[0] not in LEAF_LAYERS
        nested = [pair for pair in NESTED if pair[0] == name]

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            for pair in nested:
                if self._active[pair[1]]:
                    self.nested[pair] += 1
            if name == "exactlin.mat_mul":
                a, b = args
                self.madds += len(a) * len(b) * (len(b[0]) if b else 0)
            stack = self._stack
            parent = stack[-1][1] if stack else None
            span = parent
            if keep_span:
                span = len(self.spans)
                self.spans.append([name, 0.0, 0.0, parent, self.op_id])
            frame = [0.0, span]
            stack.append(frame)
            self._active[name] += 1
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self._active[name] -= 1
                stack.pop()
                took = end - start
                if stack:
                    stack[-1][0] += took
                entry = self.stats[name]
                entry[0] += 1
                entry[1] += took
                entry[2] += took - frame[0]
                if keep_span:
                    self.spans[span][1] = start
                    self.spans[span][2] = end
            if name == "lie_algebra.compute_table":
                self.cells += len(result.cells)
            return result

        return traced

    def begin_op(self, op_id):
        """Open the benchmark's own span around one op and enable tracing."""
        self.op_id = op_id
        self._stack.append([0.0, len(self.spans)])
        self.spans.append(None)  # filled by end_op
        self.enabled = True

    def end_op(self, kind, start, end):
        self.enabled = False
        frame = self._stack.pop()
        self.spans[frame[1]] = ["op." + kind, start, end, None, self.op_id]

    def layer_values(self):
        """Per-layer numbers of this pass, keyed by metric name."""
        out = {}
        for name, (calls, incl, own) in self.stats.items():
            out[name + ".calls"] = calls
            out[name + ".s"] = incl
            out[name + ".self_s"] = own
        out["exactlin.mat_mul.madds"] = self.madds
        searches = self.stats["clifford_rep.find_involution_system"][0]
        out["clifford_rep.find_involution_system.commute_checks_per_system"] = (
            self.nested[NESTED[0]] / searches if searches else 0)
        out["lie_algebra.compute_table.dot_forms_per_cell"] = (
            self.nested[NESTED[1]] / self.cells if self.cells else 0)
        return out
