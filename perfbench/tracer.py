"""Per-layer tracing done from the benchmark's side.

The program is not edited.  Instead, each function of a package layer is
replaced, in the namespace where its caller looks it up, by a wrapper that
times the call.  Two kinds of record are kept:

* spans, one per call, for calls that happen a bounded number of times per
  operation (``extend_action``, ``pre_post_form``, ``load_json`` ...);
* counters with summed time, for calls made inside hot loops
  (``herm_eig`` once per solver iteration, ``apply_choi``,
  ``span_membership``, ``partial_trace``, ``apply_superchannel``).

Both kinds share one stack, so each layer's self time (its calls' duration
minus the time of wrapped calls made from inside them) is exact whatever the
mix.  Spans are recorded when the call exits and are written out once, when
the benchmark ends.

Tiny helpers (``frob``, ``vec``, ``matrix_unit``, ``is_hermitian`` ...) are
not wrapped: their run time is close to a wrapper's own cost, so their time
is counted as self time of the layer that calls them.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict, namedtuple

LAYERS = ("linalg", "channels", "opsys", "supermaps", "extend",
          "feasibility", "extremal", "serialize", "cli")

# Called inside per-iteration or per-basis-element loops: counted, not spanned.
HOT = frozenset({"linalg.herm_eig", "linalg.partial_trace", "channels.apply_choi",
                 "opsys.span_membership", "supermaps.apply_superchannel"})

# Cost comparable to a wrapper; left to the caller's self time.
HELPERS = frozenset({"linalg.vec", "linalg.unvec", "linalg.frob", "linalg.rel_scale",
                     "linalg.matrix_unit", "linalg.matrix_units", "linalg.is_hermitian",
                     "linalg.require_hermitian", "linalg.hs_inner", "linalg.as_rng"})

# Calls looked up inside the callee's own module, or as a module attribute,
# which the cross-layer scan below cannot see.  Each is (namespace, name).
EXTRA_HOOKS = (
    ("cli", "main"),                      # the benchmark's entry into the CLI
    ("extend", "extend_action"),          # the benchmark's entry into the search
    ("extend", "restrict_superchannel"),
    ("extend", "validate_action"),        # called by extend_action
    ("feasibility", "solve"),             # extend looks up feasibility.solve
    ("feasibility", "realify"),           # deleted once the projection is closed-form
    ("supermaps", "recompose"),           # called by pre_post_form
    ("supermaps", "induced_marginal_map"),
    ("linalg", "herm_eig"),               # called by psd_project and rank_eps
    ("extremal", "minimal_kraus"),        # cli looks these up as extremal.<name>
    ("extremal", "is_extreme_choi"),
    ("extremal", "is_extreme_unital_tp"),
    ("extremal", "is_extreme_constrained"),
)


# One call of a spanned function; ``extra`` carries what a metric needs from it.
Span = namedtuple("Span", "id parent op layer name caller start end self_s extra")


def _is_layer_function(obj) -> bool:
    module = getattr(obj, "__module__", None) or ""
    return (callable(obj) and not isinstance(obj, type)
            and module.startswith("superchannels.")
            and module.rsplit(".", 1)[1] in LAYERS)


class Tracer:
    """Installs timing wrappers on the package modules and aggregates them."""

    def __init__(self, modules: dict):
        self.modules = modules          # layer name -> module object
        self.enabled = False
        self.op = None                  # index of the operation being run
        self._stack = []                # open frames: [start, child_s, id, first_hot]
        self._next_id = 0
        self.spans = []                 # Span records, appended when the call exits
        self.hot = defaultdict(lambda: [0, 0.0])   # (qualname, caller) -> [calls, seconds]
        self.layer_self = defaultdict(float)
        self.op_self = defaultdict(float)          # op -> summed self time of all layers
        self.absent = {}                # hook -> reason
        self.hooks = set()              # "namespace.name" of every wrapper installed
        self.wrapped = set()            # "layer.name" of every function wrapped somewhere
        self._installed = []            # (module, name, original)

    # -- installation -------------------------------------------------------

    def install(self) -> None:
        seen = set()
        for caller, mod in self.modules.items():
            for name, obj in list(vars(mod).items()):
                if not _is_layer_function(obj):
                    continue
                layer = obj.__module__.rsplit(".", 1)[1]
                if layer != caller and f"{layer}.{name}" not in HELPERS:
                    self._wrap(mod, caller, name, obj, layer)
                    seen.add((caller, name))
        for caller, name in EXTRA_HOOKS:
            if (caller, name) in seen:
                continue
            mod = self.modules.get(caller)
            obj = getattr(mod, name, None) if mod is not None else None
            if obj is None or not _is_layer_function(obj):
                self.absent[f"{caller}.{name}"] = "function not found in the package"
                continue
            self._wrap(mod, caller, name, obj, obj.__module__.rsplit(".", 1)[1])

    def uninstall(self) -> None:
        for mod, name, original in reversed(self._installed):
            setattr(mod, name, original)
        self._installed.clear()

    def _wrap(self, mod, caller: str, name: str, fn, layer: str) -> None:
        qual = f"{layer}.{name}"
        hot = qual in HOT
        # the solver's first eigendecomposition ends its set-up phase
        first_hot_marker = qual == "linalg.herm_eig" and caller == "feasibility"
        stack = self._stack
        clock = time.perf_counter
        tracer = self

        def wrapper(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            start = clock()
            if first_hot_marker and stack and stack[-1][3] is None:
                stack[-1][3] = start
            frame = [start, 0.0, tracer._next_id, None]
            tracer._next_id += 1
            parent = stack[-1][2] if stack else None
            stack.append(frame)
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = clock()
                stack.pop()
                dur = end - start
                self_s = dur - frame[1]
                tracer.layer_self[layer] += self_s
                tracer.op_self[tracer.op] += self_s
                if stack:
                    stack[-1][1] += dur
                if hot:
                    h = tracer.hot[(qual, caller)]
                    h[0] += 1
                    h[1] += dur
                else:
                    extra = None
                    if qual == "feasibility.solve":
                        extra = {"first_eig": frame[3],
                                 "iterations": getattr(result, "iterations", None)}
                    tracer.spans.append(Span(frame[2], parent, tracer.op, layer, name, caller,
                                             start, end, self_s, extra))

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        setattr(mod, name, wrapper)
        self._installed.append((mod, name, fn))
        self.hooks.add(f"{caller}.{name}")
        self.wrapped.add(qual)

    # -- aggregation ----------------------------------------------------------

    def hot_total(self, qual: str, caller: str | None = None) -> tuple[int, float]:
        calls, secs = 0, 0.0
        for (q, c), (n, s) in self.hot.items():
            if q == qual and (caller is None or c == caller):
                calls += n
                secs += s
        return calls, secs

    def span_total(self, layer: str, name: str) -> float:
        return sum(s.end - s.start for s in self.spans if s.layer == layer and s.name == name)

    def entry_total(self, layer: str) -> float:
        """Inclusive time of calls entering ``layer`` from another layer or the benchmark."""
        layer_of = {s.id: s.layer for s in self.spans}
        return sum(s.end - s.start for s in self.spans
                   if s.layer == layer and layer_of.get(s.parent) != layer)

    def solve_stats(self) -> dict:
        """Set-up, loop time and iterations of every ``feasibility.solve`` call.

        Set-up runs from entry to the first eigendecomposition; a call that
        raised before iterating is all set-up.
        """
        setup = loop = 0.0
        iterations = 0
        for s in self.spans:
            if s.layer != "feasibility" or s.name != "solve":
                continue
            first_eig, its = s.extra["first_eig"], s.extra["iterations"]
            split = first_eig if first_eig is not None else s.end
            setup += split - s.start
            if its is not None:
                loop += s.end - split
                iterations += its
        return {"setup_s": setup, "loop_s": loop, "iterations": iterations}

    def write(self, path) -> None:
        with open(path, "w") as fh:
            for s in self.spans:
                fh.write(json.dumps(s._asdict()) + "\n")
            for (qual, caller), (calls, secs) in sorted(self.hot.items()):
                fh.write(json.dumps({"counter": qual, "caller": caller,
                                     "calls": calls, "seconds": secs}) + "\n")
