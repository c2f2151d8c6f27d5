"""Layer spans and exact work counters for the traced benchmark run.

The tracer wraps the public functions of each cmfields module from the
outside, in every namespace that imported them, so the program itself is
unchanged.  Each call becomes a span (name, start, end, parent, item id)
kept in flat arrays and written out when the run ends.  A layer's self time
is its spans' duration minus the part covered by child spans.

Only the calls listed in SPANS are wrapped.  Hot inner helpers such as
`DirichletCharacter.__init__` and `value_exponent` (millions of calls on the
V4 sweep) run inside their caller's span.  The counters' own work runs in a
`trace` span, so it is not charged to the layer that made the call.  Install
into a fresh interpreter that is thrown away afterwards: nothing is restored.
"""

from __future__ import annotations

import importlib
from array import array
from collections import Counter
from time import perf_counter_ns

MODULES = ("cli", "fieldspec", "fields", "characters", "cyclotomic", "hminus",
           "unitindex", "quadratic", "theorems")

# (module, attribute or Class.method) -> span name
SPANS = {
    ("cli", "main"): "cli",
    ("fieldspec", "parse_field_spec"): "fieldspec",
    ("fieldspec", "FieldSpec.build"): "fieldspec",
    ("fields", "field_from_generators"): "fields.build",
    ("fields", "cyclotomic_field"): "fields.build",
    ("fields", "quadratic_field"): "fields.build",
    ("fields", "AbelianField.compositum"): "fields.build",
    ("fields", "AbelianField.roots_of_unity_order"): "fields.roots_of_unity",
    ("fields", "AbelianField.prime_power_decomposition"): "fields.decompose",
    ("fields", "AbelianField.two_primary_subfield"): "fields.decompose",
    ("characters", "DirichletCharacter.conductor"): "characters.conductor",
    ("characters", "all_characters"): "characters.enumerate",
    ("characters", "galois_orbits"): "characters.orbits",
    ("cyclotomic", "absolute_norm"): "cyclotomic.norm",
    ("hminus", "minus_class_number"): "hminus",
    ("hminus", "minus_partial_product"): "hminus",
    ("hminus", "bernoulli_b1"): "hminus.bernoulli",
    ("unitindex", "hasse_unit_index"): "unitindex",
    ("unitindex", "biquadratic_verdict"): "unitindex",
    ("unitindex", "martinet_pair"): "unitindex",
    ("quadratic", "class_number"): "quadratic",
    ("quadratic", "fundamental_unit_norm"): "quadratic",
    ("quadratic", "ideal_sqrt_of_element"): "quadratic",
    ("quadratic", "is_principal"): "quadratic",
    ("quadratic", "split_prime"): "quadratic",
    ("theorems", "check_masley"): "theorems",
    ("theorems", "check_odd_degree"): "theorems",
    ("theorems", "check_v4"): "theorems",
    ("theorems", "derived_kuroda_q"): "theorems",
    ("theorems", "check_metsankyla"): "theorems",
    ("theorems", "check_counterexample"): "theorems",
    ("theorems", "fundamental_discriminants"): "theorems",
    ("theorems", "sweep_masley"): "theorems",
    ("theorems", "sweep_v4"): "theorems",
    ("theorems", "sweep_metsankyla"): "theorems",
    ("theorems", "sweep_counterexample_family1"): "theorems",
}

# The tracer's own counter work; a child span, so no layer is charged for it.
TRACE = "trace"
LAYERS = sorted(set(SPANS.values()) | {TRACE})


def load_modules() -> dict:
    return {name: importlib.import_module(f"cmfields.{name}") for name in MODULES}


def rebind(modules: dict, old, new) -> None:
    """Point every cmfields namespace that holds `old` at `new`."""
    spaces = [importlib.import_module("cmfields"), *modules.values()]
    for ns in spaces:
        for key, value in list(vars(ns).items()):
            if value is old:
                setattr(ns, key, new)


class Tracer:
    def __init__(self):
        self.layer_id = {name: i for i, name in enumerate(LAYERS)}
        self.name = array("b")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("l")
        self.item = array("l")
        self.stack: list[int] = []
        self.current_item = -1
        self.paused = [False]
        self.counts: Counter = Counter()
        self.orbit_keys: set = set()
        self.rules: list[str] = []

    # -- installation ----------------------------------------------------

    def install(self) -> None:
        modules = load_modules()
        from cmfields.arith import euler_phi

        self.rules = [v for k, v in vars(modules["unitindex"]).items()
                      if k.startswith("RULE_")]

        hooks = {
            "cyclotomic.norm": self._norm_hook(euler_phi),
            "hminus.bernoulli": self._orbit_hook,
            "characters.enumerate": self._enumerate_hook,
            "unitindex": self._rule_hook,
        }
        for (mod, attr), span in SPANS.items():
            owner = modules[mod]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(owner, cls_name)
                setattr(cls, meth, self.wrap(span, vars(cls)[meth], hooks.get(span)))
            else:
                fn = getattr(owner, attr)
                rebind(modules, fn, self.wrap(span, fn, hooks.get(span)))
        cyc = modules["cyclotomic"]
        rebind(modules, cyc.galois_apply, self._count_conjugates(cyc.galois_apply))

    def wrap(self, span: str, fn, hook=None):
        layer, trace_layer = self.layer_id[span], self.layer_id[TRACE]
        names, starts, ends = self.name, self.start, self.end
        parents, items, stack = self.parent, self.item, self.stack
        paused = self.paused

        def traced(*args, **kwargs):
            if paused[0]:
                return fn(*args, **kwargs)
            idx = len(starts)
            names.append(layer)
            parents.append(stack[-1] if stack else -1)
            items.append(self.current_item)
            ends.append(0)
            stack.append(idx)
            starts.append(perf_counter_ns())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = perf_counter_ns()
                stack.pop()
            if hook is not None:
                # Paused: calls the hook makes open no spans of their own.
                names.append(trace_layer)
                parents.append(stack[-1] if stack else -1)
                items.append(self.current_item)
                paused[0] = True
                starts.append(perf_counter_ns())
                try:
                    hook(args, result)
                finally:
                    ends.append(perf_counter_ns())
                    paused[0] = False
            return result

        return traced

    # -- counters --------------------------------------------------------

    def _norm_hook(self, euler_phi):
        hminus = self.layer_id["hminus"]

        def hook(args, result):
            x = args[0]
            phi = euler_phi(x.level)
            if phi > self.counts["cyclotomic.norm.max_phi"]:
                self.counts["cyclotomic.norm.max_phi"] = phi
            if self.stack and self.name[self.stack[-1]] == hminus:
                self.counts["hminus.orbit_norms"] += 1

        return hook

    def _orbit_hook(self, args, result):
        """Distinct orbits by the representative's primitive key, the key an
        orbit memo would use."""
        self.orbit_keys.add(args[0].primitive_key())

    def _enumerate_hook(self, args, result):
        self.counts["characters.enumerate.chars"] += len(result)

    def _rule_hook(self, args, result):
        rule = getattr(result, "rule", None)
        if rule is not None:
            self.counts[f"unitindex.rule.{rule}"] += 1

    def _count_conjugates(self, fn):
        norm = self.layer_id["cyclotomic.norm"]

        def counted(*args, **kwargs):
            if self.stack and self.name[self.stack[-1]] == norm:
                self.counts["cyclotomic.norm.conjugates"] += 1
            return fn(*args, **kwargs)

        return counted

    # -- results ---------------------------------------------------------

    def summary(self) -> dict:
        """Self time and calls per span name, plus the exact counters."""
        n = len(self.start)
        child = [0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child[p] += self.end[i] - self.start[i]
        self_ns = [0] * len(LAYERS)
        calls = [0] * len(LAYERS)
        for i in range(n):
            k = self.name[i]
            self_ns[k] += self.end[i] - self.start[i] - child[i]
            calls[k] += 1
        out = {}
        for k, layer in enumerate(LAYERS):
            out[f"{layer}.self_s"] = self_ns[k] / 1e9
            out[f"{layer}.calls"] = calls[k]
        counts = dict(self.counts)
        counts["hminus.orbit_norms_distinct"] = len(self.orbit_keys)
        for key in ("cyclotomic.norm.conjugates", "cyclotomic.norm.max_phi",
                    "hminus.orbit_norms", "characters.enumerate.chars"):
            counts.setdefault(key, 0)
        for rule in self.rules:
            counts.setdefault(f"unitindex.rule.{rule}", 0)
        out.update(counts)
        out["spans"] = n
        return out

    def write_spans(self, path) -> None:
        with open(path, "w") as fh:
            fh.write("name\tstart_ns\tend_ns\tparent\titem\n")
            for i in range(len(self.start)):
                fh.write(f"{LAYERS[self.name[i]]}\t{self.start[i]}\t{self.end[i]}"
                         f"\t{self.parent[i]}\t{self.item[i]}\n")
