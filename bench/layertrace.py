"""Per-layer spans for an in-process `hkspread run`, recorded from outside
the program by wrapping the public functions of each layer module.

The layers are the modules `script`, `runner`, `groebner`, `ideals`,
`lengths` and `spread`.  `poly` and `orders` are leaf kernels called
millions of times; wrapping them would distort the run, so their cost
shows in the self time of their callers.

`from .x import f` copies the reference, so a function is replaced in
every `hkspread` module that binds it.  `Tracer.installed()` restores
every original on exit.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass, field

FUNCTIONS = {
    "script": ("parse_script",),
    "runner": ("run_script", "report_json"),
    "groebner": ("buchberger_raw", "standard_monomials"),
    "ideals": ("ideal_colon", "ideal_intersection"),
    "lengths": ("length_quotient", "length_subquotient", "hk_function",
                "ehk_estimate"),
    "spread": ("star_spread_estimate", "star_spread_hk_difference",
               "check_product_identity", "check_self_product",
               "check_lemma33_additivity", "check_base_change",
               "check_corollary_vanishing", "star_independence_diagnostic",
               "colon_criterion_diagnostic"),
}

METHODS = {
    "groebner.reduce": ("groebner", "GroebnerBasis", "reduce"),
    "ideals.groebner_basis": ("ideals", "Ideal", "groebner_basis"),
    "ideals.bracket_power": ("ideals", "Ideal", "bracket_power"),
}

SPAN_NAMES = tuple(f"{mod}.{fn}" for mod, fns in FUNCTIONS.items()
                   for fn in fns) + tuple(METHODS)


@dataclass
class SpanStats:
    calls: int = 0
    total_s: float = 0.0
    self_s: float = 0.0
    counters: dict = field(default_factory=dict)

    def add(self, key, n):
        self.counters[key] = self.counters.get(key, 0) + n


class Tracer:
    """Collects spans (id, parent id, name, start, end) and per-name totals."""

    def __init__(self):
        self.stats = {name: SpanStats() for name in SPAN_NAMES}
        self.spans = []
        self.missing = []
        self._stack = []  # [span id, child seconds] of each open span
        self._next_id = 0
        self._ehk_seen = set()
        self._patched = []

    # -- span recording --------------------------------------------------

    def _wrap(self, name, fn, before=None, after=None):
        stats = self.stats[name]
        stack = self._stack
        spans = self.spans

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            token = None
            if before is not None:
                args, token = before(args, kwargs)
            sid = self._next_id
            self._next_id += 1
            parent = stack[-1][0] if stack else None
            frame = [sid, 0.0]
            stack.append(frame)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                stack.pop()
                dur = t1 - t0
                if stack:
                    stack[-1][1] += dur
                stats.calls += 1
                stats.total_s += dur
                stats.self_s += dur - frame[1]
                spans.append((sid, parent, name, t0, t1))
            if after is not None:
                after(stats, token, args, kwargs, result)
            return result

        return traced

    # -- counters beyond calls and seconds ---------------------------------

    def _hooks(self, name, fn):
        if name == "groebner.buchberger_raw":
            def before(args, kwargs):
                if args:  # the generators may be a one-shot iterable
                    args = (list(args[0]),) + args[1:]
                return args, None

            def after(stats, token, args, kwargs, gb):
                stats.add("gens_in", len(args[0]) if args else 0)
                stats.add("basis_out", len(gb))
                stats.counters["basis_max"] = max(
                    stats.counters.get("basis_max", 0), len(gb))
            return before, after
        if name == "ideals.groebner_basis":
            runs = self.stats["groebner.buchberger_raw"]

            def before(args, kwargs):
                return args, runs.calls

            def after(stats, token, args, kwargs, gb):
                stats.add("hits", int(runs.calls == token))
            return before, after
        if name == "lengths.length_quotient":
            def after(stats, token, args, kwargs, lam):
                if lam.is_finite:
                    stats.add("monomials", lam.value)
            return None, after
        if name == "lengths.ehk_estimate":
            sig = inspect.signature(fn)

            def after(stats, token, args, kwargs, est):
                key = self._ehk_key(sig, args, kwargs)
                stats.add("repeat_calls", int(key in self._ehk_seen))
                self._ehk_seen.add(key)
            return None, after
        return None, None

    @staticmethod
    def _ehk_key(sig, args, kwargs):
        """(ring, generators, e_max, method) with defaults filled in.

        Generators are made monic and sorted, so that the unit scaling and
        shuffling a workload seed applies leave the key unchanged."""
        try:
            bound = sig.bind(*args, **kwargs)
            bound.apply_defaults()
            values = list(bound.arguments.values())
        except TypeError:
            values = list(args) + sorted(kwargs.items())
        ideal, rest = values[0], values[1:]
        ring = ideal.ring
        order = sys.modules["hkspread.orders"].DEGREVLEX
        gens = sorted(str(g.monic(order)) for g in ideal.gens)
        return (ring.characteristic, tuple(ring.variables),
                tuple(str(r) for r in ring.relations), tuple(gens), repr(rest))

    # -- installation ----------------------------------------------------

    @contextmanager
    def installed(self):
        """Wrap every layer function and method; restore them on exit."""
        package = [m for n, m in list(sys.modules.items())
                   if n == "hkspread" or n.startswith("hkspread.")]
        try:
            for mod_name, fn_names in FUNCTIONS.items():
                module = sys.modules.get(f"hkspread.{mod_name}")
                for fn_name in fn_names:
                    name = f"{mod_name}.{fn_name}"
                    original = getattr(module, fn_name, None)
                    if original is None:
                        self.missing.append(name)
                        continue
                    wrapped = self._wrap(name, original,
                                         *self._hooks(name, original))
                    for m in package:
                        for attr, value in list(vars(m).items()):
                            if value is original:
                                self._patched.append((m, attr, original))
                                setattr(m, attr, wrapped)
            for name, (mod_name, cls_name, meth) in METHODS.items():
                cls = getattr(sys.modules.get(f"hkspread.{mod_name}"),
                              cls_name, None)
                original = None if cls is None else cls.__dict__.get(meth)
                if original is None:
                    self.missing.append(name)
                    continue
                self._patched.append((cls, meth, original))
                setattr(cls, meth, self._wrap(name, original,
                                              *self._hooks(name, original)))
            yield self
        finally:
            self.restore()

    def restore(self):
        while self._patched:
            obj, attr, original = self._patched.pop()
            setattr(obj, attr, original)

    def patched_count(self) -> int:
        return len(self._patched)
