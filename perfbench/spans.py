"""Per-layer spans recorded from outside the library.

The traced run replaces public functions of each ``onlinepack`` module with
wrappers that open a span around the call.  A span's self time is its
duration minus the time covered by the spans it opened, and self times are
summed per layer.  Spans are aggregated in memory as they close (a round
opens millions of them), and the aggregate is written out when the run
ends.  A probe whose target no longer exists is skipped and named; the
metrics that depend on it are left out instead of failing the run.
"""

from __future__ import annotations

import dataclasses
import importlib
import sys
import time
from collections import defaultdict

# probe name -> (layer, module, attribute path); layer None counts calls only
PROBES = {
    "keys.key_digest": ("keys", "onlinepack.keys", "key_digest"),
    "keys.UniformStream.next": ("keys", "onlinepack.keys", "UniformStream.next"),
    "keys.uniform": ("keys", "onlinepack.keys", "uniform"),
    "keys.generator": ("keys", "onlinepack.keys", "generator"),
    "model.Prefix.__init__": ("model.prefix", "onlinepack.model", "Prefix.__init__"),
    "model.Prefix.head": ("model.prefix", "onlinepack.model", "Prefix.head"),
    "engine.conditional_draws": ("engine.draws", "onlinepack.engine",
                                 "conditional_draws"),
    "engine.grad_component": ("engine.grad", "onlinepack.engine", "grad_component"),
    "engine.recursive_R": ("engine.recursion", "onlinepack.engine", "recursive_R"),
    "engine.decide_pen": ("engine.recursion", "onlinepack.engine", "decide_pen"),
    "penalty.huber_deriv": (None, "onlinepack.penalty", "huber_deriv"),
    "policies.policy_lp": ("policies", "onlinepack.policies", "policy_lp"),
    "policies.policy_nrm": ("policies", "onlinepack.policies", "policy_nrm"),
    "policies.policy_is": ("policies", "onlinepack.policies", "policy_is"),
    "oracle.eval_policy_mc": ("oracle.mc", "onlinepack.oracle", "eval_policy_mc"),
}

_KEYS = ("keys.key_digest", "keys.UniformStream.next", "keys.uniform",
         "keys.generator")
_PREFIX = ("model.Prefix.__init__", "model.Prefix.head")
_POLICIES = ("policies.policy_lp", "policies.policy_nrm", "policies.policy_is")

# metric -> (unit, probes it needs, value from (tracer, decisions))
DECISION_METRICS = {
    "keys.digests_per_decision": (
        "count", ("keys.key_digest",),
        lambda tr, n: tr.calls["keys.key_digest"] / n),
    "keys.self_ms_per_decision": ("ms", _KEYS, lambda tr, n: tr.self_ms("keys", n)),
    "model.complete_self_ms_per_decision": (
        "ms", (), lambda tr, n: tr.self_ms("model.complete", n)),
    "model.prefix_rows_per_decision": (
        "count", ("model.Prefix.__init__",), lambda tr, n: tr.prefix_rows / n),
    "model.prefix_self_ms_per_decision": (
        "ms", _PREFIX, lambda tr, n: tr.self_ms("model.prefix", n)),
    "model.readout_calls_per_decision": (
        "count", (), lambda tr, n: tr.calls["model.readout"] / n),
    "model.readout_self_ms_per_decision": (
        "ms", (), lambda tr, n: tr.self_ms("model.readout", n)),
    "engine.draw_cache_hit_ratio": (
        "ratio", ("engine.conditional_draws",),
        lambda tr, n: tr.draw_hits / max(tr.draw_requests, 1)),
    "engine.cross_episode_repeat_share": (
        "ratio", ("engine.conditional_draws",),
        lambda tr, n: tr.repeated_sets / max(tr.requested_sets, 1)),
    "engine.draws_self_ms_per_decision": (
        "ms", ("engine.conditional_draws",),
        lambda tr, n: tr.self_ms("engine.draws", n)),
    "engine.grad_self_ms_per_decision": (
        "ms", ("engine.grad_component",), lambda tr, n: tr.self_ms("engine.grad", n)),
    "engine.recursion_self_ms_per_decision": (
        "ms", ("engine.recursive_R", "engine.decide_pen"),
        lambda tr, n: tr.self_ms("engine.recursion", n)),
    "penalty.huber_deriv_calls_per_decision": (
        "count", ("penalty.huber_deriv",),
        lambda tr, n: tr.calls["penalty.huber_deriv"] / n),
    "policies.self_ms_per_decision": (
        "ms", _POLICIES, lambda tr, n: tr.self_ms("policies", n)),
    "oracle.mc_self_ms_per_decision": (
        "ms", ("oracle.eval_policy_mc",), lambda tr, n: tr.self_ms("oracle.mc", n)),
}


class Tracer:
    """Span and counter aggregates for one traced run."""

    def __init__(self):
        self._stack = [0.0]  # time covered by child spans, one slot per open span
        self.self_s: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        self.prefix_rows = 0
        self.draw_requests = 0
        self.draw_hits = 0
        self.requested_sets = 0
        self.repeated_sets = 0
        self._seen_sets: set = set()
        self._episode_sets: set = set()
        self.skipped: list[str] = []
        self._undo: list[tuple[object, str, object]] = []

    # -- spans -------------------------------------------------------------

    def span(self, name: str, layer: str, fn):
        stack, self_s, calls = self._stack, self.self_s, self.calls
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            stack.append(0.0)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                self_s[layer] += dt - stack.pop()
                stack[-1] += dt
                calls[name] += 1
        return wrapper

    def self_ms(self, layer: str, decisions: int) -> float:
        return self.self_s[layer] * 1e3 / decisions

    # -- episodes ----------------------------------------------------------

    def begin_round(self) -> None:
        self._fold_episode()
        self._seen_sets = set()

    def begin_episode(self) -> None:
        self._fold_episode()

    def _fold_episode(self) -> None:
        ep = self._episode_sets
        self.requested_sets += len(ep)
        self.repeated_sets += len(ep & self._seen_sets)
        self._seen_sets |= ep
        self._episode_sets = set()

    # -- installation ------------------------------------------------------

    def wrap_handle(self, sim):
        """The simulator handle with spans around ``complete`` and ``readout``."""
        return dataclasses.replace(
            sim,
            complete=self.span("model.complete", "model.complete", sim.complete),
            readout=self.span("model.readout", "model.readout", sim.readout))

    def install(self) -> None:
        """Wrap every probe target that exists; name the ones that do not."""
        for name, (layer, module_name, path) in PROBES.items():
            try:
                owner = importlib.import_module(module_name)
                *outer, attr = path.split(".")
                for part in outer:
                    owner = getattr(owner, part)
                original = owner.__dict__[attr] if isinstance(owner, type) \
                    else getattr(owner, attr)
            except (ImportError, AttributeError, KeyError):
                self.skipped.append(name)
                continue
            wrapper = self._wrapper(name, layer, original)
            if isinstance(owner, type):
                self._set(owner, attr, wrapper)
            else:
                self._replace_everywhere(original, wrapper)

    def uninstall(self) -> None:
        for obj, attr, original in reversed(self._undo):
            setattr(obj, attr, original)
        self._undo.clear()

    def _set(self, obj, attr, value) -> None:
        self._undo.append((obj, attr, getattr(obj, attr)))
        setattr(obj, attr, value)

    def _replace_everywhere(self, original, wrapper) -> None:
        # modules bind each other's functions by name at import, so every
        # binding of the original inside the package is replaced
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "onlinepack"
                                   or mod_name.startswith("onlinepack.")):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._set(mod, attr, wrapper)

    def _wrapper(self, name, layer, original):
        if layer is None:
            calls = self.calls

            def counted(*args, **kwargs):
                calls[name] += 1
                return original(*args, **kwargs)
            return counted
        if name == "model.Prefix.__init__":
            def init(prefix, *args, **kwargs):
                original(prefix, *args, **kwargs)
                self.prefix_rows += len(prefix.obs)
            return self.span(name, layer, init)
        if name == "engine.conditional_draws":
            def draws(sim, memo, prefix, k, *args, **kwargs):
                key = (prefix.key, k)
                self.draw_requests += 1
                self.draw_hits += key in memo.draws
                self._episode_sets.add(key)
                return original(sim, memo, prefix, k, *args, **kwargs)
            return self.span(name, layer, draws)
        return self.span(name, layer, original)

    # -- results -----------------------------------------------------------

    def decision_metrics(self, decisions: int) -> dict[str, tuple[float, str]]:
        """(value, unit) of each per-decision layer metric whose probes exist."""
        self._fold_episode()
        return {metric: (value(self, decisions), unit)
                for metric, (unit, needs, value) in DECISION_METRICS.items()
                if not any(p in self.skipped for p in needs)}

    def skipped_metrics(self) -> list[str]:
        return [m for m, (_, needs, _) in DECISION_METRICS.items()
                if any(p in self.skipped for p in needs)]

    def summary(self) -> dict:
        return {"self_s": dict(self.self_s), "calls": dict(self.calls),
                "prefix_rows": self.prefix_rows,
                "draw_requests": self.draw_requests, "draw_hits": self.draw_hits,
                "requested_sets": self.requested_sets,
                "repeated_sets": self.repeated_sets, "skipped": self.skipped}
