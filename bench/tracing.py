"""Spans around the public calls of each linvex layer, for the traced run.

The wrappers live here, not in the library: ``Tracer.install`` replaces
each traced function on every binding that callers use (a module attribute
anywhere in the package, such as ``modp.find_cyclic_tower``, which modp
imports by name) and methods on their class; ``uninstall`` puts the
originals back.  Each call opens a span whose parent is the innermost open
span, so a span's self time is its duration minus the durations of its
direct children.  Spans are folded into per-name totals as they close.
"""

from __future__ import annotations

import functools
import math
import sys
import time
from dataclasses import dataclass, field
from typing import Any, Callable

from linvex import approx, diagram, exchange, lab, modp, rauzy
from linvex.errors import BudgetExceeded, ExpansionHalted, SplitUndefined


@dataclass
class SpanStats:
    calls: int = 0
    total_s: float = 0.0
    self_s: float = 0.0
    counts: dict[str, int] = field(default_factory=dict)

    def add(self, key: str, amount: int = 1) -> None:
        self.counts[key] = self.counts.get(key, 0) + amount


def _grid_bits(x) -> int:
    denominators = [w.denominator for w in x.widths.values()]
    return math.lcm(*denominators).bit_length()


def _split_before(stats: SpanStats, args) -> None:
    bits = _grid_bits(args[0])
    if bits > stats.counts.get("denominator_bits", 0):
        stats.counts["denominator_bits"] = bits


def _split_error(stats: SpanStats, err: Exception) -> None:
    if isinstance(err, SplitUndefined):
        stats.add("halted")


def _verify_after(stats: SpanStats, args, result) -> None:
    stats.add("levels", args[1].height)
    stats.add("passed", int(result.passed))


def _find_after(stats: SpanStats, args, result) -> None:
    stats.add("depth_sum", result.depth)


def _find_error(stats: SpanStats, err: Exception) -> None:
    if isinstance(err, BudgetExceeded):
        stats.add("budget_exhausted")
    elif isinstance(err, ExpansionHalted):
        stats.add("halted")


def _coprime_after(stats: SpanStats, args, result) -> None:
    stats.add("obstructed", int(isinstance(result, modp.StructuralObstruction)))


def _closure_after(stats: SpanStats, args, result) -> None:
    stats.add("nodes", result.node_count)


def _profile_after(stats: SpanStats, args, result) -> None:
    stats.add("iterates", len(result))


def _product_after(stats: SpanStats, args, result) -> None:
    stats.add("orbit_steps", result.parameters["iterations"])


@dataclass(frozen=True)
class Span:
    name: str
    owner: Any  # module or class holding the original
    attr: str
    before: Callable | None = None
    after: Callable | None = None
    error: Callable | None = None


SPANS = (
    Span("rauzy.split", rauzy, "split", before=_split_before, error=_split_error),
    Span("exchange.first_return_map", exchange.Exchange, "first_return_map"),
    Span("exchange.Exchange", exchange.Exchange, "__init__"),
    Span("modp.propagate", modp, "propagate"),
    Span("modp.check_claim_invariant", modp, "check_claim_invariant"),
    Span("modp.find_coprime_tower", modp, "find_coprime_tower", after=_coprime_after),
    Span("approx.verify_tower", approx, "verify_tower", after=_verify_after),
    Span("approx.find_cyclic_tower", approx, "find_cyclic_tower", after=_find_after, error=_find_error),
    Span("approx.rigidity_profile", approx, "rigidity_profile", after=_profile_after),
    Span("lab.product_experiment", lab, "product_experiment", after=_product_after),
    Span("lab.sample_widths", lab, "sample_widths"),
    Span("diagram.forward_closure", diagram, "forward_closure", after=_closure_after),
    Span("diagram.node_edges", diagram, "node_edges"),
    Span("diagram.attractors", diagram, "attractors"),
)

# Layer of each span, for the self-time shares.
LAYERS = {
    "split": ("rauzy.split", "exchange.first_return_map", "exchange.Exchange"),
    "modp": ("modp.propagate", "modp.check_claim_invariant", "modp.find_coprime_tower"),
    "tower": ("approx.verify_tower", "approx.find_cyclic_tower"),
    "rigidity": ("approx.rigidity_profile",),
    "orbit": ("lab.product_experiment",),
    "diagram": ("diagram.forward_closure", "diagram.node_edges", "diagram.attractors"),
    "setup": ("lab.sample_widths",),
}


def _bindings(original) -> list[tuple[Any, str]]:
    """Every module attribute in the package bound to ``original``."""
    found = []
    for name, module in list(sys.modules.items()):
        if name == "linvex" or name.startswith("linvex."):
            for attr, value in list(vars(module).items()):
                if value is original:
                    found.append((module, attr))
    return found


class Tracer:
    """Installs span wrappers and accumulates per-span statistics."""

    def __init__(self):
        self.stats = {span.name: SpanStats() for span in SPANS}
        self._stack: list[float] = []
        self._saved: list[tuple[Any, str, Any]] = []

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("tracer already installed")
        for span in SPANS:
            original = span.owner.__dict__[span.attr]
            wrapper = self._wrap(span, original)
            if isinstance(span.owner, type):
                targets = [(span.owner, span.attr)]
            else:
                targets = _bindings(original)
            for owner, attr in targets:
                self._saved.append((owner, attr, original))
                setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def _wrap(self, span: Span, fn):
        stats = self.stats[span.name]
        stack = self._stack
        clock = time.perf_counter
        before, after, error = span.before, span.after, span.error

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if before is not None:
                before(stats, args)
            stack.append(0.0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except Exception as err:
                if error is not None:
                    error(stats, err)
                raise
            finally:
                elapsed = clock() - start
                children = stack.pop()
                stats.calls += 1
                stats.total_s += elapsed
                stats.self_s += elapsed - children
                if stack:
                    stack[-1] += elapsed
            if after is not None:
                after(stats, args, result)
            return result

        return wrapper


def _field(stats: SpanStats, name: str) -> float:
    if name in ("calls", "self_s", "total_s"):
        return getattr(stats, name)
    return stats.counts.get(name, 0)


# (metric, unit, span, field); per-pass values of the traced passes.
SPAN_METRICS = (
    ("rauzy.split.calls", "count", "rauzy.split", "calls"),
    ("rauzy.split.self_s", "s", "rauzy.split", "self_s"),
    ("rauzy.split.halted", "count", "rauzy.split", "halted"),
    ("exchange.first_return_map.self_s", "s", "exchange.first_return_map", "self_s"),
    ("exchange.Exchange.calls", "count", "exchange.Exchange", "calls"),
    ("exchange.Exchange.self_s", "s", "exchange.Exchange", "self_s"),
    ("modp.propagate.calls", "count", "modp.propagate", "calls"),
    ("modp.propagate.self_s", "s", "modp.propagate", "self_s"),
    ("modp.check_claim_invariant.calls", "count", "modp.check_claim_invariant", "calls"),
    ("modp.check_claim_invariant.self_s", "s", "modp.check_claim_invariant", "self_s"),
    ("modp.find_coprime_tower.obstructed", "count", "modp.find_coprime_tower", "obstructed"),
    ("approx.verify_tower.calls", "count", "approx.verify_tower", "calls"),
    ("approx.verify_tower.self_s", "s", "approx.verify_tower", "self_s"),
    ("approx.verify_tower.levels", "count", "approx.verify_tower", "levels"),
    ("approx.find_cyclic_tower.self_s", "s", "approx.find_cyclic_tower", "self_s"),
    ("approx.find_cyclic_tower.depth_sum", "count", "approx.find_cyclic_tower", "depth_sum"),
    ("approx.find_cyclic_tower.budget_exhausted", "count", "approx.find_cyclic_tower", "budget_exhausted"),
    ("approx.find_cyclic_tower.halted", "count", "approx.find_cyclic_tower", "halted"),
    ("approx.rigidity_profile.self_s", "s", "approx.rigidity_profile", "self_s"),
    ("approx.rigidity_profile.iterates", "count", "approx.rigidity_profile", "iterates"),
    ("lab.product_experiment.self_s", "s", "lab.product_experiment", "self_s"),
    ("lab.product_experiment.orbit_steps", "count", "lab.product_experiment", "orbit_steps"),
    ("diagram.forward_closure.self_s", "s", "diagram.forward_closure", "self_s"),
    ("diagram.forward_closure.nodes", "count", "diagram.forward_closure", "nodes"),
    ("diagram.node_edges.self_s", "s", "diagram.node_edges", "self_s"),
    ("diagram.attractors.self_s", "s", "diagram.attractors", "self_s"),
)


def layer_metrics(
    passes: Tracer,
    traced_passes: int,
    traced_wall_s: float,
    setup: Tracer,
    overhead_frac: float,
) -> dict[str, tuple[float, str]]:
    """Per-layer metrics of one traced run, as name -> (value, unit).

    ``passes`` traced ``traced_passes`` identical passes taking
    ``traced_wall_s`` in all; counts and times are reported per pass, so
    counts repeat exactly.  ``setup`` traced the input generation.
    """
    out: dict[str, tuple[float, str]] = {}
    for metric, unit, span, name in SPAN_METRICS:
        value = _field(passes.stats[span], name) / traced_passes
        out[metric] = (int(value) if unit == "count" and value == int(value) else value, unit)
    split = passes.stats["rauzy.split"]
    out["rauzy.split.us_per_call"] = (1e6 * split.total_s / split.calls if split.calls else 0.0, "us")
    out["exchange.denominator_bits"] = (split.counts.get("denominator_bits", 0), "bits")
    verify = passes.stats["approx.verify_tower"]
    passed = verify.counts.get("passed", 0)
    out["approx.verify_tower.passed_ratio"] = (passed / verify.calls if verify.calls else 0.0, "ratio")
    out["lab.sample_widths.self_s"] = (setup.stats["lab.sample_widths"].self_s, "s")
    covered = 0.0
    for layer, spans in LAYERS.items():
        if layer == "setup":
            continue
        share = sum(passes.stats[s].self_s for s in spans) / traced_wall_s
        covered += share
        out[f"layer.{layer}.self_frac"] = (share, "ratio")
    out["layer.unwrapped.self_frac"] = (1.0 - covered, "ratio")
    out["trace.overhead_frac"] = (overhead_frac, "ratio")
    return out
