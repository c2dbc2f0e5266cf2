"""Feasibility patching, rounding, and the application policies.

The gradient engine's fractional decisions are made admissible by FEAS,
which maintains one remaining-budget counter per resource and scales a
decision down whenever it would overdraw a budget.  ROUND converts a
fractional decision to {0,1} by an independent keyed Bernoulli; FLOOR maps
any residual fractional value to zero.  The application policies compose
these pieces: lp = FEAS o pen, nrm = FLOOR o FEAS o ROUND o pen, is =
threshold rounding of lp against one episode-level uniform, and mmo-greedy
picks the best fractional edge in each online node's block.  (``verify``'s
mwmlp is lp, its default theta taken at ``mwm_scaled_epsilon``.)

Policies are streaming objects: one call per period, in period order,
enforced by an epoch counter in the EpisodeContext.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping

from . import keys
from .engine import MemoTable, SolverConfig, decide_pen
from .errors import InstanceError, MemoIntegrityError, SequencingError
from .model import Prefix, SimulatorHandle

_BUDGET_TOL = 1e-9


class FeasState:
    """Remaining-budget counters b_i minus consumption committed so far."""

    __slots__ = ("remaining",)

    def __init__(self, b):
        self.remaining = [float(x) for x in b]

    def step(self, a, x: float) -> float:
        """Largest value <= x the remaining budgets allow; commits it.

        ``a`` is the sparse r.c.v. at the current prefix as (i, value)
        pairs.  With no requested resources the value passes through
        unchanged.  Counters are clamped at zero within 1e-9 to stop
        floating-point drift going negative.
        """
        if not 0.0 <= x <= 1.0:
            raise InstanceError(f"decision {x} outside [0, 1]")
        val = x
        for i, ai in a:
            cap = self.remaining[i] / ai
            if cap < val:  # counters stay >= 0 and a_i > 0, so cap >= 0
                val = cap
        if val > 0.0:
            for i, ai in a:
                r = self.remaining[i] - ai * val
                if r < 0.0:
                    if r < -_BUDGET_TOL:
                        raise InstanceError(f"budget counter {i} went negative: {r}")
                    r = 0.0
                self.remaining[i] = r
        return val


def feas_table(tree, x: Mapping[bytes, float]) -> dict[bytes, float]:
    """FEAS(X) at every prefix of an explicit tree, parents first.

    Each node starts a ``FeasState`` from its parent's counters after the
    parent's step (the budgets at a root) and is patched by
    ``FeasState.step``, so the value at a node is exact for the (unique)
    history leading to it and ``step``'s checks apply: x outside [0, 1] and
    an overdrawn counter raise.  The walk follows ``tree.order`` without
    recursion, so a horizon of any length is patched.
    """
    out: dict[bytes, float] = {}
    after: dict[bytes, list[float]] = {}  # each node's counters after its step
    for key in tree.order:
        node = tree.node(key)
        feas = FeasState(tree.instance.b if node.parent is None
                         else after[node.parent])
        out[key] = feas.step(node.a, x[key])
        after[key] = feas.remaining
    return out


def round_bernoulli(x: float, key: tuple) -> int:
    """Bernoulli(x) from the keyed stream."""
    if not 0.0 <= x <= 1.0:
        raise InstanceError(f"rounding input {x} outside [0, 1]")
    return 1 if keys.uniform(*key) < x else 0


def floor_policy(x: float) -> int:
    """Map residual fractional values to 0; exact ones stay accepted."""
    return 1 if x >= 1.0 else 0


@dataclass
class EpisodeContext:
    """Per-episode mutable state shared by the streaming policies.

    ``shared_uniform`` is drawn exactly once at episode start and drives the
    independent-set threshold rounding.  ``memo`` is the table decide_pen
    computes the fractional values in, made for one ``SolverConfig``; since
    its entries are pure in (master seed, prefix, level), episodes of one
    (instance, config) may share it.  ``fractional`` is the last call's
    value before its decision: decide_pen's x for lp, nrm and is, and for
    mmo-greedy the FEAS-patched value of the period's edge in its block
    (0.0 on an unrealized period).
    """

    memo: MemoTable
    feas: FeasState
    shared_uniform: float
    episode: int
    epoch: int = 0
    pending_block: dict[int, tuple[int, float]] = field(default_factory=dict)
    matched_offline: set[int] = field(default_factory=set)
    fractional: float = 0.0


def new_episode_context(sim: SimulatorHandle, config: SolverConfig,
                        episode: int,
                        memo: MemoTable | None = None) -> EpisodeContext:
    """A context for ``episode``; a fresh ``MemoTable(config)`` unless given.

    The context records no history: a caller that wants a per-decision
    record reads ``fractional``, ``feas.remaining`` and ``memo.counters()``
    after each call.
    """
    return EpisodeContext(
        memo=memo if memo is not None else MemoTable(config),
        feas=FeasState(sim.instance.b),
        shared_uniform=keys.uniform(config.master_seed, "is-uniform", episode),
        episode=episode,
    )


def _advance_epoch(ctx: EpisodeContext, prefix: Prefix,
                   config: SolverConfig) -> None:
    """Refuse a call out of order, or a config unequal to the table's.

    The one config check: the table's decisions hold its config's K and
    betas, and the engine reads no other config.
    """
    own = ctx.memo.config
    if own is not config and own != config:
        raise MemoIntegrityError(
            f"memo table is made for {own!r}, not {config!r}")
    if len(prefix) != ctx.epoch + 1:
        raise SequencingError(
            f"policy called at period {len(prefix)}, expected {ctx.epoch + 1}")
    ctx.epoch += 1


def policy_lp(ctx: EpisodeContext, sim: SimulatorHandle, prefix: Prefix,
              config: SolverConfig) -> float:
    """Fractional admissible policy: FEAS applied to the penalty decision."""
    _advance_epoch(ctx, prefix, config)
    x = ctx.fractional = decide_pen(sim, ctx.memo, prefix)
    _, a = sim.node(prefix)
    return ctx.feas.step(a, x)


def policy_nrm(ctx: EpisodeContext, sim: SimulatorHandle, prefix: Prefix,
               config: SolverConfig) -> int:
    """Integral admissible policy: FLOOR o FEAS o ROUND o pen.

    Integral and feasible on every path regardless of parameters; the
    near-optimality guarantee additionally needs a long-horizon regime
    (T of order iota^-2 eps^-2 m L), which is not enforced here.
    """
    _advance_epoch(ctx, prefix, config)
    x = ctx.fractional = decide_pen(sim, ctx.memo, prefix)
    r = round_bernoulli(x, (config.master_seed, "round", ctx.episode,
                            len(prefix)))
    _, a = sim.node(prefix)
    return floor_policy(ctx.feas.step(a, float(r)))


def policy_is(ctx: EpisodeContext, sim: SimulatorHandle, prefix: Prefix,
              config: SolverConfig) -> int:
    """Threshold rounding of the fractional policy with one shared uniform.

    With the episode's uniform u, left-partite nodes fire when the
    fractional value exceeds u and right-partite ones when it exceeds
    1 - u; since the patched fractional values on an edge sum to at most 1,
    both endpoints can never fire together.
    """
    if sim.partite_of is None:
        raise InstanceError("independent-set policy needs a partite lookup")
    val = policy_lp(ctx, sim, prefix, config)
    side = sim.partite_of(prefix)
    if side == "L":
        return 1 if val > ctx.shared_uniform else 0
    if side == "R":
        return 1 if val > 1.0 - ctx.shared_uniform else 0
    raise InstanceError(f"partite lookup returned {side!r}")


def mwm_scaled_epsilon(epsilon: float, delta: int) -> float:
    """Accuracy rescaling for matching encodings: eps' = 2 eps / Delta.

    ``verify --policy mwmlp`` takes its default theta at this epsilon and
    runs ``policy_lp``; the rescaling reaches nothing else.
    """
    if delta < 1:
        raise InstanceError("degree bound must be >= 1")
    return 2.0 * epsilon / delta


def policy_mmo_greedy(ctx: EpisodeContext, sim: SimulatorHandle, prefix: Prefix,
                      config: SolverConfig) -> int:
    """Greedy baseline rounding for online-node matching.

    At each online node's block start, computes the fractional values of
    every edge in the block (in lexicographic period order, FEAS-patched),
    then selects the feasible incident edge of maximal fractional value
    exceeding zero, breaking ties by lowest offline-node index.  Decisions
    for later periods of the block are replayed from the pending map.  This
    is a baseline; its measured ratio is reported, never asserted against
    any reference constant.
    """
    _advance_epoch(ctx, prefix, config)
    t = len(prefix)
    if t in ctx.pending_block:
        decision, ctx.fractional = ctx.pending_block.pop(t)
        return decision
    _, a = sim.node(prefix)
    if not a:  # unrealized period: no edge, decision zero
        ctx.fractional = 0.0
        return 0
    if sim.block_lookup is None:
        raise InstanceError("online-node policy needs a block lookup")
    t1, t2, offline_ids, block_prefixes = sim.block_lookup(prefix)
    if t != t1:
        raise SequencingError(
            f"block of period {t} starts at {t1}; pending decision missing")
    fracs: list[float] = []
    for ps in block_prefixes:
        x = decide_pen(sim, ctx.memo, ps)
        _, a = sim.node(ps)
        fracs.append(ctx.feas.step(a, x))
    best = None
    for s, v, off in zip(range(t1, t2 + 1), fracs, offline_ids):
        if v <= 0.0 or off in ctx.matched_offline:
            continue
        if best is None or v > best[1] or (v == best[1] and off < best[2]):
            best = (s, v, off)
    decisions = {s: 0 for s in range(t1, t2 + 1)}
    if best is not None:
        decisions[best[0]] = 1
        ctx.matched_offline.add(best[2])
    for s in range(t1 + 1, t2 + 1):
        ctx.pending_block[s] = (decisions[s], fracs[s - t1])
    ctx.fractional = fracs[0]
    return decisions[t1]
