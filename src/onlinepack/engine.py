"""The stochastic gradient family and its on-demand recursive twin.

Two ways to run the same method live here.  ``run_algorithm1_explicit``
sweeps every prefix of an explicit tree through K projected stochastic
gradient iterations (optionally Nesterov-accelerated); it is the reference
the tests hold the recursion to.  ``recursive_R``, which the policies use,
computes a single iterate value on demand, pulling in only the recursive
evaluations the estimator actually touches, memoized in a write-once table.
Both paths share one keyed sampling scheme -- the conditional draw multiset
for (prefix, k) and the period subsample for iteration k are pure functions
of the master seed -- and one floating-point code path for the update, so
the on-demand values equal the full-sweep values bit for bit.
"""

from __future__ import annotations

import functools
import math
import numbers
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterable, Sequence

import numpy as np

from . import keys
from .errors import (CapacityError, ContractViolationError, MemoIntegrityError,
                     ParameterError)
from .model import (ExplicitScenarioTree, Prefix, SimulatorHandle,
                    tree_as_simulator)
from .penalty import _check_theta, huber_deriv

_EVAL_TOL = 1e-12
_ALG1_NODE_CAP = 20_000
_ALEPH_CACHE = 1024  # period subsamples kept per process, least recent out


@dataclass(frozen=True)
class SolverConfig:
    """Parameters of the gradient engine.

    ``momentum`` selects the schedule: "unaccelerated" keeps beta_k = 0,
    "accelerated" uses beta_0 = 0 and beta_k = (k-1)/(k+2).  ``eta1`` is the
    number of conditional completions per gradient component, ``eta2`` the
    size of the period subsample (eta2 = T disables subsampling).
    ``epsilon`` and ``practical_override`` are validated and read by
    nothing (epsilon reaches a run only through theta); they stay because
    the benchmark's solver dict passes both.
    """

    epsilon: float
    theta: float
    alpha: float
    K: int
    eta1: int
    eta2: int
    master_seed: int = 0
    momentum: str = "unaccelerated"
    practical_override: bool = False

    def __post_init__(self):
        for name in ("K", "eta1", "eta2", "master_seed"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, int):
                raise ParameterError(f"{name} must be an integer, got {value!r}")
        for name in ("epsilon", "theta", "alpha"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, numbers.Real):
                raise ParameterError(
                    f"{name} must be a real number, got {value!r}")
        if not 0 < self.alpha < math.inf:
            raise ParameterError("step size alpha must be finite and positive")
        if not 0 < self.theta < math.inf:
            raise ParameterError(
                "smoothing parameter theta must be finite and positive")
        if not 0 < self.epsilon < math.inf:
            raise ParameterError("epsilon must be finite and positive")
        if self.K < 0:
            raise ParameterError("iteration count K must be >= 0")
        if self.eta1 < 1:
            raise ParameterError("eta1 must be >= 1")
        if self.eta2 < 1:
            raise ParameterError("eta2 must be >= 1")
        if self.momentum not in ("unaccelerated", "accelerated"):
            raise ParameterError(f"unknown momentum schedule {self.momentum!r}")

    def beta(self, k: int) -> float:
        if self.momentum == "unaccelerated" or k <= 0:
            return 0.0
        return (k - 1) / (k + 2)


def sample_index_set(config: SolverConfig, T: int, k: int) -> tuple[int, ...]:
    """eta2 distinct periods from {1..T}, sorted; pure in (master_seed, k).

    Uses Floyd's sampling, so the cost is O(eta2) independent of T.  The
    same set is shared across all prefixes and solution vectors within an
    iteration, and it is computed once per process for each (master_seed,
    T, eta2, k), the values it reads, in a cache bounded at
    ``_ALEPH_CACHE`` sets.  With eta2 = T every level of every seed shares
    one tuple per T.
    """
    if k < 0:
        raise ParameterError("iteration index must be >= 0")
    if config.eta2 > T:
        raise ParameterError(f"eta2 = {config.eta2} exceeds horizon T = {T}")
    if config.eta2 == T:
        return _floyd_sample(0, T, T, 0)
    return _floyd_sample(config.master_seed, T, config.eta2, k)


@functools.lru_cache(maxsize=_ALEPH_CACHE)
def _floyd_sample(master_seed: int, T: int, eta2: int,
                  k: int) -> tuple[int, ...]:
    if eta2 == T:
        return tuple(range(1, T + 1))
    gen = keys.generator(master_seed, "aleph", k)
    chosen: set[int] = set()
    for j in range(T - eta2 + 1, T + 1):
        t = int(gen.integers(1, j + 1))
        if t in chosen:
            chosen.add(j)
        else:
            chosen.add(t)
    return tuple(sorted(chosen))


class PathDraw:
    """One conditional completion, indexed at the periods the estimator reads.

    ``traj`` is the completion's cut, its rows up to the last indexed
    period.  ``terms[i]`` lists the pairs (traj^t, a_i(traj^t)) over the
    indexed periods t at which it requests resource i, in ascending t;
    traj^t is the length-t head of ``traj``, one shared object per period,
    so readers take the prefixes from the terms: ``grad_component`` reads
    its values there, and ``recursive_R`` walks the same terms for an
    entry's dependencies.  The cut and the heads are the ones the handle's
    ``fixed_head`` gives, so on a tree they are the tree nodes' own
    prefixes, not copies.  The engine keys a draw by the object (equal
    cuts are one object within a table), never by ``traj``.  Draws index
    only the sampled periods of their level: O(eta2) node lookups, not O(T).
    """

    __slots__ = ("traj", "terms")

    def __init__(self, traj: Prefix,
                 rcvs: Iterable[tuple[Prefix, Sequence[tuple[int, float]]]]):
        """``rcvs`` yields (traj^t, sparse r.c.v. of period t), ascending t."""
        terms: dict[int, list[tuple[Prefix, float]]] = {}
        for head, pairs in rcvs:
            for i, v in pairs:
                terms.setdefault(i, []).append((head, v))
        self.traj = traj
        self.terms = terms


class MemoTable:
    """Write-once iterate table plus its draw store and decision cache.

    Entry (prefix, k) stores X^k(prefix) for k >= 1; levels k <= 0 are
    zero and not stored (see ``_extrapolation``).  Entries are never
    reassigned.  Draw sets are not cached: the recursion asks for each
    once, and a repeated ``conditional_draws`` call draws again and
    returns the same ``PathDraw`` objects.  The recursion simulates only for
    entries (S, k) at level >= 2 whose node requests a resource (the
    others read no draw, see ``_entry_draws``) and whose handle does not
    fix S's first max(aleph_(k-1)) rows (see ``conditional_draws``), so
    ``sim_calls`` is eta1 times the number of those entries.
    ``draws`` is the draw store: one ``PathDraw`` per (cut key, sampled
    periods), shared by completions that agree through the cut and by
    levels whose period subsamples are equal, so a repeated draw is a
    repeated object and shares one derivative.  ``decisions`` caches
    decide_pen's averaged value per prefix key.  ``_evals`` holds one
    evaluator of Y^k per level k, built on first use.  ``sim_calls`` and
    ``writes`` (the entry count) count the recursion's work for the
    complexity and horizon checks.
    Every entry is a pure function of (master seed, prefix, level), so one
    table may serve any episodes of one (instance, SolverConfig).  The
    table is bound to the first config it is used with, and the engine's
    entry points refuse an unequal one (``MemoIntegrityError``): its
    decisions and evaluators hold that config's K and betas.
    """

    __slots__ = ("entries", "draws", "decisions", "_evals", "_config",
                 "sim_calls")

    def __init__(self):
        self.entries: dict[tuple[bytes, int], float] = {}
        self.draws: dict[tuple[bytes, tuple[int, ...]], PathDraw] = {}
        self.decisions: dict[bytes, float] = {}
        self._evals: dict[int, Callable[[Prefix], float]] = {}
        self._config: SolverConfig | None = None
        self.sim_calls = 0

    @property
    def writes(self) -> int:
        """Entries written so far: each (prefix, level) is written once."""
        return len(self.entries)

    def value(self, prefix: Prefix, k: int) -> float:
        return self.entries[(prefix.key, k)]

    def put(self, prefix: Prefix, k: int, value: float) -> None:
        key = (prefix.key, k)
        if k <= 0 or key in self.entries:
            raise MemoIntegrityError(f"memo entry {key!r} already assigned")
        if not -_EVAL_TOL <= value <= 1 + _EVAL_TOL:
            raise MemoIntegrityError(f"iterate {value} escaped [0, 1]")
        self.entries[key] = value

    def _bind(self, config: SolverConfig) -> None:
        """Tie the table to ``config`` on first use; refuse an unequal one.

        Callers test ``memo._config is not config`` first, so a call with
        the bound object itself costs one identity test.
        """
        if self._config is not None and self._config != config:
            raise MemoIntegrityError(
                f"memo table is bound to {self._config!r}, not {config!r}")
        self._config = config

    def counters(self) -> dict[str, int]:
        return {"writes": self.writes, "sim_calls": self.sim_calls}


def _head_missing(c: int) -> ContractViolationError:
    return ContractViolationError(
        f"fixed_head returned None for a head of length {c} <= |prefix|")


def conditional_draws(sim: SimulatorHandle, memo: MemoTable, prefix: Prefix,
                      k: int, config: SolverConfig) -> tuple[PathDraw, ...]:
    """The multiset of eta1 completions for (prefix, k).

    Draw j uses the key (master_seed, "traj", k, prefix_key, j), encoded
    hierarchically (a digest of the first four parts plus the counter j), so
    the multiset is a pure function of the master seed and is shared with
    the full-sweep method.  A draw is read only at its heads of length t in
    aleph_k, so it is kept as its cut: its first c = max(aleph_k) rows.
    Every head is taken through the handle's ``fixed_head``.  If
    ``fixed_head(prefix, c)`` knows the cut (always when c <= |prefix|; on
    a tree also when the prefix has a single-child chain down to c), the
    draw set is eta1 references to one ``PathDraw``, with no simulator
    call.  Else each completion is simulated and its cut is
    ``fixed_head(completion, c)``.  Each new cut is indexed once, at its
    heads ``fixed_head(cut, t)`` for t in aleph_k through the handle's
    ``node`` lookup, and kept in ``memo.draws`` per (cut key, aleph_k).
    On a tree every cut and head is then a node's own prefix; on a
    generative handle it is a slice, and a lazy completion simulates only
    its first c rows.  Nothing is kept per (prefix, k): a repeated call
    draws again (eta1 sim calls unless the cut is fixed) and returns the
    same ``PathDraw`` objects.  A ``fixed_head`` that returns None for some
    c <= |prefix| breaks the handle contract (``ContractViolationError``).
    """
    if k < 0:
        raise ParameterError("draw level must be >= 0")
    if memo._config is not config:
        memo._bind(config)
    aleph = sample_index_set(config, sim.instance.T, k)
    c = aleph[-1]
    fixed_head = sim.fixed_head
    cut = fixed_head(prefix, c)
    if cut is not None:
        # every draw has this head: one cut stands for all eta1 of them
        cuts = [cut]
    elif c <= len(prefix):
        raise _head_missing(c)
    else:
        base = keys.key_digest(config.master_seed, "traj", k, prefix.key)
        cuts = []
        for j in range(1, config.eta1 + 1):
            cut = fixed_head(sim.complete(prefix, (base, j)), c)
            if cut is None:
                raise _head_missing(c)
            cuts.append(cut)
        memo.sim_calls += config.eta1
    node = sim.node
    store = memo.draws
    out = []
    for cut in cuts:
        path_key = (cut.key, aleph)
        pd = store.get(path_key)
        if pd is None:
            rcvs = []
            for t in aleph:
                head = fixed_head(cut, t)
                if head is None:
                    raise _head_missing(t)
                rcvs.append((head, node(head)[1]))
            pd = store[path_key] = PathDraw(cut, rcvs)
        out.append(pd)
    return tuple(out) * (config.eta1 // len(out))


def _checked_eval(raw: Callable[[Prefix], float]) -> Callable[[Prefix], float]:
    """A caller's evaluator, refused outside the extrapolation range [-1, 2]."""
    def evalx(p: Prefix) -> float:
        v = raw(p)
        if not -1.0 - _EVAL_TOL <= v <= 2.0 + _EVAL_TOL:
            raise ContractViolationError(
                f"eval value {v} outside the extrapolation range [-1, 2]")
        return v
    return evalx


def grad_component(z_s: float, a_s: Sequence[tuple[int, float]],
                   draws: Sequence[PathDraw],
                   evalx: Callable[[Prefix], float], b: Sequence[float],
                   T: int, eta1: int, eta2: int, theta: float,
                   iota: float) -> float:
    """One coordinate of the biased stochastic gradient.

    Z(S) - (2/iota) sum_{i in a+(S)} a_i(S) * eta1^-1 sum_{draws S'}
    phi'_theta( (T/eta2) sum_{t in aleph ^ T_i(S')} a_i(S'^t) X(S'^t) - b_i ).

    The draws are indexed at the sampled periods aleph only, so their
    ``terms`` already range over aleph ^ T_i(S'), and each term carries the
    prefix S'^t that ``evalx`` reads.  A draw object repeated in ``draws``
    shares one derivative; within a table, equal cuts are one object
    (``MemoTable.draws``), and distinct objects with equal terms give the
    same bits anyway.  The iteration order (resources ascending, draws in
    key order, periods ascending) is part of the bitwise-equivalence
    contract between the full-sweep and on-demand implementations.
    """
    if not a_s:
        return z_s
    theta = _check_theta(theta)  # once per gradient, not per derivative
    scale = T / eta2
    total = 0.0
    for i, ai in a_s:
        acc = 0.0
        by_draw: dict[PathDraw, float] = {}
        for d in draws:
            phi = by_draw.get(d)
            if phi is None:
                s = 0.0
                for head, v in d.terms.get(i, ()):
                    s += v * evalx(head)
                phi = by_draw[d] = huber_deriv(scale * s - b[i], theta)
            acc += phi
        total += ai * (acc / eta1)
    return z_s - 2.0 / iota * total


def stochastic_grad_component(evalx: Callable[[Prefix], float],
                              sim: SimulatorHandle, memo: MemoTable,
                              prefix: Prefix, k: int,
                              config: SolverConfig) -> float:
    """Evaluate the estimator's S-coordinate at iteration k.

    ``evalx`` supplies the (extrapolated) solution values at every prefix of
    the cached completions; values outside [-1, 2] are rejected.
    """
    inst = sim.instance
    draws = conditional_draws(sim, memo, prefix, k, config)
    z_s, a_s = sim.node(prefix)
    return grad_component(z_s, a_s, draws, _checked_eval(evalx),
                          inst.b, inst.T, config.eta1, config.eta2,
                          config.theta, inst.iota)


def _clip01(v: float) -> float:
    return 0.0 if v < 0.0 else (1.0 if v > 1.0 else v)


def _extrapolation(memo: MemoTable, beta: float, k: int):
    """Evaluator of the extrapolated point Y^k = (1 + beta) X^k - beta X^(k-1).

    The one place Y is formed; levels below 1 are zero, so Y^0 = 0.  No
    range check: iterates lie in [0, 1] (``_clip01``) and beta in [0, 1),
    so Y^k lies in [-beta, 1 + beta], inside [-1, 2].  With beta = 0 (every
    unaccelerated level, and accelerated k <= 1) Y^k is X^k bit for bit:
    (1 + 0.0) x - 0.0 y is x for iterates, which are never -0.0, so the
    evaluator reads the one entry.  ``_compute_entry`` builds one per
    level per table and keeps it in ``memo._evals``: it reads the table's
    live ``entries``, and beta is fixed by the config the table is bound to.
    """
    entries = memo.entries
    if not beta and k > 0:
        return lambda p: entries[(p.key, k)]

    def evalx(p: Prefix) -> float:
        if k > 1:
            y = entries[(p.key, k - 1)]
        elif k:
            y = 0.0
        else:
            return 0.0
        return (1.0 + beta) * entries[(p.key, k)] - beta * y
    return evalx


def _entry_draws(sim: SimulatorHandle, memo: MemoTable, prefix: Prefix,
                 k: int, config: SolverConfig):
    """(Z(S), a(S), draws): the node of entry (S, k) and the draws it reads.

    Entry (S, k) reads the level-(k-1) draws only if k >= 2 and S requests
    a resource; otherwise its draw set is ().  A resource-free S has no
    load term, and at k = 1 the evaluator is X^0 = X^-1 = 0, so every
    derivative is huber_deriv(-b_i) = 0.0 (budgets are >= 0) whatever was
    drawn.  ``grad_component`` over () returns z_s - 2/iota * 0.0, the bits
    of Z(S).  ``conditional_draws`` itself draws at every level, for
    callers that bring their own evaluator.
    """
    z_s, a_s = sim.node(prefix)
    if k < 2 or not a_s:
        return z_s, a_s, ()
    return z_s, a_s, conditional_draws(sim, memo, prefix, k - 1, config)


def _compute_entry(sim: SimulatorHandle, memo: MemoTable, prefix: Prefix,
                   k: int, config: SolverConfig, reads) -> None:
    """Fill memo[(prefix, k)] from ``reads = _entry_draws(..., prefix, k, ...)``.

    X^k(S) = clip01(Y^(k-1)(S) + alpha * ghat), where one evaluator of
    Y^(k-1) gives the step's start and the values the gradient reads.
    Every dependency must already be present.  An empty draw set gives the
    gradient Z(S) without an evaluator (see ``_entry_draws``).  The
    evaluator is the table's one for level k-1, built on first use.
    """
    z_s, a_s, draws = reads
    y = memo._evals.get(k - 1)
    if y is None:
        y = memo._evals[k - 1] = _extrapolation(memo, config.beta(k - 1),
                                                k - 1)
    ghat = z_s
    if draws:
        inst = sim.instance
        ghat = grad_component(z_s, a_s, draws, y, inst.b, inst.T,
                              config.eta1, config.eta2, config.theta,
                              inst.iota)
    memo.put(prefix, k, _clip01(y(prefix) + config.alpha * ghat))


def recursive_R(sim: SimulatorHandle, memo: MemoTable, prefix: Prefix, k: int,
                config: SolverConfig) -> float:
    """On-demand computation of X^k(prefix) with memoization.

    Runs the recursion over an explicit work stack: computing (S, k) first
    requires (S, k-1), then (h, k-1) for each head h that ``grad_component``
    reads from the draws ``_entry_draws`` gives (S, k), walked once each in
    the gradient's order.  Each table entry is computed exactly once; an
    entry already present is returned without a write.  No frame needs a
    present-check: its dependencies are distinct entries one level below
    it, pushed only if absent, and while one of them is processed the only
    entry written at its level is itself (``MemoTable.put`` refuses a
    second write).  A call costs eta1 sim calls per new entry (S, k) at
    level >= 2 whose node requests a resource and whose handle does not fix
    S's first max(aleph_(k-1)) rows (``SimulatorHandle.fixed_head``), and
    none for any other entry.  The table must be bound to ``config`` or
    fresh (``MemoTable``).
    """
    if memo._config is not config:
        memo._bind(config)
    if k <= 0:
        return 0.0
    entries = memo.entries
    key = (prefix.key, k)
    if key in entries:
        return entries[key]
    # a frame is [prefix, level, its _entry_draws once expanded, else None]
    stack: list[list] = [[prefix, k, None]]
    while stack:
        frame = stack[-1]
        S, kk, reads = frame
        if reads is None:
            _, a_s, draws = frame[2] = _entry_draws(sim, memo, S, kk, config)
            if kk > 1:  # level 0 is implicitly zero: nothing to compute
                # S, then the heads the gradient reads, in its order
                deps = {S.key: S}
                unique = dict.fromkeys(draws)  # repeated draws share one object
                for i, _ in a_s:
                    for d in unique:
                        for head, _ in d.terms.get(i, ()):
                            if head.key not in deps:
                                deps[head.key] = head
                for dep in reversed(deps.values()):
                    if (dep.key, kk - 1) not in entries:
                        stack.append([dep, kk - 1, None])
        else:
            _compute_entry(sim, memo, S, kk, config, reads)
            stack.pop()
    return entries[key]


def _averaged(memo: MemoTable, prefix: Prefix, K: int) -> float:
    """K^-1 sum_j X^j(prefix) over the memo entries, summed over j ascending."""
    total = 0.0
    for j in range(1, K + 1):
        total += memo.value(prefix, j)
    return _clip01(total / K)


def decide_pen(sim: SimulatorHandle, memo: MemoTable, prefix: Prefix,
               config: SolverConfig) -> float:
    """The penalty policy's fractional decision: the average of the K iterates.

    The average is cached per prefix in ``memo.decisions``, so a table that
    serves several episodes computes each decision once; the table must be
    bound to ``config`` or fresh (``MemoTable``).
    """
    if config.K < 1:
        raise ParameterError("decide_pen needs K >= 1")
    if memo._config is not config:
        memo._bind(config)
    x = memo.decisions.get(prefix.key)
    if x is None:
        recursive_R(sim, memo, prefix, config.K, config)
        x = memo.decisions[prefix.key] = _averaged(memo, prefix, config.K)
    return x


def run_algorithm1_explicit(tree: ExplicitScenarioTree, config: SolverConfig,
                            memo: MemoTable | None = None):
    """Full-sweep reference run over every prefix of an explicit tree.

    Returns the list of iterate maps [X^1, ..., X^K] (prefix key to value).
    Shares the keyed sampling streams with ``recursive_R``; under the same
    master seed the two produce identical values.  A given ``memo`` must be
    bound to ``config`` or fresh.
    """
    if len(tree) > _ALG1_NODE_CAP:
        raise CapacityError(
            f"tree has {len(tree)} nodes; full sweep capped at {_ALG1_NODE_CAP}")
    sim = tree_as_simulator(tree)
    memo = memo if memo is not None else MemoTable()
    if memo._config is not config:
        memo._bind(config)
    # zero-mass prefixes have no conditional law and never affect the
    # objective or the policy; the sweep skips them, and the recursion
    # refuses them through the tree's node lookup
    prefixes = [p for p in tree.prefixes() if tree.mu(p) > 0.0]
    iterates = []
    for k in range(1, config.K + 1):
        for S in prefixes:
            _compute_entry(sim, memo, S, k, config,
                           _entry_draws(sim, memo, S, k, config))
        iterates.append({S.key: memo.value(S, k) for S in prefixes})
    return iterates


def averaged_solution(tree: ExplicitScenarioTree,
                      config: SolverConfig) -> dict[bytes, float]:
    """The sweep reference: decide_pen's value at every positive-mass prefix.

    Runs the full sweep into one ``MemoTable`` and averages each prefix's
    K iterates from it with decide_pen's own routine, so the table equals
    the streaming decisions bit for bit.  Tests use it as the oracle for
    the recursion; the policies never read it.
    """
    memo = MemoTable()
    run_algorithm1_explicit(tree, config, memo)
    return {S.key: _averaged(memo, S, config.K)
            for S in tree.prefixes() if tree.mu(S) > 0.0}


def leaf_grad_table(tree: ExplicitScenarioTree, prefix: Prefix,
                    x: dict[bytes, float], config: SolverConfig):
    """Per-completion values of the gradient integrand at a fixed solution.

    Requires eta2 = T (no period subsampling).  Returns (leaf keys,
    conditional probabilities, values) where values[j] is
    ``grad_component`` with eta1 = 1 and leaf j, indexed at every period,
    as the single draw; the solution is read unchecked.  The leaves are
    enumerated here, not drawn, so engine draws can be cross-checked
    against the table bitwise.  Used to scale up unbiasedness statistics
    without paying the keyed-draw overhead per sample.
    """
    inst = tree.instance
    if config.eta2 != inst.T:
        raise ParameterError("leaf_grad_table requires eta2 = T")
    node = tree.node(prefix)
    leaf_keys, cond = tree.leaves_under(prefix.key)
    values = []
    for lk in leaf_keys:
        chain = tree.path(lk)
        pd = PathDraw(chain[-1].prefix, [(nd.prefix, nd.a) for nd in chain])
        values.append(grad_component(node.z, node.a, (pd,), lambda p: x[p.key],
                                     inst.b, inst.T, 1, config.eta2,
                                     config.theta, inst.iota))
    return leaf_keys, cond, np.asarray(values)


# ---------------------------------------------------------------------------
# Theory schedule (exact closed forms)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ParamBundle:
    alpha: float
    K: int
    eta1: int
    eta2: int


def _frac(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if not math.isfinite(x):
        raise ParameterError(f"schedule parameter {x} is not finite")
    return Fraction(x)


def _ceil_sqrt(x: Fraction | int) -> int:
    """ceil(sqrt(x)) for x > 0, exactly: the least s with s^2 >= ceil(x)."""
    return 1 + math.isqrt(math.ceil(x) - 1)


def theta_default(epsilon: float, T: int, iota: float, V: int) -> float:
    """Default smoothing level epsilon * iota * T / (4 V)."""
    if V < 1:
        raise ParameterError("V must be >= 1")
    return float(_frac(epsilon) * _frac(iota) * T / (4 * V))


def theory_params(mode: str, epsilon: float, L: int, iota: float, theta: float,
                  T: int, U: int | None = None, W: int | None = None) -> ParamBundle:
    """Parameter schedule meeting the convergence guarantees, in exact arithmetic.

    Unaccelerated: alpha = iota^2 eps / (24 L^2), K = ceil(288 L^2/(eps^2
    iota^2)), eta1 = ceil(2304 L^2/(iota^2 eps^2)), eta2 = min(ceil(20736
    L^2 T^2/(iota^2 theta^2 eps^2)), T).  Accelerated: with q =
    ceil((ULW)^(1/4)/sqrt(iota theta)), alpha = 1/(4 q^2), K = 8 q
    ceil(eps^(-1/2)), eta1 = ceil(45696 L^2/(iota^2 eps^2)), eta2 =
    min(ceil(221184 L^2 T^2/(iota^2 theta^2 eps^2)), T).  The float inputs
    are read as the exact rationals they hold, and every ceiling, the roots
    included, is taken in integer arithmetic: q is the least integer with
    q^4 (iota theta)^2 >= ULW, computed as ceil(sqrt(ceil(sqrt(x)))) for x =
    ULW/(iota theta)^2, and ceil(eps^(-1/2)) the least s with s^2 eps >= 1.
    """
    eps = _frac(epsilon)
    io = _frac(iota)
    th = _frac(theta)
    if not 0 < eps <= 1:
        raise ParameterError("epsilon must lie in (0, 1]")
    if not 0 < io <= 1:
        raise ParameterError("iota must lie in (0, 1]")
    if not 0 < th <= T:
        raise ParameterError("theta must lie in (0, T]")
    if L < 1:
        raise ParameterError("L must be >= 1")
    if mode == "unaccelerated":
        alpha = io * io * eps / (24 * L * L)
        K = math.ceil(288 * L * L / (eps * eps * io * io))
        eta1 = math.ceil(2304 * L * L / (io * io * eps * eps))
        eta2 = min(math.ceil(20736 * L * L * T * T / (io * io * th * th * eps * eps)), T)
        return ParamBundle(float(alpha), K, eta1, eta2)
    if mode == "accelerated":
        if U is None or W is None:
            raise ParameterError("accelerated schedule needs U and W")
        if not (U > 0 and W > 0):
            raise ParameterError("U and W must be positive")
        q = _ceil_sqrt(_ceil_sqrt(_frac(U * L * W) / (io * th) ** 2))
        alpha = Fraction(1, 4) / (q * q)
        K = 8 * q * _ceil_sqrt(1 / eps)
        eta1 = math.ceil(45696 * L * L / (io * io * eps * eps))
        eta2 = min(math.ceil(221184 * L * L * T * T / (io * io * th * th * eps * eps)), T)
        return ParamBundle(float(alpha), K, eta1, eta2)
    raise ParameterError(f"unknown schedule {mode!r}")
