"""Exact small-instance solvers and policy evaluators.

The integer optimum comes from backward induction over (tree node,
remaining budget) states; the fractional optimum from an explicit solve of
the deterministic-equivalent linear program (one constraint per resource
and trajectory); the smoothed penalty optimum from deterministic projected
ascent on the exact conditional-expectation gradient.  Policies are scored
either exactly by a tree sweep or by Monte Carlo episodes with a hard
feasibility audit.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass
from typing import Callable, Mapping

import numpy as np

from .errors import (CapacityError, ConvergenceError, FeasibilityAuditError,
                     InstanceError, ParameterError)
from .model import (EMPTY_PREFIX, ExplicitScenarioTree, Prefix,
                    SimulatorHandle, derive_structure_constants)
from .penalty import _reward, exact_grad_f_theta, eval_f_theta

_AUDIT_TOL = 1e-9
_DP_STATE_CAP = 1_000_000
_LP_DIM_CAP = 10_000
_ENUM_CAP = 22
_PEN_TOL = 1e-8
_PEN_MAX_ITERS = 200_000


# ---------------------------------------------------------------------------
# Exact integer optimum by dynamic programming
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PackSolution:
    value: float
    policy: Mapping[tuple[bytes, tuple], int]


def solve_pack_dp(tree: ExplicitScenarioTree) -> PackSolution:
    """Exact optimum of the integer program by backward induction.

    The state is (node, remaining budget vector), the remainders kept as
    exact float tuples; an arrival fits when each budget it requests has at
    least its consumption left, within 1e-9.  This is exact on a tree
    because only finitely many decision histories reach any node.  The
    memo is capped, and so is the recursion's depth by the interpreter's;
    exceeding either raises CapacityError rather than approximating.
    """
    inst = tree.instance
    memo: dict[tuple[bytes, tuple], float] = {}
    choice: dict[tuple[bytes, tuple], int] = {}

    def best(node_key: bytes, rem: tuple) -> float:
        state = (node_key, rem)
        cached = memo.get(state)
        if cached is not None:
            return cached
        node = tree.node(node_key)
        need = dict(node.a)
        fits = all(rem[i] >= u - _AUDIT_TOL for i, u in need.items())
        options = []
        for d in (0, 1) if fits else (0,):
            rem_after = rem
            if d and need:
                rem_list = list(rem)
                for i, u in need.items():
                    rem_list[i] -= u
                rem_after = tuple(rem_list)
            future = 0.0
            if node.children:
                mu = node.mu
                for child in tree.children(node_key):
                    if child.mu == 0.0:
                        continue
                    future += (child.mu / mu) * best(child.prefix.key, rem_after)
            options.append((d * node.z + future, d))
        val, dec = max(options, key=lambda o: (o[0], -o[1]))
        if len(memo) >= _DP_STATE_CAP:
            raise CapacityError(f"DP memo exceeds cap {_DP_STATE_CAP}")
        memo[state] = val
        choice[state] = dec
        return val

    total = 0.0
    try:
        for rk in tree.root_keys:
            root = tree.node(rk)
            if root.mu > 0:
                total += root.mu * best(rk, tuple(inst.b))
    except RecursionError:  # one frame per period
        raise CapacityError(f"DP recursion over T = {inst.T} periods exceeds "
                            f"the interpreter's depth limit") from None
    return PackSolution(value=total, policy=choice)


def enumerate_pack(tree: ExplicitScenarioTree) -> float:
    """Brute-force optimum over all 0/1 assignments; oracle for the DP."""
    prefixes = tree.prefixes()
    n = len(prefixes)
    if n > _ENUM_CAP:
        raise CapacityError(
            f"{n} decision nodes exceed enumeration cap {_ENUM_CAP}")
    inst = tree.instance
    index = {k: j for j, k in enumerate(tree.order)}
    leaf_rows = []
    for leaf_key in tree.support_leaf_keys:
        chain = tree.path(leaf_key)
        leaf_rows.append(([index[nd.prefix.key] for nd in chain],
                          [nd.a for nd in chain]))
    mu_z = [tree.mu(p) * tree.node(p).z for p in prefixes]
    best_val = 0.0
    for mask in range(1 << n):
        x = [(mask >> j) & 1 for j in range(n)]
        ok = True
        for idx, rcvs in leaf_rows:
            loads: dict[int, float] = {}
            for pos, pairs in zip(idx, rcvs):
                if x[pos]:
                    for i, v in pairs:
                        loads[i] = loads.get(i, 0.0) + v
            if any(load > inst.b[i] + _AUDIT_TOL for i, load in loads.items()):
                ok = False
                break
        if ok:
            val = sum(w * xi for w, xi in zip(mu_z, x))
            best_val = max(best_val, val)
    return best_val


# ---------------------------------------------------------------------------
# Fractional optima: explicit LP and smoothed-penalty ascent
# ---------------------------------------------------------------------------


def _lp_arrays(tree: ExplicitScenarioTree):
    """The deterministic-equivalent LP in one pass over the support leaves.

    Columns follow ``tree.order``; each support leaf contributes one budget
    row per resource it requests, resources ascending.  Returns (objective,
    sparse CSR A_ub, right-hand sides, leaf mass of each row).
    """
    from scipy import sparse

    index = {k: j for j, k in enumerate(tree.order)}
    c = np.array([-nd.mu * nd.z for nd in map(tree.node, tree.order)])
    b = tree.instance.b
    data: list[float] = []
    cols: list[int] = []
    indptr = [0]
    rhs: list[float] = []
    row_mu: list[float] = []
    for leaf_key in tree.support_leaf_keys:
        chain = tree.path(leaf_key)
        mu = chain[-1].mu
        per_resource: dict[int, list[tuple[int, float]]] = {}
        for nd in chain:
            col = index[nd.prefix.key]
            for i, v in nd.a:
                per_resource.setdefault(i, []).append((col, v))
        for i, entries in sorted(per_resource.items()):
            for col, v in entries:
                cols.append(col)
                data.append(v)
            indptr.append(len(data))
            rhs.append(b[i])
            row_mu.append(mu)
    a_ub = sparse.csr_matrix((data, cols, indptr), shape=(len(rhs), len(c)))
    return c, a_ub, np.array(rhs), np.array(row_mu)


def solve_lp_explicit(tree: ExplicitScenarioTree):
    """Optimal value and solution of the deterministic-equivalent LP."""
    from scipy.optimize import linprog

    c, a_ub, rhs, _ = _lp_arrays(tree)
    n, n_rows = len(c), len(rhs)
    if n > _LP_DIM_CAP or n_rows > _LP_DIM_CAP:
        raise CapacityError("explicit LP exceeds the oracle dimension cap")
    res = linprog(c, A_ub=a_ub if n_rows else None, b_ub=rhs if n_rows else None,
                  bounds=[(0.0, 1.0)] * n, method="highs",
                  options={"presolve": True})
    if not res.success:
        raise ConvergenceError(f"LP solve failed: {res.message}")
    solution = {k: float(np.clip(v, 0.0, 1.0)) for k, v in zip(tree.order, res.x)}
    return float(-res.fun), solution


def solve_pen_lp(tree: ExplicitScenarioTree):
    """Optimal value of the unsmoothed penalty program via an epigraph LP.

    One auxiliary variable per (trajectory, requested resource) carries the
    hinge (load - b_i)^+ with weight 2 mu(S) / iota in the objective.
    """
    from scipy import sparse
    from scipy.optimize import linprog

    c, a_ub, rhs, row_mu = _lp_arrays(tree)
    n, n_aux = len(c), len(rhs)
    if n + n_aux > _LP_DIM_CAP:
        raise CapacityError("penalty LP exceeds the oracle dimension cap")
    c_full = np.concatenate([c, 2.0 / tree.instance.iota * row_mu])
    a_full = sparse.hstack([a_ub, -sparse.identity(n_aux)]) if n_aux else None
    bounds = [(0.0, 1.0)] * n + [(0.0, None)] * n_aux
    res = linprog(c_full, A_ub=a_full, b_ub=rhs if n_aux else None,
                  bounds=bounds, method="highs")
    if not res.success:
        raise ConvergenceError(f"penalty LP solve failed: {res.message}")
    return float(-res.fun)


def solve_pen_explicit(tree: ExplicitScenarioTree, theta: float):
    """Optimum of the smoothed penalty program by projected gradient ascent.

    Deterministic full-gradient ascent on the exact conditional-expectation
    gradient, with the step implied by the objective's smoothness bound and
    Nesterov momentum restarted whenever it stops helping.  Stops when the
    gradient mapping's sup norm falls below 1e-8.
    """
    inst = tree.instance
    consts = derive_structure_constants(tree)
    lips = 2.0 / (inst.iota * theta) * math.sqrt(
        max(consts.U * consts.L * consts.W, 1))
    step = 1.0 / lips
    keys_order = [p.key for p in tree.prefixes()]
    x = {k: 0.0 for k in keys_order}
    prev = x
    since_restart = 0
    check_every = 20
    for it in range(_PEN_MAX_ITERS):
        beta = (since_restart - 1) / (since_restart + 2) if since_restart >= 1 else 0.0
        probe = {k: x[k] + beta * (x[k] - prev[k]) for k in keys_order}
        g = exact_grad_f_theta(tree, probe, theta)
        nxt = {}
        progress = 0.0
        raw_move = 0.0
        for k in keys_order:
            moved = probe[k] + step * g[k]
            moved = 0.0 if moved < 0.0 else (1.0 if moved > 1.0 else moved)
            nxt[k] = moved
            progress += g[k] * (moved - x[k])
            raw_move = max(raw_move, abs(moved - x[k]) / step)
        prev, x = x, nxt
        since_restart = 0 if progress < 0 else since_restart + 1
        # stationarity is certified at the accepted point, not the probe;
        # the exact check is amortized over a window once movement is small
        if raw_move <= _PEN_TOL or it % check_every == check_every - 1:
            g_here = exact_grad_f_theta(tree, x, theta)
            sup = 0.0
            for k in keys_order:
                moved = x[k] + step * g_here[k]
                moved = 0.0 if moved < 0.0 else (1.0 if moved > 1.0 else moved)
                sup = max(sup, abs(moved - x[k]) / step)
            if sup <= _PEN_TOL:
                return eval_f_theta(tree, x, theta), x
    raise ConvergenceError(
        f"projected ascent did not reach tol {_PEN_TOL} in {_PEN_MAX_ITERS} "
        f"iterations")


def eval_policy_exact(tree: ExplicitScenarioTree,
                      decisions: Mapping[bytes, float]) -> float:
    """Expected reward sum_S mu(S) Z(S) X(S) of a deterministic table."""
    try:
        return _reward(tree, decisions)
    except KeyError:
        raise InstanceError("policy table is missing a prefix") from None


# ---------------------------------------------------------------------------
# Monte Carlo evaluation with a hard feasibility audit
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class EvalReport:
    """Monte Carlo score of a policy that passed its feasibility audit.

    ``eval_policy_mc`` raises on the first episode that overdraws a budget,
    so a report exists only for a clean run: ``violation_count`` is 0 by
    construction and ``max_violation`` is the largest budget excess within
    the 1e-9 tolerance, across all episodes and resources (zero means every
    budget held exactly).
    """

    mean_reward: float
    std_error: float
    episodes: int
    violation_count: int
    max_violation: float

    def csv_row(self) -> dict:
        return {
            "mean_reward": repr(self.mean_reward),
            "std_error": repr(self.std_error),
            "episodes": self.episodes,
            "violation_count": self.violation_count,
            "max_violation": repr(self.max_violation),
        }


PolicyFactory = Callable[[int], Callable[[Prefix], float]]


def eval_policy_mc(sim: SimulatorHandle, policy_factory: PolicyFactory,
                   n_episodes: int, seed: int) -> EvalReport:
    """Score a streaming policy over independent episodes.

    ``policy_factory(episode)`` must return a fresh per-episode decision
    callable.  Every episode is audited against the budgets; any violation
    beyond 1e-9 aborts the evaluation with FeasibilityAuditError carrying
    the offending trace.  ``n_episodes`` must be an int >= 1.
    """
    if isinstance(n_episodes, bool) or not isinstance(n_episodes, int) \
            or n_episodes < 1:
        raise ParameterError(
            f"episode count must be an integer >= 1, got {n_episodes!r}")
    inst = sim.instance
    rewards = np.empty(n_episodes)
    max_violation = 0.0
    for e in range(n_episodes):
        policy = policy_factory(e)
        traj = sim.complete(EMPTY_PREFIX, (seed, "episode", e))
        r = sim.readout(traj)
        consumption = [0.0] * inst.m
        reward = 0.0
        decisions = []
        for t in range(1, inst.T + 1):
            x = float(policy(traj.head(t)))
            decisions.append(x)
            reward += r.reward(t) * x
            if x != 0.0:
                for i, v in r.rcv(t):
                    consumption[i] += v * x
        for i in range(inst.m):
            excess = consumption[i] - inst.b[i]
            if excess > _AUDIT_TOL:
                raise FeasibilityAuditError(
                    f"episode {e} overdraws resource {i} by {excess}",
                    trace={"episode": e, "resource": i,
                           "decisions": decisions,
                           "consumption": consumption})
            if excess > max_violation:
                max_violation = excess
        rewards[e] = reward
    mean = float(rewards.mean())
    se = float(rewards.std(ddof=1) / math.sqrt(n_episodes)) if n_episodes > 1 else 0.0
    return EvalReport(mean_reward=mean, std_error=se, episodes=n_episodes,
                      violation_count=0, max_violation=max_violation)


def reports_to_csv(rows: list[dict]) -> str:
    """Stable-schema CSV for (instance, policy, replicate-group) rows."""
    fields = ["instance", "policy", "seed", "episodes", "mean_reward",
              "std_error", "violation_count", "max_violation"]
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=fields, lineterminator="\n")
    writer.writeheader()
    for row in rows:
        writer.writerow({k: row.get(k, "") for k in fields})
    return buf.getvalue()
