"""Penalty objectives for the deterministic-equivalent program.

The budget constraints are folded into the objective through a one-sided
penalty: the exact hinge ``(.)^+`` for the unsmoothed objective, and a
one-sided Huber function with smoothing parameter theta for the smoothed
one.  Both are weighted by 2/iota, which is what makes large aggregate
violations strictly unprofitable.  On explicit trees the smoothed objective
admits an exact conditional-expectation gradient, used here both by the
oracle ascent and as the reference for the stochastic estimator.
"""

from __future__ import annotations

from typing import Callable, Mapping

from .errors import ParameterError
from .model import ExplicitScenarioTree

SolutionVector = Mapping[bytes, float]


def _check_theta(theta: float) -> float:
    t = float(theta)
    if not t > 0:
        raise ParameterError(f"smoothing parameter must be positive, got {theta}")
    return t


def huber(x: float, theta: float) -> float:
    """One-sided Huber: 0 for x <= 0, x^2/(2 theta) on [0, theta], x - theta/2 after."""
    t = _check_theta(theta)
    if x <= 0.0:
        return 0.0
    if x <= t:
        return 0.5 * x * x / t
    return x - 0.5 * t


def huber_deriv(x: float, theta: float) -> float:
    """Derivative of the one-sided Huber: min(x^+ / theta, 1).

    A positive float theta is used as it is; any other theta goes through
    ``_check_theta``, so a caller that takes many derivatives at one theta
    checks it once and passes the float on (``engine.grad_component``).
    """
    if type(theta) is not float or not theta > 0.0:
        theta = _check_theta(theta)
    if x <= 0.0:
        return 0.0
    return min(x / theta, 1.0)


def _leaf_loads(tree: ExplicitScenarioTree, leaf: bytes, x: SolutionVector):
    """Per-resource loads sum_t a_i(S^t) X(S^t) along one trajectory."""
    loads: dict[int, float] = {}
    for nd in tree.path(leaf):
        xv = x[nd.prefix.key]
        for i, v in nd.a:
            loads[i] = loads.get(i, 0.0) + v * xv
    return loads


def _reward(tree: ExplicitScenarioTree, x: SolutionVector) -> float:
    """Expected reward sum_S mu(S) Z(S) X(S), in prefix order."""
    reward = 0.0
    for p in tree.prefixes():
        node = tree.node(p)
        reward += node.mu * node.z * x[p.key]
    return reward


def _penalty(tree: ExplicitScenarioTree, x: SolutionVector,
             pen: Callable[[float], float]) -> float:
    """sum over support leaves of mu * sum_i pen(load_i - b_i), resources ascending."""
    b = tree.instance.b
    total = 0.0
    for leaf in tree.support_leaf_keys:
        loads = _leaf_loads(tree, leaf, x)
        total += tree.mu(leaf) * sum(pen(load - b[i])
                                     for i, load in sorted(loads.items()))
    return total


def eval_f_theta(tree: ExplicitScenarioTree, x: SolutionVector, theta: float) -> float:
    """Smoothed penalty objective on an explicit tree."""
    t0 = _check_theta(theta)
    return _reward(tree, x) - 2.0 / tree.instance.iota * \
        _penalty(tree, x, lambda v: huber(v, t0))


def eval_f(tree: ExplicitScenarioTree, x: SolutionVector) -> float:
    """Unsmoothed penalty objective (the hinge penalty)."""
    return _reward(tree, x) - 2.0 / tree.instance.iota * aggregate_violation(tree, x)


def aggregate_violation(tree: ExplicitScenarioTree, x: SolutionVector) -> float:
    """Expected total hinge violation sum_S mu(S) sum_i (load_i - b_i)^+."""
    return _penalty(tree, x, lambda v: max(v, 0.0))


def exact_grad_f_theta(tree: ExplicitScenarioTree, x: SolutionVector,
                       theta: float) -> dict[bytes, float]:
    """Conditional-expectation gradient of the smoothed objective.

    Component S is Z(S) - (2/iota) * E[ sum_{i in a+(S)} a_i(S) *
    phi'_theta(load_i(S') - b_i) | S' extends S ], computed by full
    enumeration of the completions of S.  This is the true Euclidean
    partial derivative divided by mu(S).
    """
    t0 = _check_theta(theta)
    inst = tree.instance
    # Per-leaf penalty derivatives are shared by every prefix of the leaf.
    leaf_derivs: dict[bytes, dict[int, float]] = {}
    for leaf in tree.support_leaf_keys:
        loads = _leaf_loads(tree, leaf, x)
        leaf_derivs[leaf] = {
            i: huber_deriv(load - inst.b[i], t0) for i, load in loads.items()
        }
    grad: dict[bytes, float] = {}
    for p in tree.prefixes():
        node = tree.node(p)
        if not node.a:
            grad[p.key] = node.z
            continue
        leaf_keys, cond = tree.leaves_under(p.key)
        acc = 0.0
        for lk, w in zip(leaf_keys, cond):
            derivs = leaf_derivs[lk]
            acc += w * sum(ai * derivs.get(i, 0.0) for i, ai in node.a)
        grad[p.key] = node.z - 2.0 / inst.iota * acc
    return grad
