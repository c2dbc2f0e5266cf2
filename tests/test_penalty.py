import pytest

from helpers import one_node_tree, random_solution, random_tree
from onlinepack import keys
from onlinepack.errors import ParameterError
from onlinepack.model import TreeBuilder
from onlinepack.penalty import (aggregate_violation, eval_f, eval_f_theta,
                                exact_grad_f_theta, huber, huber_deriv)


class TestHuber:
    def test_closed_form_values(self):
        assert huber(-1.0, 2.0) == 0.0
        assert huber(1.0, 2.0) == 0.25
        assert huber(3.0, 2.0) == 2.0
        assert huber_deriv(1.0, 2.0) == 0.5
        assert huber_deriv(5.0, 2.0) == 1.0

    def test_bad_theta(self):
        with pytest.raises(ParameterError):
            huber(1.0, 0.0)
        with pytest.raises(ParameterError):
            huber_deriv(1.0, -1.0)

    def test_sandwich_and_lipschitz_randomized(self):
        gen = keys.generator(100, "huber")
        for _ in range(2000):
            theta = float(0.01 + 5 * gen.random())
            x = float(20 * gen.random() - 10)
            y = float(20 * gen.random() - 10)
            xp = max(x, 0.0)
            tol = 1e-12 * max(1.0, abs(x))
            assert huber(x, theta) <= xp + tol
            assert xp <= huber(x, theta) + theta / 2 + tol
            assert abs(huber_deriv(x, theta) - huber_deriv(y, theta)) \
                <= abs(x - y) / theta + 1e-12


class TestObjectives:
    def test_one_node_hand_values(self):
        tree = one_node_tree(z=0.5, a=1.0, b=1.0)
        key = tree.prefixes()[0].key
        assert eval_f(tree, {key: 1.0}) == 0.5
        tree2 = one_node_tree(z=0.5, a=1.0, b=0.5)
        key2 = tree2.prefixes()[0].key
        assert eval_f(tree2, {key2: 1.0}) == -0.5

    def test_zero_solution_zero_value(self):
        tree = random_tree(seed=3, T=3)
        x = {p.key: 0.0 for p in tree.prefixes()}
        assert eval_f(tree, x) == 0.0
        assert eval_f_theta(tree, x, 0.7) == 0.0

    def test_theta_sandwich_claim(self):
        # |f_theta - f| <= V theta / iota for random solutions
        from onlinepack.model import derive_structure_constants
        for seed in range(6):
            tree = random_tree(seed=seed, T=3, m=2, L=2, iota=0.4)
            consts = derive_structure_constants(tree)
            x = random_solution(tree, seed + 50)
            for theta in (0.05, 0.3, 1.0):
                gap = abs(eval_f_theta(tree, x, theta) - eval_f(tree, x))
                bound = consts.V * theta / tree.instance.iota
                assert gap <= bound + 1e-12

    def test_concavity_midpoint(self):
        tree = random_tree(seed=11, T=3, m=2)
        for trial in range(20):
            x = random_solution(tree, 200 + trial)
            y = random_solution(tree, 300 + trial)
            mid = {k: 0.5 * (x[k] + y[k]) for k in x}
            for f in (lambda s: eval_f(tree, s),
                      lambda s: eval_f_theta(tree, s, 0.4)):
                assert f(mid) >= 0.5 * f(x) + 0.5 * f(y) - 1e-10

    def test_missing_prefix_value(self):
        tree = one_node_tree()
        with pytest.raises(KeyError):
            eval_f(tree, {})


def finite_difference_grad(tree, x, theta, h=1e-6):
    """Central differences of f_theta, rescaled by 1/mu to the
    conditional-expectation convention."""
    out = {}
    for p in tree.prefixes():
        mu = tree.mu(p)
        if mu == 0.0:
            out[p.key] = tree.node(p).z
            continue
        up = dict(x)
        dn = dict(x)
        up[p.key] = x[p.key] + h
        dn[p.key] = x[p.key] - h
        out[p.key] = (eval_f_theta(tree, up, theta)
                      - eval_f_theta(tree, dn, theta)) / (2 * h * mu)
    return out


def solution_away_from_kinks(tree, theta, margin=1e-4, max_tries=50):
    """Random interior solution whose penalty arguments avoid the Huber kinks."""
    for trial in range(max_tries):
        x = random_solution(tree, 7000 + trial, lo=0.05, hi=0.95)
        ok = True
        for leaf in tree.leaves():
            r = tree.readout(leaf)
            loads = {}
            for t in range(1, tree.instance.T + 1):
                for i, v in r.rcv(t):
                    loads[i] = loads.get(i, 0.0) + v * x[leaf.head(t).key]
            for i, load in loads.items():
                arg = load - tree.instance.b[i]
                if abs(arg) < margin or abs(arg - theta) < margin:
                    ok = False
                    break
            if not ok:
                break
        if ok:
            return x
    raise AssertionError("no kink-free solution found")


class TestExactGradient:
    def test_one_node_hand_value(self):
        tree = one_node_tree(z=0.5, a=1.0, b=0.5)
        key = tree.prefixes()[0].key
        g = exact_grad_f_theta(tree, {key: 1.0}, 1.0)
        assert g[key] == pytest.approx(-0.5, abs=1e-15)

    def test_untouched_subtree_gradient_is_reward(self):
        tb = TreeBuilder(T=2, m=1, b=(1.0,), L=1, iota=1.0)
        r = tb.add(None, (0.0,), 1.0, z=0.3, a={})
        tb.add(r, (1.0,), 1.0, z=0.8, a={})
        tree = tb.build()
        g = exact_grad_f_theta(tree, {p.key: 0.7 for p in tree.prefixes()}, 0.5)
        assert g[r.key] == 0.3

    def test_matches_finite_differences(self):
        for seed in (0, 1, 2):
            tree = random_tree(seed=seed, T=3, m=2, L=2, iota=0.5)
            theta = 0.6
            x = solution_away_from_kinks(tree, theta)
            g = exact_grad_f_theta(tree, x, theta)
            fd = finite_difference_grad(tree, x, theta)
            for key, val in g.items():
                rel = abs(fd[key] - val) / max(1.0, abs(val))
                assert rel <= 1e-5

    def test_gradient_consistent_with_objective_slope(self):
        # directional check: an ascent step along the (mu-weighted) gradient
        # cannot lower f_theta
        tree = random_tree(seed=9, T=3, m=2)
        theta = 0.5
        x = random_solution(tree, 99, lo=0.2, hi=0.8)
        g = exact_grad_f_theta(tree, x, theta)
        step = 1e-4
        moved = {k: x[k] + step * tree.node(k).mu * g[k] for k in x}
        assert eval_f_theta(tree, moved, theta) >= eval_f_theta(tree, x, theta)


def _assert_exact_decomposition(tree, x):
    reward = 0.0
    for p in tree.prefixes():
        reward += tree.mu(p) * tree.node(p).z * x[p.key]
    agg = aggregate_violation(tree, x)
    assert eval_f(tree, x) == reward - 2.0 / tree.instance.iota * agg


class TestAggregateViolation:
    def test_matches_objective_decomposition(self):
        tree = random_tree(seed=14, T=3, m=2)
        _assert_exact_decomposition(tree, random_solution(tree, 15))

    def test_decomposition_exact_with_five_resources(self):
        # several hinge terms per leaf: the identity holds only when both
        # sides sum them in the same order (resources ascending)
        tree = random_tree(seed=17, T=3, m=5, L=4, budgets=(0.4,) * 5)
        _assert_exact_decomposition(tree, random_solution(tree, 18))
