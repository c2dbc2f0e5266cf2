"""Shared instance builders for the test suite."""

from __future__ import annotations

from onlinepack import keys
from onlinepack.model import ExplicitScenarioTree, TreeBuilder


def one_node_tree(z=0.5, a=1.0, b=0.5, iota=1.0) -> ExplicitScenarioTree:
    tb = TreeBuilder(T=1, m=1, b=(b,), L=1, iota=iota)
    tb.add(None, (0.0,), 1.0, z=z, a={0: a} if a else {})
    return tb.build()


def random_tree(seed, T=3, m=2, L=2, iota=0.3, max_children=3,
                integral_a=False, zero_rcv_prob=0.2, budgets=None,
                min_children=1, zero_mass_prob=0.0) -> ExplicitScenarioTree:
    """Random explicit tree satisfying the packing assumptions.

    Observations are distinct counters, so sibling prefixes never collide.
    With ``integral_a`` every consumption value is 1 and budgets default to
    small integers (the DP-exact regime).  With probability
    ``zero_mass_prob`` a node with several children gives its first child
    zero mass.
    """
    gen = keys.generator(seed, "test-tree")
    if budgets is None:
        if integral_a:
            budgets = tuple(float(gen.integers(1, 3)) for _ in range(m))
        else:
            budgets = tuple(float(0.5 + 1.5 * gen.random()) for _ in range(m))
    tb = TreeBuilder(T=T, m=m, b=budgets, L=L, iota=1.0 if integral_a else iota)
    counter = [0]

    def rcv():
        if gen.random() < zero_rcv_prob:
            return {}
        size = int(gen.integers(1, min(L, m) + 1))
        ids = gen.choice(m, size=size, replace=False)
        if integral_a:
            return {int(i): 1.0 for i in ids}
        return {int(i): float(iota + (1 - iota) * gen.random()) for i in ids}

    def expand(parent, depth):
        n_children = int(gen.integers(min_children, max_children + 1))
        raw = gen.random(n_children) + 0.05
        if n_children > 1 and zero_mass_prob and gen.random() < zero_mass_prob:
            raw[0] = 0.0
        probs = raw / raw.sum()
        for j in range(n_children):
            counter[0] += 1
            child = tb.add(parent, (float(counter[0]),), float(probs[j]),
                           z=float(gen.random()), a=rcv())
            if depth + 1 < T:
                expand(child, depth + 1)

    expand(None, 0)
    return tb.build()


def windowed_tree(T, window=4, seed=0, budget=2.0) -> ExplicitScenarioTree:
    """Horizon-T tree whose stochastic, budget-consuming part is the first
    ``window`` periods; later periods are deterministic no-shows.

    Built from tables drawn independently of T, so trees with different
    horizons share the exact same first-``window`` structure (observations,
    probabilities, rewards).  Used to check horizon independence of the
    per-decision work.
    """
    assert T >= window
    gen = keys.generator(seed, "windowed-tables")
    branch_p = {}
    z_of = {}
    for d in range(1, window + 1):
        u = float(gen.random())
        branch_p[d] = (0.3 + 0.4 * u, 0.7 - 0.4 * u)
        z_of[(d, 0)] = float(gen.random())
        z_of[(d, 1)] = float(gen.random())
    tb = TreeBuilder(T=T, m=1, b=(budget,), L=1, iota=1.0)

    def expand(parent, depth):
        if depth <= window:
            for code in (0, 1):
                child = tb.add(parent, (float(code),), branch_p[depth][code],
                               z=z_of[(depth, code)], a={0: 1.0})
                if depth < T:
                    expand(child, depth + 1)
        else:
            child = tb.add(parent, (float(9 + depth),), 1.0, z=0.0, a={})
            if depth < T:
                expand(child, depth + 1)

    expand(None, 1)
    return tb.build()


def two_branch_tree(p_up=0.5) -> ExplicitScenarioTree:
    """T=1 tree with an up/down branch, for frequency tests."""
    tb = TreeBuilder(T=1, m=1, b=(1.0,), L=1, iota=1.0)
    tb.add(None, (1.0,), p_up, z=1.0, a={0: 1.0})
    tb.add(None, (0.0,), 1.0 - p_up, z=0.0, a={0: 1.0})
    return tb.build()


def random_solution(tree, seed, lo=0.0, hi=1.0):
    gen = keys.generator(seed, "test-x")
    return {p.key: float(lo + (hi - lo) * gen.random()) for p in tree.prefixes()}
