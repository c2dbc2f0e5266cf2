import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import one_node_tree, random_tree
from onlinepack import keys, oracle
from onlinepack.engine import MemoTable, SolverConfig
from onlinepack.errors import (FeasibilityAuditError, InstanceError,
                               ParameterError)
from onlinepack.model import (EMPTY_PREFIX, TreeBuilder, demo_tree,
                              generate_nrm, tree_as_simulator)
from onlinepack.oracle import (EvalReport, enumerate_pack, eval_policy_exact,
                               eval_policy_mc, reports_to_csv,
                               solve_lp_explicit, solve_pack_dp,
                               solve_pen_explicit, solve_pen_lp)
from onlinepack.penalty import eval_f, eval_f_theta, exact_grad_f_theta
from onlinepack.policies import new_episode_context, policy_lp, policy_nrm


_NODE_CAP = 16


@st.composite
def _decimal_trees(draw):
    """An explicit tree of at most 16 nodes whose consumptions and budgets
    are multiples of 0.1.

    Built a level at a time: every node has a child, and a level holds no
    more nodes than leave one per node for each level below it.
    """
    T = draw(st.integers(1, 4))
    m = draw(st.integers(1, 2))
    tenths = st.integers(1, 10).map(lambda k: k / 10)
    b = draw(st.lists(st.integers(0, 20).map(lambda k: k / 10),
                      min_size=m, max_size=m))
    tb = TreeBuilder(T=T, m=m, b=b, L=m, iota=0.1)
    parents, size = [None], 0
    for depth in range(T):
        level_cap = (_NODE_CAP - size) // (T - depth)
        level = []
        for j, parent in enumerate(parents):
            room = level_cap - len(level) - (len(parents) - j - 1)
            weights = draw(st.lists(st.integers(1, 4), min_size=1,
                                    max_size=min(3, room)))
            for w in weights:
                ids = draw(st.sets(st.integers(0, m - 1)))
                a = {i: draw(tenths) for i in sorted(ids)}
                level.append(tb.add(parent, (float(size + len(level)),),
                                    w / sum(weights), z=draw(st.floats(0, 1)),
                                    a=a))
        parents, size = level, size + len(level)
    return tb.build()


class TestSolvePackDp:
    def test_worked_instance(self):
        # skip at t=1, always accept at t=2: 0.5 * 1 + 0.5 * 0.2 = 0.6
        sol = solve_pack_dp(demo_tree())
        assert sol.value == pytest.approx(0.6, abs=1e-12)

    def test_zero_rewards(self):
        tb = TreeBuilder(T=2, m=1, b=(1.0,), L=1, iota=1.0)
        r = tb.add(None, (0.0,), 1.0, z=0.0, a={0: 1.0})
        tb.add(r, (1.0,), 1.0, z=0.0, a={0: 1.0})
        assert solve_pack_dp(tb.build()).value == 0.0

    def test_zero_budget_blocks_everything(self):
        tree = one_node_tree(z=0.9, a=1.0, b=0.0)
        assert solve_pack_dp(tree).value == 0.0

    def test_matches_enumeration(self):
        for seed in range(8):
            tree = random_tree(seed=seed, T=3, m=2, integral_a=True,
                               max_children=2)
            if len(tree) > 12:
                continue
            dp = solve_pack_dp(tree)
            brute = enumerate_pack(tree)
            assert dp.value == pytest.approx(brute, abs=1e-12)

    @settings(max_examples=40, deadline=None)
    @given(_decimal_trees())
    def test_matches_enumeration_on_decimal_consumption(self, tree):
        # tenths share no exact float grid, so budgets are kept as float
        # remainders and checked within the audit tolerance
        assert len(tree) <= _NODE_CAP
        assert solve_pack_dp(tree).value == \
            pytest.approx(enumerate_pack(tree), abs=1e-12)

    @staticmethod
    def _zero_mass_tree(c_prob):
        """A positive root whose child C has mass ``c_prob``, beside a root
        of mass 0; both zero-mass branches pay 1 at every node."""
        tb = TreeBuilder(T=3, m=1, b=(1.0,), L=1, iota=1.0)
        a = tb.add(None, (0.0,), 1.0, z=0.6, a={0: 1.0})
        b = tb.add(a, (1.0,), 1.0 - c_prob, z=1.0, a={0: 1.0})
        tb.add(b, (1.0,), 1.0, z=0.0)
        c = tb.add(a, (2.0,), c_prob, z=1.0)
        tb.add(c, (1.0,), 1.0, z=1.0, a={0: 1.0})
        r0 = tb.add(None, (9.0,), 0.0, z=1.0, a={0: 1.0})
        d = tb.add(r0, (1.0,), 1.0, z=1.0)
        tb.add(d, (1.0,), 1.0, z=1.0)
        return tb.build()

    def test_zero_mass_branches_are_skipped(self):
        # mass-weighted, the zero-mass branches add nothing: skip A, take B
        tree = self._zero_mass_tree(0.0)
        dp, brute = solve_pack_dp(tree).value, enumerate_pack(tree)
        assert dp == brute == 1.0
        assert dp <= solve_lp_explicit(tree)[0] + 1e-9
        # the same tree with C at mass 1/2 has another optimum, so an
        # oracle that counted the zero-mass branch would answer otherwise
        counted = self._zero_mass_tree(0.5)
        assert solve_pack_dp(counted).value == enumerate_pack(counted) == 1.5

    def test_matches_enumeration_with_zero_mass_children(self):
        zero_mass = 0
        for seed in range(12):
            tree = random_tree(seed=seed, T=3, m=2, integral_a=True,
                               max_children=2, zero_mass_prob=1.0)
            if len(tree) > 12:
                continue
            zero_mass += sum(tree.mu(p) == 0.0 for p in tree.prefixes())
            dp = solve_pack_dp(tree).value
            assert dp == pytest.approx(enumerate_pack(tree), abs=1e-12)
            assert dp <= solve_lp_explicit(tree)[0] + 1e-9
        assert zero_mass > 0

    def test_fractional_grid_still_exact(self):
        tb = TreeBuilder(T=2, m=1, b=(0.75,), L=1, iota=0.25)
        r = tb.add(None, (0.0,), 1.0, z=0.6, a={0: 0.5})
        tb.add(r, (1.0,), 1.0, z=0.9, a={0: 0.25})
        sol = solve_pack_dp(tb.build())
        assert sol.value == pytest.approx(1.5, abs=1e-12)


class TestSolveLpExplicit:
    def test_worked_instance(self):
        value, x = solve_lp_explicit(demo_tree())
        assert value == pytest.approx(0.6, abs=1e-9)

    def test_zero_reward_tree(self):
        tb = TreeBuilder(T=1, m=1, b=(1.0,), L=1, iota=1.0)
        tb.add(None, (0.0,), 1.0, z=0.0, a={0: 1.0})
        assert solve_lp_explicit(tb.build())[0] == pytest.approx(0.0, abs=1e-12)

    def test_solution_is_feasible(self):
        tree = random_tree(seed=3, T=4, m=2)
        value, x = solve_lp_explicit(tree)
        for leaf in tree.leaves():
            r = tree.readout(leaf)
            loads = {}
            for t in range(1, 5):
                for i, v in r.rcv(t):
                    loads[i] = loads.get(i, 0.0) + v * x[leaf.head(t).key]
            for i, load in loads.items():
                assert load <= tree.instance.b[i] + 1e-7


class TestSolvePen:
    def test_relaxation_chain(self):
        for seed in range(5):
            tree = random_tree(seed=seed, T=3, m=2, integral_a=True)
            pack = solve_pack_dp(tree).value
            lp, _ = solve_lp_explicit(tree)
            pen = solve_pen_lp(tree)
            assert pack <= lp + 1e-9
            assert lp <= pen + 1e-9

    def test_smoothed_close_to_unsmoothed(self):
        from onlinepack.model import derive_structure_constants
        tree = demo_tree()
        consts = derive_structure_constants(tree)
        pen = solve_pen_lp(tree)
        for theta in (0.2, 0.05):
            val, x = solve_pen_explicit(tree, theta)
            bound = consts.V * theta / tree.instance.iota
            assert val >= pen - bound - 1e-9
            assert val <= pen + bound + 1e-9

    def test_ascent_reaches_stationarity(self):
        tree = random_tree(seed=6, T=3, m=2)
        val, x = solve_pen_explicit(tree, 0.4)
        assert val == pytest.approx(eval_f_theta(tree, x, 0.4), abs=1e-12)
        assert all(0.0 <= v <= 1.0 for v in x.values())

    def test_pen_theta_above_lp(self):
        # OPT_pen_theta >= f_theta at the LP solution >= OPT_lp - theta slack
        tree = demo_tree()
        lp, xlp = solve_lp_explicit(tree)
        val, _ = solve_pen_explicit(tree, 0.1)
        assert val >= eval_f_theta(tree, xlp, 0.1) - 1e-9



def _paths_walked(tree, run):
    """The leaf keys whose root-to-leaf path ``run(tree)`` walks, in order."""
    walked = []
    walk = tree.path

    def recording(ref):
        walked.append(ref)
        return walk(ref)

    with mock.patch.object(tree, "path", recording):
        run(tree)
    return walked


@st.composite
def _zero_mass_trees(draw):
    return random_tree(draw(st.integers(0, 10_000)), T=draw(st.integers(1, 3)),
                       m=draw(st.integers(1, 2)), L=1,
                       max_children=draw(st.integers(1, 3)),
                       zero_mass_prob=draw(st.sampled_from([0.5, 1.0])))


class TestSupport:
    """One support rule: the positive-mass leaves, listed once by the tree,
    are what every leaf loop, ``leaves_under`` and the draws range over."""

    @settings(max_examples=60, deadline=None)
    @given(tree=_zero_mass_trees())
    def test_every_consumer_ranges_over_the_support(self, tree):
        support = tree.support_leaf_keys
        assert support == tuple(k for k in tree.leaf_keys if tree.mu(k) > 0.0)
        assert all(tree.mu(k) == 0.0 for k in tree.leaf_keys
                   if k not in support)
        *_, row_mu = oracle._lp_arrays(tree)
        assert all(row_mu > 0.0)
        assert _paths_walked(tree, oracle._lp_arrays) == list(support)
        x = {p.key: 1.0 for p in tree.prefixes()}
        for run in (lambda t: eval_f(t, x),
                    lambda t: exact_grad_f_theta(t, x, 0.5)):
            assert _paths_walked(tree, run) == list(support)
        if len(tree) <= 10:
            assert _paths_walked(tree, enumerate_pack) == list(support)
        for S in tree.prefixes():
            leaf_keys, cond = tree.leaves_under(S)
            below = [k for k in support if tree.node(k).prefix.startswith(S)]
            assert sorted(leaf_keys) == sorted(below) and len(cond) == len(below)
            if tree.mu(S) > 0.0:
                assert math.isclose(float(np.sum(cond)), 1.0, abs_tol=1e-9)

    @settings(max_examples=60, deadline=None)
    @given(tree=_zero_mass_trees())
    def test_complete_draws_each_support_leaf_and_nothing_else(self, tree):
        sim = tree_as_simulator(tree)
        support = set(tree.support_leaf_keys)
        starts = [EMPTY_PREFIX] + [S for S in tree.prefixes()
                                   if tree.mu(S) > 0.0]
        # keys.uniform(*key) reads the first key part as the uniform itself
        with mock.patch.object(keys, "uniform", lambda u: u):
            for S in starts:
                if len(S) == 0:
                    leaf_keys = tree.support_leaf_keys
                    weights = [tree.mu(k) for k in leaf_keys]
                else:
                    leaf_keys, weights = tree.leaves_under(S)
                cum = np.cumsum(weights)
                # the midpoint of each leaf's cumulative interval draws it
                lows = np.concatenate(([0.0], cum[:-1]))
                for k, lo, hi in zip(leaf_keys, lows, cum):
                    assert sim.complete(S, ((lo + hi) / 2 / cum[-1],)).key == k
                for u in (0.0, 0.5, 1.0 - 2.0 ** -53):
                    assert sim.complete(S, (u,)).key in support


    @pytest.mark.parametrize("mass", [0.0, -0.0])
    def test_zero_mass_leaf_adds_no_lp_row(self, mass):
        # a row of negative leaf mass would make the penalty LP unbounded
        # at iota 0.01; a zero-mass leaf adds no row at all
        tb = TreeBuilder(T=2, m=1, b=(1.0,), L=1, iota=0.01)
        r = tb.add(None, (0.0,), 1.0, z=0.5, a={0: 1.0})
        tb.add(r, (1.0,), 1.0, z=1.0, a={0: 1.0})
        tb.add(r, (2.0,), mass, z=1.0, a={0: 1.0})
        tree = tb.build()
        assert list(oracle._lp_arrays(tree)[3]) == [1.0]
        assert solve_lp_explicit(tree)[0] == pytest.approx(1.0, abs=1e-9)
        assert solve_pen_lp(tree) == pytest.approx(1.0, abs=1e-9)

class TestEvalPolicyExact:
    def test_all_ones_ignores_feasibility(self):
        tree = demo_tree()
        ones = {p.key: 1.0 for p in tree.prefixes()}
        assert eval_policy_exact(tree, ones) == pytest.approx(1.1, abs=1e-12)

    def test_zero_policy(self):
        tree = demo_tree()
        zeros = {p.key: 0.0 for p in tree.prefixes()}
        assert eval_policy_exact(tree, zeros) == 0.0

    def test_missing_prefix_is_an_instance_error(self):
        tree = demo_tree()
        partial = {p.key: 1.0 for p in tree.prefixes()[:-1]}
        with pytest.raises(InstanceError, match="missing a prefix"):
            eval_policy_exact(tree, partial)

    def test_dp_policy_replay_matches_value(self):
        tree = demo_tree()
        dp = solve_pack_dp(tree)
        # replay the optimal policy along the tree, tracking the remainders
        decisions = {}

        def walk(node_key, rem):
            node = tree.node(node_key)
            d = dp.policy[(node_key, rem)]
            decisions[node_key] = float(d)
            if d:
                rem_list = list(rem)
                for i, v in node.a:
                    rem_list[i] -= v
                rem = tuple(rem_list)
            for child in tree.children(node_key):
                walk(child.prefix.key, rem)

        for rk in tree.root_keys:
            walk(rk, tuple(tree.instance.b))
        assert eval_policy_exact(tree, decisions) == \
            pytest.approx(dp.value, abs=1e-12)


class TestEvalPolicyMc:
    def test_deterministic_process_zero_stderr(self):
        tree = one_node_tree(z=0.5, a=1.0, b=1.0)
        sim = tree_as_simulator(tree)
        factory = lambda e: (lambda p: 1.0)
        rep = eval_policy_mc(sim, factory, 100, seed=0)
        assert rep.mean_reward == 0.5
        assert rep.std_error == 0.0
        assert rep.violation_count == 0

    def test_same_seed_same_report(self):
        tree = demo_tree()
        sim = tree_as_simulator(tree)
        cfg = SolverConfig(epsilon=0.2, theta=0.2, alpha=0.1, K=10, eta1=4,
                           eta2=2, master_seed=3, practical_override=True)
        memo = MemoTable(cfg)

        def factory(e):
            ctx = new_episode_context(sim, cfg, e, memo=memo)
            return lambda p: policy_lp(ctx, sim, p, cfg)

        r1 = eval_policy_mc(sim, factory, 500, seed=9)
        r2 = eval_policy_mc(sim, factory, 500, seed=9)
        assert (r1.mean_reward, r1.std_error, r1.episodes) == \
            (r2.mean_reward, r2.std_error, r2.episodes)

    def test_stderr_scales_with_episodes(self):
        tree = demo_tree()
        sim = tree_as_simulator(tree)
        # a random policy with per-episode noise via the episode index
        def factory(e):
            return lambda p: (e * 2654435761 % 1000) / 1000 if len(p) == 1 else 0.0
        small = eval_policy_mc(sim, factory, 400, seed=1)
        large = eval_policy_mc(sim, factory, 1600, seed=1)
        ratio = small.std_error / large.std_error
        assert 1.6 <= ratio <= 2.6  # ~2 expected

    def test_kept_trajectories_replay_their_decisions(self):
        # the full-length prefixes a caller keeps from the evaluator replay
        # every decision of their episodes through their heads
        sim = generate_nrm(seed=7, T=12, m=3, L=2, iota=0.3, budget_ratio=0.5,
                           mode="generative", n_events=4)
        cfg = SolverConfig(epsilon=0.1, theta=0.5, alpha=0.1, K=3, eta1=2,
                           eta2=2, master_seed=1, practical_override=True)
        kept, decisions = [], []

        def factory(e):
            ctx = new_episode_context(sim, cfg, e)

            def decide(p):
                decisions.append(policy_nrm(ctx, sim, p, cfg))
                if len(p) == sim.instance.T:
                    kept.append(p)
                return decisions[-1]
            return decide

        eval_policy_mc(sim, factory, 4, seed=2)
        assert len(kept) == 4
        replayed = []
        for e, traj in enumerate(kept):
            ctx = new_episode_context(sim, cfg, e)
            replayed += [policy_nrm(ctx, sim, traj.head(t), cfg)
                         for t in range(1, sim.instance.T + 1)]
        assert replayed == decisions

    @pytest.mark.parametrize("n", [0, -3, 2.5, True, "10"])
    def test_episode_count_below_one_refused(self, n):
        sim = tree_as_simulator(demo_tree())
        played = []
        with pytest.raises(ParameterError, match="episode count"):
            eval_policy_mc(sim, played.append, n, seed=0)
        assert played == []  # refused before any episode starts

    def test_audit_aborts_on_violation(self):
        tree = demo_tree()
        sim = tree_as_simulator(tree)
        factory = lambda e: (lambda p: 1.0)  # always accept: overdraws b=1
        with pytest.raises(FeasibilityAuditError) as err:
            eval_policy_mc(sim, factory, 50, seed=0)
        assert err.value.trace is not None

    def test_audit_reports_an_excess_inside_the_tolerance(self):
        # b = 1 on the demo tree, and both periods request the resource:
        # 0.5 + 2.5e-10 then 0.5 overdraws it by about 2.5e-10 <= 1e-9
        sim = tree_as_simulator(demo_tree())
        factory = lambda e: (lambda p: 0.5 + 2.5e-10 if len(p) == 1 else 0.5)
        report = eval_policy_mc(sim, factory, 3, seed=0)
        assert 0.0 < report.max_violation <= 1e-9
        assert report.violation_count == 0
        row = reports_to_csv([report.csv_row()]).splitlines()[1]
        assert row.split(",")[-1] == repr(report.max_violation)


class TestReports:
    def test_csv_schema_stable(self):
        rep = EvalReport(mean_reward=0.5, std_error=0.01, episodes=10,
                         violation_count=0, max_violation=0.0)
        row = {"instance": "x.json", "policy": "lp", "seed": 1}
        row.update(rep.csv_row())
        text = reports_to_csv([row])
        header = text.splitlines()[0]
        assert header == ("instance,policy,seed,episodes,mean_reward,"
                          "std_error,violation_count,max_violation")
