import dataclasses
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import random_tree
from onlinepack.encodings import (BipartiteNodeProcess, OnlineNodeProcess,
                                  encode_is, encode_mmo, random_is_process)
from onlinepack.engine import MemoTable, SolverConfig, averaged_solution
from onlinepack.errors import InstanceError, SequencingError, SupportError
from onlinepack.model import (EMPTY_PREFIX, TreeBuilder, demo_tree,
                              tree_as_simulator)
from onlinepack.policies import (FeasState, feas_table, floor_policy,
                                 mwm_scaled_epsilon, new_episode_context,
                                 policy_is, policy_lp, policy_mmo_greedy,
                                 policy_nrm, round_bernoulli)


def practical_config(**kw):
    base = dict(epsilon=0.2, theta=0.4, alpha=0.1, K=20, eta1=8, eta2=2,
                master_seed=101, practical_override=True)
    base.update(kw)
    return SolverConfig(**base)


def pinned(values, cfg):
    """A ``cfg`` table whose decide_pen returns ``values`` by prefix key."""
    memo = MemoTable(cfg)
    memo.decisions.update(values)
    return memo


class TestFeasState:
    def test_unit_budget_stream(self):
        fs = FeasState((1.0,))
        a = ((0, 1.0),)
        assert [fs.step(a, x) for x in (0.7, 0.6, 0.5)] == \
            pytest.approx([0.7, 0.3, 0.0])

    def test_fractional_consumption_stream(self):
        fs = FeasState((0.6,))
        a = ((0, 0.5),)
        assert [fs.step(a, x) for x in (1.0, 1.0)] == pytest.approx([1.0, 0.2])

    def test_no_requested_resources_pass_through(self):
        fs = FeasState((0.0,))
        assert fs.step((), 0.9) == 0.9

    @pytest.mark.parametrize("b, a", [(0.5, 0.5), (0.35, 0.6)])
    def test_binding_step_leaves_counter_at_zero(self, b, a):
        # b - a * (b / a) is exactly 0.0 at (0.5, 0.5) and rounds to -5.6e-17
        # at (0.35, 0.6); either way the counter lands on +0.0 and every
        # later request on it is refused with +0.0
        fs = FeasState((b, 1.0))
        assert fs.step(((0, a), (1, 0.5)), 1.0) == b / a
        assert fs.remaining == [0.0, 1.0 - 0.5 * (b / a)]
        for x in (0.8, 0.0, 1.0):
            out = fs.step(((0, a),), x)
            assert out == 0.0 and math.copysign(1.0, out) == 1.0
            assert fs.remaining[0] == 0.0
            assert math.copysign(1.0, fs.remaining[0]) == 1.0

    def test_output_never_exceeds_input(self):
        fs = FeasState((0.35, 0.8))
        for x in (0.9, 0.4, 0.7, 1.0):
            out = fs.step(((0, 0.5), (1, 0.9)), x)
            assert 0.0 <= out <= x
        assert all(r >= 0.0 for r in fs.remaining)


@st.composite
def _feas_cases(draw):
    """A small random tree (budgets may be 0) and a solution in [0, 1]."""
    T = draw(st.integers(1, 3))
    m = draw(st.integers(1, 3))
    b = draw(st.lists(st.sampled_from([0.0, 0.3, 0.7, 1.0, 1.9]),
                      min_size=m, max_size=m))
    tb = TreeBuilder(T=T, m=m, b=b, L=m, iota=0.2)
    unit = st.floats(0.0, 1.0)
    counter = [0]

    def expand(parent, depth):
        n = draw(st.integers(1, 3))
        for _ in range(n):
            counter[0] += 1
            ids = draw(st.sets(st.integers(0, m - 1)))
            a = {i: draw(st.floats(0.2, 1.0)) for i in sorted(ids)}
            child = tb.add(parent, (float(counter[0]),), 1.0 / n,
                           z=0.5, a=a)
            if depth + 1 < T:
                expand(child, depth + 1)

    expand(None, 0)
    tree = tb.build()
    return tree, {p.key: draw(unit) for p in tree.prefixes()}


class TestFeasTable:
    @settings(max_examples=150, deadline=None)
    @given(_feas_cases())
    def test_never_overdraws_or_exceeds_x(self, case):
        tree, x = case
        patched = feas_table(tree, x)
        b = tree.instance.b
        for leaf in tree.leaves():
            used = [0.0] * tree.instance.m
            for t in range(1, tree.instance.T + 1):
                head = leaf.head(t)
                val = patched[head.key]
                assert 0.0 <= val <= x[head.key]
                for i, v in tree.node(head).a:
                    used[i] += v * val
                    assert used[i] <= b[i] + 1e-9

    @settings(max_examples=40, deadline=None)
    @given(_feas_cases(), st.data())
    def test_rejects_x_outside_unit_interval(self, case, data):
        tree, x = case
        key = data.draw(st.sampled_from(sorted(x)))
        x[key] = data.draw(st.one_of(st.floats(max_value=-1e-300),
                                     st.floats(min_value=1.0 + 1e-12),
                                     st.just(float("nan"))))
        with pytest.raises(InstanceError):
            feas_table(tree, x)

    def test_deep_chain_is_patched(self):
        # 1,500 periods lie past the interpreter's depth limit, so a walk
        # with one frame per period cannot patch this chain
        T = 1500
        tb = TreeBuilder(T=T, m=1, b=(1.0,), L=1, iota=1.0)
        node = None
        for t in range(T):
            node = tb.add(node, (float(t),), 1.0, z=0.5, a={0: 1.0})
        tree = tb.build()
        patched = feas_table(tree, {k: 0.0 for k in tree.order})
        assert list(patched) == list(tree.order)
        assert all(v == 0.0 for v in patched.values())


class TestRounding:
    def test_degenerate_bernoulli(self):
        assert all(round_bernoulli(1.0, (0, "r", j)) == 1 for j in range(50))
        assert all(round_bernoulli(0.0, (0, "r", j)) == 0 for j in range(50))

    def test_bernoulli_frequency(self):
        n = 100_000
        hits = sum(round_bernoulli(0.3, (5, "freq", j)) for j in range(n))
        assert abs(hits / n - 0.3) <= 0.005

    def test_floor(self):
        assert floor_policy(0.999999999) == 0
        assert floor_policy(1.0) == 1
        assert floor_policy(0.0) == 0


class TestPolicyLp:
    def test_slack_budget_passthrough(self):
        # budgets >= T never bind, so FEAS leaves the decision unchanged
        tree = random_tree(seed=4, T=3, m=2, budgets=(3.0, 3.0))
        sim = tree_as_simulator(tree)
        cfg = practical_config()
        sol = averaged_solution(tree, cfg)
        traj = sim.complete(EMPTY_PREFIX, (1,))
        ctx = new_episode_context(sim, cfg, 0)
        for t in range(1, 4):
            p = traj.head(t)
            assert policy_lp(ctx, sim, p, cfg) == sol[p.key]

    def test_saturating_stream(self):
        # fractional decisions pinned at 1 with m=1, b=1, a=1: FEAS yields
        # (1, 0, 0, ...)
        tb = TreeBuilder(T=3, m=1, b=(1.0,), L=1, iota=1.0)
        p1 = tb.add(None, (0.0,), 1.0, z=1.0, a={0: 1.0})
        p2 = tb.add(p1, (1.0,), 1.0, z=1.0, a={0: 1.0})
        p3 = tb.add(p2, (2.0,), 1.0, z=1.0, a={0: 1.0})
        tree = tb.build()
        sim = tree_as_simulator(tree)
        cfg = practical_config()
        ones = {p.key: 1.0 for p in tree.prefixes()}
        ctx = new_episode_context(sim, cfg, 0, memo=pinned(ones, cfg))
        outs = [policy_lp(ctx, sim, p, cfg) for p in (p1, p2, p3)]
        assert outs == [1.0, 0.0, 0.0]

    def test_sequencing_enforced(self):
        tree = demo_tree()
        sim = tree_as_simulator(tree)
        cfg = practical_config()
        traj = sim.complete(EMPTY_PREFIX, (2,))
        ctx = new_episode_context(sim, cfg, 0)
        with pytest.raises(SequencingError):
            policy_lp(ctx, sim, traj.head(2), cfg)  # skipped period 1

    def test_streaming_equals_frozen_solution(self):
        # the on-demand recursion and the precomputed table produce the
        # same decisions under a common master seed
        tree = random_tree(seed=6, T=3, m=2)
        sim = tree_as_simulator(tree)
        cfg = practical_config(K=6, eta1=2, eta2=2)
        frozen_memo = pinned(averaged_solution(tree, cfg), cfg)
        for e in range(4):
            traj = sim.complete(EMPTY_PREFIX, (3, e))
            frozen = new_episode_context(sim, cfg, e, memo=frozen_memo)
            streaming = new_episode_context(sim, cfg, e)
            for t in range(1, 4):
                p = traj.head(t)
                assert policy_lp(frozen, sim, p, cfg) == \
                    policy_lp(streaming, sim, p, cfg)


class TestPolicyNrm:
    def test_zero_solution_zero_decisions(self):
        tree = demo_tree()
        sim = tree_as_simulator(tree)
        cfg = practical_config()
        zeros = {p.key: 0.0 for p in tree.prefixes()}
        traj = sim.complete(EMPTY_PREFIX, (7,))
        ctx = new_episode_context(sim, cfg, 0, memo=pinned(zeros, cfg))
        assert [policy_nrm(ctx, sim, traj.head(t), cfg) for t in (1, 2)] == [0, 0]

    def test_integral_and_feasible(self):
        tree = random_tree(seed=12, T=4, m=2, L=2, iota=1.0, integral_a=True)
        sim = tree_as_simulator(tree)
        cfg = practical_config(K=10, eta1=4)
        memo = MemoTable(cfg)
        for e in range(200):
            traj = sim.complete(EMPTY_PREFIX, (11, e))
            r = sim.readout(traj)
            ctx = new_episode_context(sim, cfg, e, memo=memo)
            used = [0.0] * tree.instance.m
            for t in range(1, 5):
                d = policy_nrm(ctx, sim, traj.head(t), cfg)
                assert d in (0, 1)
                for i, v in r.rcv(t):
                    used[i] += v * d
            assert all(u <= b + 1e-9 for u, b in zip(used, tree.instance.b))


class TestPolicyNrmManyInstances:
    def test_feasible_on_random_instances(self):
        # light version of the bulk audit: the full 1e5-episode sweep lives
        # in the acceptance suite
        from onlinepack.oracle import eval_policy_mc
        for seed in range(20):
            tree = random_tree(seed=800 + seed, T=3 + seed % 3, m=2, L=2,
                               iota=0.5, max_children=2)
            sim = tree_as_simulator(tree)
            cfg = practical_config(K=12, eta1=4, eta2=tree.instance.T,
                                   master_seed=seed)
            memo = MemoTable(cfg)

            def factory(e):
                ctx = new_episode_context(sim, cfg, e, memo=memo)
                return lambda p: policy_nrm(ctx, sim, p, cfg)

            rep = eval_policy_mc(sim, factory, 400, seed=seed)
            assert rep.violation_count == 0


class TestPolicyIs:
    def make_is(self):
        proc = BipartiteNodeProcess(
            n=2, delta=1, partite=("L", "R"),
            scenarios=((1.0, ((0, 1),), (1.0, 1.0)),))
        return encode_is(proc)

    def test_threshold_rounding_example(self):
        # fractional values 0.6 (left) and 0.3 (right), shared uniform 0.5
        inst, sim = self.make_is()
        cfg = practical_config()
        traj = sim.complete(EMPTY_PREFIX, (0,))
        table = {traj.head(1).key: 0.6, traj.head(2).key: 0.3}
        ctx = new_episode_context(sim, cfg, 0, memo=pinned(table, cfg))
        ctx.shared_uniform = 0.5
        # skip FEAS interference: budgets are 1 and the values are feasible
        left = policy_is(ctx, sim, traj.head(1), cfg)
        right = policy_is(ctx, sim, traj.head(2), cfg)
        assert (left, right) == (1, 0)

    def test_isolated_left_node_fires_at_one(self):
        proc = BipartiteNodeProcess(
            n=1, delta=1, partite=("L",),
            scenarios=((1.0, (), (1.0,)),))
        inst, sim = encode_is(proc)
        cfg = practical_config()
        traj = sim.complete(EMPTY_PREFIX, (0,))
        memo = pinned({traj.head(1).key: 1.0}, cfg)
        for e in range(50):
            ctx = new_episode_context(sim, cfg, e, memo=memo)
            assert policy_is(ctx, sim, traj.head(1), cfg) == 1

    def test_no_edge_violations(self):
        proc = random_is_process(seed=77, n=6, delta=2)
        inst, sim = encode_is(proc)
        cfg = practical_config(K=12, eta1=4)
        memo = MemoTable(cfg)
        for e in range(300):
            traj = sim.complete(EMPTY_PREFIX, (13, e))
            r = sim.readout(traj)
            ctx = new_episode_context(sim, cfg, e, memo=memo)
            used = {}
            for t in range(1, inst.T + 1):
                d = policy_is(ctx, sim, traj.head(t), cfg)
                if d:
                    for i, v in r.rcv(t):
                        used[i] = used.get(i, 0) + 1
            assert all(c <= 1 for c in used.values())


class TestPolicyMmoGreedy:
    def test_single_edge_selected(self):
        proc = OnlineNodeProcess(n_offline=1, n_online=1, delta=2,
                                 scenarios=((1.0, ((0,),)),))
        inst, sim = encode_mmo(proc)
        cfg = practical_config()
        traj = sim.complete(EMPTY_PREFIX, (0,))
        table = {p.key: 0.9 for p in sim.tree.prefixes()}
        ctx = new_episode_context(sim, cfg, 0, memo=pinned(table, cfg))
        assert policy_mmo_greedy(ctx, sim, traj.head(1), cfg) == 1

    def test_unrealized_periods_zero(self):
        proc = OnlineNodeProcess(n_offline=2, n_online=2, delta=2,
                                 scenarios=((1.0, ((0,), ())),))
        inst, sim = encode_mmo(proc)
        cfg = practical_config()
        traj = sim.complete(EMPTY_PREFIX, (0,))
        table = {p.key: 0.5 for p in sim.tree.prefixes()}
        ctx = new_episode_context(sim, cfg, 0, memo=pinned(table, cfg))
        decisions = [policy_mmo_greedy(ctx, sim, traj.head(t), cfg)
                     for t in range(1, inst.T + 1)]
        assert decisions[0] == 1
        assert all(d == 0 for d in decisions[1:])

    def test_tie_breaks_to_lowest_offline_id(self):
        proc = OnlineNodeProcess(n_offline=2, n_online=1, delta=2,
                                 scenarios=((1.0, ((0, 1),)),))
        inst, sim = encode_mmo(proc)
        cfg = practical_config()
        traj = sim.complete(EMPTY_PREFIX, (0,))
        table = {p.key: 0.4 for p in sim.tree.prefixes()}
        ctx = new_episode_context(sim, cfg, 0, memo=pinned(table, cfg))
        first = policy_mmo_greedy(ctx, sim, traj.head(1), cfg)
        second = policy_mmo_greedy(ctx, sim, traj.head(2), cfg)
        assert (first, second) == (1, 0)  # edge to offline node 0 wins

    def test_each_node_matched_at_most_once(self):
        from onlinepack.encodings import random_mmo_process
        proc = random_mmo_process(seed=21, n_offline=3, n_online=3, delta=2)
        inst, sim = encode_mmo(proc)
        cfg = practical_config(K=8, eta1=4)
        memo = MemoTable(cfg)
        for e in range(300):
            traj = sim.complete(EMPTY_PREFIX, (15, e))
            r = sim.readout(traj)
            ctx = new_episode_context(sim, cfg, e, memo=memo)
            matched = {}
            for t in range(1, inst.T + 1):
                d = policy_mmo_greedy(ctx, sim, traj.head(t), cfg)
                if d:
                    for i, _ in r.rcv(t):
                        matched[i] = matched.get(i, 0) + 1
            assert all(c <= 1 for c in matched.values())

    def test_decides_without_full_readout(self):
        # as in c06: every period, realized or not, is read through the
        # handle's node lookup, so a readout that raises is never reached
        from onlinepack.encodings import random_mmo_process
        proc = random_mmo_process(seed=21, n_offline=3, n_online=3, delta=2)
        inst, sim = encode_mmo(proc)

        def readout(prefix):
            raise AssertionError("full readout on the decision path")

        blind = dataclasses.replace(sim, readout=readout)
        cfg = practical_config(K=4, eta1=3)
        decided, unrealized = set(), 0
        for e in range(20):
            traj = sim.complete(EMPTY_PREFIX, (15, e))
            runs = []
            for handle in (sim, blind):
                ctx = new_episode_context(handle, cfg, e)
                runs.append([policy_mmo_greedy(ctx, handle, traj.head(t), cfg)
                             for t in range(1, inst.T + 1)])
            assert runs[0] == runs[1]
            decided.update(runs[0])
            unrealized += sum(not nd.a for nd in sim.tree.path(traj))
        assert decided == {0, 1} and unrealized > 0


class TestBoundaryRefusals:
    def test_is_policy_needs_a_partite_lookup(self):
        tree = demo_tree()
        sim = tree_as_simulator(tree)
        cfg = practical_config()
        ctx = new_episode_context(sim, cfg, 0)
        with pytest.raises(InstanceError, match="needs a partite lookup"):
            policy_is(ctx, sim, tree.prefixes()[0], cfg)
        assert ctx.epoch == 0 and ctx.memo.writes == 0

    def test_partite_lookup_needs_a_nonempty_prefix(self):
        _, sim = encode_is(random_is_process(seed=5, n=4, delta=2))
        with pytest.raises(SupportError, match="needs a nonempty prefix"):
            sim.partite_of(EMPTY_PREFIX)

    def test_online_node_policy_and_block_lookup(self):
        # one online node with one neighbour: period 1 is realized, 2 and 3
        # are not
        _, sim = encode_mmo(OnlineNodeProcess(
            n_offline=2, n_online=1, delta=2, scenarios=((1.0, ((0,),)),)))
        traj = sim.complete(EMPTY_PREFIX, (0,))
        assert sim.block_lookup(traj.head(1))[:3] == (1, 1, (0,))
        with pytest.raises(SupportError, match="on an unrealized period"):
            sim.block_lookup(traj.head(2))
        cfg = practical_config()
        blind = dataclasses.replace(sim, block_lookup=None)
        ctx = new_episode_context(blind, cfg, 0)
        with pytest.raises(InstanceError, match="needs a block lookup"):
            policy_mmo_greedy(ctx, blind, traj.head(1), cfg)


class TestScaledEpsilon:
    def test_formula(self):
        assert mwm_scaled_epsilon(0.3, 3) == pytest.approx(0.2)


class TestStreamingOnGenerativeInstance:
    def test_on_the_fly_policy_without_a_tree(self):
        # the on-the-fly contract proper: decisions computed against a bare
        # simulator handle, no enumeration anywhere
        from onlinepack.model import generate_nrm
        from onlinepack.oracle import eval_policy_mc

        sim = generate_nrm(seed=31, T=5, m=3, L=2, iota=0.3,
                           budget_ratio=0.4, mode="generative")
        cfg = practical_config(K=6, eta1=2, eta2=2, master_seed=77)

        def factory(e):
            ctx = new_episode_context(sim, cfg, e)  # streaming recursion
            return lambda p: policy_lp(ctx, sim, p, cfg)

        rep1 = eval_policy_mc(sim, factory, 60, seed=4)
        rep2 = eval_policy_mc(sim, factory, 60, seed=4)
        assert rep1.violation_count == 0
        assert rep1.mean_reward == rep2.mean_reward
        assert rep1.mean_reward > 0.0


class TestOneTablePerRun:
    @settings(max_examples=30)
    @given(seed=st.integers(0, 10_000), T=st.integers(1, 4),
           m=st.integers(1, 3), master_seed=st.integers(0, 2**31),
           momentum=st.sampled_from(("unaccelerated", "accelerated")))
    def test_shared_fresh_and_sweep_tables_agree(self, seed, T, m,
                                                 master_seed, momentum):
        # a table shared by every episode, a fresh table per episode and
        # the sweep reference give bit-identical fractions and decisions
        tree = random_tree(seed=seed, T=T, m=m, L=min(m, 2), max_children=2)
        sim = tree_as_simulator(tree)
        cfg = practical_config(K=4, eta1=3, eta2=min(2, T),
                               master_seed=master_seed, momentum=momentum)
        shared = MemoTable(cfg)
        sweep = pinned(averaged_solution(tree, cfg), cfg)
        for policy in (policy_lp, policy_nrm):
            for e in range(4):
                traj = sim.complete(EMPTY_PREFIX, (master_seed, "episode", e))
                ctxs = [new_episode_context(sim, cfg, e, memo=memo)
                        for memo in (shared, None, sweep)]
                runs = [[] for _ in ctxs]
                for t in range(1, T + 1):
                    for ctx, run in zip(ctxs, runs):
                        decision = policy(ctx, sim, traj.head(t), cfg)
                        run.append((ctx.fractional.hex(),
                                    float(decision).hex()))
                assert runs[0] == runs[1] == runs[2]
