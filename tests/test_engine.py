import collections
import contextlib
import dataclasses
import functools
import math
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from helpers import one_node_tree, random_tree
from onlinepack import engine, keys
from onlinepack.encodings import (encode_is, encode_mmo, encode_mwm,
                                  random_is_process, random_mmo_process,
                                  random_mwm_process)
from onlinepack.engine import (MemoTable, SolverConfig, _clip01,
                               conditional_draws, decide_pen, leaf_grad_table,
                               recursive_R, run_algorithm1_explicit,
                               averaged_solution, sample_index_set,
                               stochastic_grad_component, theory_params,
                               theta_default)
from onlinepack.errors import (ContractViolationError, MemoIntegrityError,
                               ParameterError, SupportError)
from onlinepack.model import (EMPTY_PREFIX, Prefix, Readout, TreeBuilder,
                              demo_tree, derive_structure_constants,
                              generate_nrm, tree_as_simulator)
from onlinepack.oracle import eval_policy_mc
from onlinepack.penalty import exact_grad_f_theta
from onlinepack.policies import (new_episode_context, policy_is, policy_lp,
                                 policy_mmo_greedy, policy_nrm)


def make_config(**kw):
    base = dict(epsilon=0.5, theta=0.5, alpha=0.1, K=3, eta1=2, eta2=2,
                master_seed=13, momentum="unaccelerated",
                practical_override=True)
    base.update(kw)
    return SolverConfig(**base)


class TestSolverConfig:
    def test_validation(self):
        with pytest.raises(ParameterError):
            make_config(alpha=0.0)
        with pytest.raises(ParameterError):
            make_config(eta2=0)
        with pytest.raises(ParameterError):
            make_config(momentum="nesterov")

    @pytest.mark.parametrize("name", ["alpha", "theta", "epsilon"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    def test_non_finite_parameters_rejected(self, name, value):
        with pytest.raises(ParameterError, match=name):
            make_config(**{name: value})

    @pytest.mark.parametrize("name,value", [
        ("eta1", 2.5), ("K", 3.0), ("master_seed", 1.5), ("eta2", "2"),
        ("K", True), ("eta1", False), ("master_seed", None)])
    def test_integer_fields_rejected_unless_int(self, name, value):
        with pytest.raises(ParameterError, match=name):
            make_config(**{name: value})

    @pytest.mark.parametrize("name", ["alpha", "theta", "epsilon"])
    @pytest.mark.parametrize("value", [True, False, "0.5", None, [0.5],
                                       0.5j])
    def test_real_fields_rejected_unless_real(self, name, value):
        # a bool is not read as 1 or 0, and a string is refused by name,
        # not by a comparison's TypeError
        with pytest.raises(ParameterError, match=f"{name} must be a real"):
            make_config(**{name: value})

    @pytest.mark.parametrize("value", [1, Fraction(1, 2), np.float64(0.5)])
    def test_real_fields_accept_every_real_type(self, value):
        cfg = make_config(alpha=value, theta=value, epsilon=value)
        assert cfg.alpha == cfg.theta == cfg.epsilon == value

    def test_beta_schedules(self):
        un = make_config()
        assert [un.beta(k) for k in range(4)] == [0.0, 0.0, 0.0, 0.0]
        acc = make_config(momentum="accelerated")
        assert acc.beta(0) == 0.0
        assert acc.beta(1) == 0.0
        assert acc.beta(2) == pytest.approx(1 / 4)
        assert acc.beta(3) == pytest.approx(2 / 5)


class TestSampleIndexSet:
    def test_full_horizon(self):
        cfg = make_config(eta2=5)
        assert sample_index_set(cfg, 5, 0) == (1, 2, 3, 4, 5)
        # every level of every seed shares one cached tuple
        other = make_config(eta2=5, master_seed=cfg.master_seed + 1)
        assert sample_index_set(other, 5, 7) is sample_index_set(cfg, 5, 0)

    def test_deterministic(self):
        cfg = make_config(eta2=2)
        a = sample_index_set(cfg, 5, 3)
        b = sample_index_set(cfg, 5, 3)
        assert a == b
        assert len(set(a)) == 2
        assert all(1 <= t <= 5 for t in a)

    def test_eta2_exceeds_horizon(self):
        cfg = make_config(eta2=6)
        with pytest.raises(ParameterError):
            sample_index_set(cfg, 5, 0)

    def test_uniform_frequencies(self):
        cfg = make_config(eta2=2)
        counts = np.zeros(5)
        n = 10_000
        for k in range(n):
            for t in sample_index_set(cfg, 5, k):
                counts[t - 1] += 1
        freqs = counts / n
        assert np.all(np.abs(freqs - 0.4) <= 0.02)

    def test_built_once_per_process(self):
        # the subsample is cached per (master_seed, T, eta2, k), so a second
        # table with the same config builds no generator
        tree = random_tree(seed=5, T=4, m=2)
        sim = tree_as_simulator(tree)
        cfg = make_config(K=4, eta1=2, eta2=2, master_seed=8101)
        engine._floyd_sample.cache_clear()
        calls = []
        for _ in range(2):
            with mock.patch.object(keys, "generator",
                                   wraps=keys.generator) as spy:
                memo = MemoTable()
                for p in tree.prefixes():
                    decide_pen(sim, memo, p, cfg)
            calls.append(spy.call_count)
        assert calls[0] > 0 and calls[1] == 0

    def test_cache_is_bounded(self):
        cfg = make_config(eta2=2, master_seed=8102)
        first = sample_index_set(cfg, 5, 0)
        for k in range(engine._ALEPH_CACHE + 10):
            sample_index_set(cfg, 5, k)
        info = engine._floyd_sample.cache_info()
        assert info.maxsize == engine._ALEPH_CACHE
        assert info.currsize == engine._ALEPH_CACHE
        assert sample_index_set(cfg, 5, 0) == first  # evicted, then rebuilt


class TestConditionalDraws:
    def test_repeat_request_draws_again_into_the_stored_objects(self):
        # c = max(aleph_0) = 1 = |S|: the draws are the prefix's own rows
        tree = one_node_tree()
        sim = tree_as_simulator(tree)
        memo = MemoTable()
        cfg = make_config(eta1=1, eta2=1)
        p = tree.prefixes()[0]
        d1 = conditional_draws(sim, memo, p, 0, cfg)
        d2 = conditional_draws(sim, memo, p, 0, cfg)
        assert len(d1) == len(d2) and all(a is b for a, b in zip(d1, d2))
        assert memo.sim_calls == 0
        # c = 2 > |S| = 1 below a single child: the tree fixes the cut, so
        # nothing is simulated; a handle without that knowledge simulates
        # eta1 completions on every request.  Either way all draws share one
        # object, and a repeat returns it from the store
        tb = TreeBuilder(T=2, m=1, b=(1.0,), L=1, iota=1.0)
        root = tb.add(None, (0.0,), 1.0, z=0.5, a={0: 1.0})
        leaf = tb.add(root, (1.0,), 1.0, z=0.5, a={0: 1.0})
        sim = tree_as_simulator(tb.build())
        cfg = make_config(eta1=3, eta2=2)
        for handle, calls in ((sim, 0),
                              (dataclasses.replace(sim, fixed_head=None),
                               cfg.eta1)):
            memo = MemoTable()
            d1 = conditional_draws(handle, memo, root, 0, cfg)
            assert memo.sim_calls == calls
            d2 = conditional_draws(handle, memo, root, 0, cfg)
            assert memo.sim_calls == 2 * calls
            assert len(d2) == len(d1) and all(a is b for a, b in zip(d1, d2))
            assert len(set(map(id, d1))) == 1 and len(d1) == cfg.eta1
            assert d1[0].traj == leaf

    def test_draws_follow_conditional_law_across_k(self):
        tree = demo_tree()
        sim = tree_as_simulator(tree)
        cfg = make_config(eta1=1, eta2=2, master_seed=77)
        root = tree.prefixes()[0]
        # conditional draws from the root should split ~50/50 across k
        ups = 0
        n = 4000
        for k in range(n):
            memo = MemoTable()
            d = conditional_draws(sim, memo, root, k, cfg)
            ups += d[0].traj.last[0] == 1.0
        assert abs(ups / n - 0.5) <= 3 * math.sqrt(0.25 / n)

    def test_distinct_prefixes_draw_independently_at_same_k(self):
        # two-root tree: completions of each root at the same k come from
        # distinct key streams, so their branch choices are independent
        from onlinepack.model import TreeBuilder
        tb = TreeBuilder(T=2, m=1, b=(1.0,), L=1, iota=1.0)
        joint = 0
        singles = [0, 0]
        n = 4000
        roots = []
        for r, obs in enumerate((10.0, 20.0)):
            root = tb.add(None, (obs,), 0.5, z=0.5, a={0: 1.0})
            tb.add(root, (1.0,), 0.5, z=1.0, a={0: 1.0})
            tb.add(root, (0.0,), 0.5, z=0.0, a={0: 1.0})
            roots.append(root)
        tree = tb.build()
        sim = tree_as_simulator(tree)
        cfg = make_config(eta1=1, eta2=2, master_seed=31)
        for k in range(n):
            memo = MemoTable()
            ups = [conditional_draws(sim, memo, r, k, cfg)[0].traj.last[0] == 1.0
                   for r in roots]
            joint += ups[0] and ups[1]
            singles[0] += ups[0]
            singles[1] += ups[1]
        p0, p1 = singles[0] / n, singles[1] / n
        sigma = math.sqrt(0.25 / n)
        assert abs(p0 - 0.5) <= 3 * sigma and abs(p1 - 0.5) <= 3 * sigma
        # joint frequency factorizes if the streams are independent
        assert abs(joint / n - p0 * p1) <= 3 * sigma

    def test_prefix_cut_simulates_nothing_and_shares_one_draw(self):
        # c = max(aleph_k) = T = |S|: the cut is S's rows, known without a
        # simulator call, and one draw stands for all eta1
        sim = generate_nrm(seed=7, T=6, m=3, L=2, iota=0.3, budget_ratio=0.5,
                           mode="generative", n_events=4)
        cfg = make_config(eta1=3, eta2=6)
        traj = sim.complete(EMPTY_PREFIX, (5, "episode", 0))
        memo = MemoTable()
        draws = conditional_draws(sim, memo, traj, 0, cfg)
        assert memo.sim_calls == 0
        assert len(set(map(id, draws))) == 1
        d = draws[0]
        assert d.traj == traj
        for terms in d.terms.values():
            for head, _ in terms:
                assert head.key == d.traj.head(len(head)).key

    def test_draws_start_with_prefix(self):
        # a draw is its completion's first c = max(aleph_k) rows; when the
        # handle fixes those rows (c <= |S|, or a single-child chain below
        # S) nothing is simulated
        tree = random_tree(seed=21, T=4, m=2)
        sim = tree_as_simulator(tree)
        T = tree.instance.T
        memo = MemoTable()
        cfg = make_config(eta1=3, eta2=2)
        cuts = set()
        for p in tree.prefixes():
            for k in range(4):
                c = sample_index_set(cfg, T, k)[-1]
                calls = memo.sim_calls
                draws = conditional_draws(sim, memo, p, k, cfg)
                assert len(draws) == cfg.eta1
                fixed = sim.fixed_head(p, c) is not None
                if c > len(p):
                    base = keys.key_digest(cfg.master_seed, "traj", k, p.key)
                    assert [d.traj for d in draws] == \
                        [sim.complete(p, (base, j)).head(c)
                         for j in range(1, cfg.eta1 + 1)]
                    assert all(d.traj.startswith(p) for d in draws)
                else:
                    assert fixed
                    assert all(d.traj == p.head(c) for d in draws)
                assert memo.sim_calls == calls + (0 if fixed else cfg.eta1)
                assert all(len(d.traj) == c for d in draws)
                cuts.add((c > len(p), fixed))
        # all three branches ran: S's own rows, a chain, a simulation
        assert cuts == {(False, True), (True, True), (True, False)}

    def test_missing_own_head_breaks_the_contract(self):
        # fixed_head must return the head for every c <= |prefix|: a handle
        # that returns None there is refused, whether the cut is the draw
        # prefix's own (c <= |S|), a completion's, or a head below the cut
        tree = random_tree(seed=21, T=4, m=2)
        sim = tree_as_simulator(tree)
        cfg = make_config(K=3, eta1=2, eta2=2)
        never = dataclasses.replace(sim, fixed_head=lambda prefix, c: None)
        only_whole = dataclasses.replace(
            sim, fixed_head=lambda prefix, c: prefix if c == len(prefix)
            else None)
        cases = set()
        for handle in (never, only_whole):
            for p in tree.prefixes():
                for k in range(3):
                    c = sample_index_set(cfg, tree.instance.T, k)[-1]
                    with pytest.raises(ContractViolationError):
                        conditional_draws(handle, MemoTable(), p, k, cfg)
                    cases.add(c <= len(p))
            with pytest.raises(ContractViolationError):
                for p in tree.prefixes():
                    decide_pen(handle, MemoTable(), p, cfg)
        assert cases == {False, True}


class TestStochasticGradComponent:
    def test_empty_rcv_returns_reward(self):
        tree = one_node_tree(z=0.7, a=0.0, b=1.0)
        sim = tree_as_simulator(tree)
        memo = MemoTable()
        cfg = make_config(eta1=1, eta2=1)
        p = tree.prefixes()[0]
        g = stochastic_grad_component(lambda q: 0.0, sim, memo, p, 0, cfg)
        assert g == 0.7

    def test_one_node_hand_value(self):
        tree = one_node_tree(z=0.5, a=1.0, b=0.5)
        sim = tree_as_simulator(tree)
        memo = MemoTable()
        cfg = make_config(theta=1.0, eta1=1, eta2=1)
        p = tree.prefixes()[0]
        g = stochastic_grad_component(lambda q: 0.0, sim, memo, p, 0, cfg)
        assert g == 0.5  # 0.5 - 2 phi'(-0.5) and phi'(-0.5) = 0

    def test_eval_contract_enforced(self):
        tree = one_node_tree(z=0.5, a=1.0, b=0.5)
        sim = tree_as_simulator(tree)
        cfg = make_config(eta1=1, eta2=1)
        p = tree.prefixes()[0]
        with pytest.raises(ContractViolationError):
            stochastic_grad_component(lambda q: 2.5, sim, MemoTable(), p, 0, cfg)

    def test_unbiased_against_exact_gradient(self):
        # eta2 = T: the estimator is unbiased for the exact gradient
        tree = random_tree(seed=30, T=3, m=2, L=2, iota=0.5,
                           max_children=2, min_children=2)
        sim = tree_as_simulator(tree)
        T = tree.instance.T
        cfg = make_config(theta=0.8, eta1=1, eta2=T, master_seed=5)
        x = {p.key: 0.3 + 0.4 * ((hash(p.key) % 97) / 97) for p in tree.prefixes()}
        exact = exact_grad_f_theta(tree, x, cfg.theta)
        prefix = tree.prefixes()[0]
        memo = MemoTable()
        n = 3000
        vals = np.empty(n)
        for k in range(n):
            vals[k] = stochastic_grad_component(lambda q: x[q.key], sim, memo,
                                                prefix, k, cfg)
        se = vals.std(ddof=1) / math.sqrt(n)
        assert abs(vals.mean() - exact[prefix.key]) <= 3 * se + 1e-12

    def test_leaf_grad_table_bitwise_matches_engine(self):
        tree = random_tree(seed=31, T=3, m=2, L=2, iota=0.5)
        sim = tree_as_simulator(tree)
        T = tree.instance.T
        cfg = make_config(theta=0.8, eta1=1, eta2=T, master_seed=6)
        x = {p.key: 0.5 for p in tree.prefixes()}
        prefix = tree.prefixes()[0]
        leaf_keys, cond, values = leaf_grad_table(tree, prefix, x, cfg)
        value_of = dict(zip(leaf_keys, values))
        memo = MemoTable()
        for k in range(50):
            g = stochastic_grad_component(lambda q: x[q.key], sim, memo,
                                          prefix, k, cfg)
            drawn = conditional_draws(sim, memo, prefix, k, cfg)[0].traj.key
            assert g == value_of[drawn]


class TestMemoBinding:
    """A table keeps one config's decisions and evaluators, so it is bound
    to the first config it serves and refuses an unequal one."""

    @staticmethod
    def _demo(seed, K):
        return make_config(theta=1.0, alpha=0.5, K=K, eta1=2, eta2=2,
                           master_seed=seed)

    def test_unequal_config_is_refused(self):
        tree = demo_tree()
        sim = tree_as_simulator(tree)
        root = tree.prefixes()[0]
        # a shared table used to answer K = 8 with its K = 2 decision
        for seed, fresh in ((3, 0.34375), (7, 0.4625)):
            memo = MemoTable()
            assert decide_pen(sim, memo, root, self._demo(seed, 2)) == 0.375
            assert decide_pen(sim, MemoTable(), root,
                              self._demo(seed, 8)) == fresh
            before = memo.counters(), dict(memo.decisions)
            other = self._demo(seed, 8)
            for call in (lambda: decide_pen(sim, memo, root, other),
                         lambda: recursive_R(sim, memo, root, 3, other),
                         lambda: conditional_draws(sim, memo, root, 0, other),
                         lambda: run_algorithm1_explicit(tree, other, memo)):
                with pytest.raises(MemoIntegrityError):
                    call()
            assert (memo.counters(), memo.decisions) == before
            # an equal config is the same config, whatever the object
            assert decide_pen(sim, memo, root, self._demo(seed, 2)) == 0.375

    def test_config_checked_once_per_call(self):
        tree = random_tree(seed=4, T=3, m=2)
        sim = tree_as_simulator(tree)
        memo = MemoTable()
        with mock.patch.object(MemoTable, "_bind", autospec=True,
                               side_effect=MemoTable._bind) as spy:
            cfg = make_config(K=4)
            decide_pen(sim, memo, tree.prefixes()[-1], cfg)
            assert memo.writes > 1 and spy.call_count == 1
            decide_pen(sim, memo, tree.prefixes()[0], make_config(K=4))
            assert spy.call_count == 2


class TestAlgorithm1:
    def test_zero_iterations(self):
        tree = one_node_tree()
        cfg = make_config(K=0)
        assert run_algorithm1_explicit(tree, cfg) == []

    def test_one_node_hand_iterate(self):
        tree = one_node_tree(z=0.5, a=1.0, b=0.5)
        cfg = make_config(theta=1.0, alpha=0.1, K=1, eta1=1, eta2=1)
        its = run_algorithm1_explicit(tree, cfg)
        key = tree.prefixes()[0].key
        assert its[0][key] == pytest.approx(0.05, abs=1e-15)

    def test_iterates_stay_in_box(self):
        tree = random_tree(seed=40, T=3, m=2)
        cfg = make_config(K=6, alpha=0.5, eta1=2, eta2=3,
                          momentum="accelerated")
        for it in run_algorithm1_explicit(tree, cfg):
            for v in it.values():
                assert 0.0 <= v <= 1.0


class TestRecursiveR:
    def test_levels_at_or_below_zero_are_zero(self):
        tree = one_node_tree()
        sim = tree_as_simulator(tree)
        memo = MemoTable()
        cfg = make_config()
        p = tree.prefixes()[0]
        assert recursive_R(sim, memo, p, 0, cfg) == 0.0
        assert recursive_R(sim, memo, p, -1, cfg) == 0.0
        assert memo.writes == 0

    def test_one_node_matches_full_sweep(self):
        tree = one_node_tree(z=0.5, a=1.0, b=0.5)
        sim = tree_as_simulator(tree)
        cfg = make_config(theta=1.0, alpha=0.1, K=1, eta1=1, eta2=1)
        memo = MemoTable()
        val = recursive_R(sim, memo, tree.prefixes()[0], 1, cfg)
        assert val == pytest.approx(0.05, abs=1e-15)

    @pytest.mark.parametrize("momentum", ["unaccelerated", "accelerated"])
    def test_equals_algorithm1_bitwise(self, momentum):
        for seed in (0, 1):
            tree = random_tree(seed=seed, T=3, m=2, L=2, iota=0.4)
            sim = tree_as_simulator(tree)
            cfg = make_config(K=4, eta1=2, eta2=2, momentum=momentum,
                              master_seed=seed + 1)
            sweep = run_algorithm1_explicit(tree, cfg)
            memo = MemoTable()
            for p in tree.prefixes():
                recursive_R(sim, memo, p, cfg.K, cfg)
                for k in range(1, cfg.K + 1):
                    assert memo.value(p, k) == sweep[k - 1][p.key]

    def test_equivalence_on_nrm_and_encoded_instances(self):
        # same bitwise equality on a correlated-demand tree and an
        # independent-set encoding (different branching, no-shows, sparsity)
        from onlinepack.encodings import encode_is, random_is_process
        from onlinepack.model import generate_nrm

        nrm = generate_nrm(seed=17, T=3, m=3, L=2, iota=0.3, budget_ratio=0.5)
        _, sim_is = encode_is(random_is_process(seed=18, n=4, delta=2))
        for tree in (nrm, sim_is.tree):
            sim = tree_as_simulator(tree)
            cfg = make_config(K=3, eta1=2, eta2=min(2, tree.instance.T),
                              master_seed=23, momentum="accelerated")
            sweep = run_algorithm1_explicit(tree, cfg)
            memo = MemoTable()
            for p in tree.prefixes():
                recursive_R(sim, memo, p, cfg.K, cfg)
                for k in range(1, cfg.K + 1):
                    assert memo.value(p, k) == sweep[k - 1][p.key]

    def test_memo_write_once(self):
        memo = MemoTable()
        tree = one_node_tree()
        p = tree.prefixes()[0]
        memo.put(p, 1, 0.5)
        with pytest.raises(MemoIntegrityError):
            memo.put(p, 1, 0.6)

    def test_present_entry_is_returned_without_a_write(self):
        tree = random_tree(seed=3, T=3, m=2)
        sim = tree_as_simulator(tree)
        cfg = make_config(K=4, eta1=2, eta2=2)
        memo = MemoTable()
        recursive_R(sim, memo, tree.prefixes()[-1], cfg.K, cfg)
        entries, draws = list(memo.entries.items()), dict(memo.draws)
        before = memo.counters()
        prefixes = {p.key: p for p in tree.prefixes()}
        for (key, k), value in entries:
            assert recursive_R(sim, memo, prefixes[key], k, cfg) == value
        assert list(memo.entries.items()) == entries
        assert memo.draws == draws
        assert memo.counters() == before

    def test_on_demand_is_lazier_than_sweep(self):
        tree = random_tree(seed=3, T=4, m=2, max_children=3)
        sim = tree_as_simulator(tree)
        cfg = make_config(K=3, eta1=1, eta2=1)
        memo = MemoTable()
        recursive_R(sim, memo, tree.prefixes()[0], cfg.K, cfg)
        assert memo.writes < len(tree) * cfg.K


class TestDecidePen:
    def test_k1_is_single_iterate(self):
        tree = one_node_tree(z=0.5, a=1.0, b=0.5)
        sim = tree_as_simulator(tree)
        cfg = make_config(theta=1.0, alpha=0.1, K=1, eta1=1, eta2=1)
        assert decide_pen(sim, MemoTable(), tree.prefixes()[0], cfg) == \
            pytest.approx(0.05, abs=1e-15)

    def test_two_iteration_hand_average(self):
        tree = one_node_tree(z=0.5, a=1.0, b=0.5)
        sim = tree_as_simulator(tree)
        cfg = make_config(theta=1.0, alpha=0.1, K=2, eta1=1, eta2=1)
        # X^1 = 0.05; at X^1 the load is 0.05 - 0.5 < 0, so ghat stays 0.5
        # and X^2 = 0.05 + 0.05 = 0.1
        val = decide_pen(sim, MemoTable(), tree.prefixes()[0], cfg)
        assert val == pytest.approx((0.05 + 0.1) / 2, abs=1e-15)

    def test_output_in_unit_interval(self):
        tree = random_tree(seed=9, T=3, m=2)
        sim = tree_as_simulator(tree)
        cfg = make_config(K=4, eta1=2, eta2=3, alpha=0.7)
        for p in tree.prefixes()[:6]:
            assert 0.0 <= decide_pen(sim, MemoTable(), p, cfg) <= 1.0

    def test_decision_cached_per_prefix(self):
        tree = random_tree(seed=10, T=3, m=2)
        sim = tree_as_simulator(tree)
        cfg = make_config(K=4, eta1=2, eta2=2, master_seed=55)
        memo = MemoTable()
        p = tree.prefixes()[-1]
        first = decide_pen(sim, memo, p, cfg)
        assert memo.decisions == {p.key: first}
        before = memo.counters()
        assert decide_pen(sim, memo, p, cfg) == first
        assert memo.counters() == before  # no recursion on a warm decision

    def test_prefilled_decision_is_returned(self):
        tree = random_tree(seed=10, T=3, m=2)
        sim = tree_as_simulator(tree)
        cfg = make_config(K=4, eta1=2, eta2=2)
        memo = MemoTable()
        p = tree.prefixes()[0]
        memo.decisions[p.key] = 0.25
        assert decide_pen(sim, memo, p, cfg) == 0.25
        assert memo.counters() == {"writes": 0, "sim_calls": 0}

    def test_matches_averaged_solution(self):
        tree = random_tree(seed=10, T=3, m=2)
        sim = tree_as_simulator(tree)
        cfg = make_config(K=4, eta1=2, eta2=2, master_seed=55)
        table = averaged_solution(tree, cfg)
        for p in tree.prefixes():
            assert decide_pen(sim, MemoTable(), p, cfg) == table[p.key]


def _leaky_deriv(x, theta):
    """A derivative that is nonzero at every load, so a derivative that an
    entry reads shows in its value however small the load."""
    return 0.5 + math.atan(x / theta) / 4.0


@st.composite
def _skip_cases(draw):
    T = draw(st.integers(1, 3))
    m = draw(st.integers(1, 3))
    budgets = tuple(draw(st.lists(st.sampled_from([0.0, 0.3, 1.0, 1.9]),
                                  min_size=m, max_size=m)))
    tree = random_tree(draw(st.integers(0, 10_000)), T=T, m=m,
                       L=draw(st.integers(1, m)), budgets=budgets)
    cfg = make_config(K=draw(st.integers(1, 4)), eta1=draw(st.integers(1, 4)),
                      eta2=draw(st.integers(1, T)),
                      alpha=draw(st.sampled_from([0.1, 0.6])),
                      momentum=draw(st.sampled_from(["unaccelerated",
                                                     "accelerated"])),
                      master_seed=draw(st.integers(0, 2**31)))
    return tree, cfg


def _tree_nodes(tree):
    """Prefix key -> (S, whether the node requests a resource)."""
    return {p.key: (p, bool(tree.node(p).a)) for p in tree.prefixes()}


def _recording(sim):
    """``sim`` with its node lookups recorded in the same map as above."""
    nodes = {}

    def node(prefix):
        z, a = sim.node(prefix)
        nodes[prefix.key] = (prefix, bool(a))
        return z, a
    return dataclasses.replace(sim, node=node), nodes


def _calls(cfg, sim, prefix, k):
    """Completions a draw set of (S, k) simulates: none if the handle fixes
    the first max(aleph_k) rows of every completion of S, else eta1."""
    c = sample_index_set(cfg, sim.instance.T, k)[-1]
    return 0 if sim.fixed_head(prefix, c) is not None else cfg.eta1


@contextlib.contextmanager
def _draw_requests():
    """Spy on the engine's ``conditional_draws`` calls while the block runs;
    ``_requested`` reads them after."""
    with mock.patch.object(engine, "conditional_draws",
                           wraps=engine.conditional_draws) as spy:
        yield spy


def _requested(spy, memo):
    """(prefix key, k) of every draw set asked for with ``memo``, in order."""
    return [(call.args[2].key, call.args[3]) for call in spy.call_args_list
            if call.args[1] is memo]


def _count_law(memo, cfg, sim, nodes, requested):
    """sim_calls == eta1 * #(entries (S, k) at level >= 2 whose node requests
    a resource and whose handle does not fix S's first max(aleph_(k-1))
    rows), and no other entry asks for a draw set (``requested``, the
    table's (prefix key, k) requests)."""
    assert memo.sim_calls == sum(
        _calls(cfg, sim, nodes[key][0], k - 1)
        for key, k in memo.entries if k >= 2 and nodes[key][1])
    assert all(k >= 1 and nodes[key][1] for key, k in requested)


def _full_length_draws(sim, memo, prefix, k, config):
    """Reference draw set: eta1 full-length completions, always simulated
    and never cut, each indexed at aleph_k."""
    base = keys.key_digest(config.master_seed, "traj", k, prefix.key)
    aleph = sample_index_set(config, sim.instance.T, k)
    out = []
    for j in range(1, config.eta1 + 1):
        traj = sim.complete(prefix, (base, j))
        memo.sim_calls += 1
        heads = [traj.head(t) for t in aleph]
        out.append(engine.PathDraw(traj, [(h, sim.node(h)[1])
                                          for h in heads]))
    return tuple(out)


class TestDrawRule:
    """Entry (S, k) draws only if k >= 2 and S requests a resource: a
    level-1 entry reads X^0 = X^-1 = 0 only, and a resource-free one reads
    no load at all.  A draw set simulates only if the handle does not fix
    S's first max(aleph_(k-1)) rows: otherwise every row it is read at is
    known (S's own, or a single-child chain of the tree below S)."""

    @pytest.mark.parametrize("deriv", [None, _leaky_deriv])
    @settings(max_examples=40, deadline=None)
    @given(case=_skip_cases())
    def test_recursion_equals_sweep_under_count_law(self, deriv, case):
        tree, cfg = case
        sim = tree_as_simulator(tree)
        support = [p for p in tree.prefixes() if tree.mu(p) > 0.0]
        handles = (sim, dataclasses.replace(sim, fixed_head=None))
        with pytest.MonkeyPatch.context() as mp, _draw_requests() as spy:
            if deriv is not None:
                mp.setattr(engine, "huber_deriv", deriv)
            swept = MemoTable()
            run_algorithm1_explicit(tree, cfg, swept)
            on_demand = [MemoTable() for _ in handles]
            for handle, memo in zip(handles, on_demand):
                for p in support:
                    decide_pen(handle, memo, p, cfg)
        if deriv is None:  # the real derivative is 0.0 at every level-1 load
            drawn = MemoTable()  # real level-0 draws, apart from the others
            for p in support:
                g = stochastic_grad_component(lambda q: 0.0, sim, drawn, p, 0,
                                              cfg)
                assert swept.value(p, 1) == _clip01(cfg.alpha * g)
            assert drawn.sim_calls == sum(_calls(cfg, sim, p, 0)
                                          for p in support)
        for memo in on_demand:  # recursion == sweep, with or without chains
            assert list(memo.entries.items()) == \
                list(on_demand[0].entries.items())
            for key, value in memo.entries.items():
                assert value == swept.entries[key]
        for memo, handle in ((swept, sim), *zip(on_demand, handles)):
            _count_law(memo, cfg, handle, _tree_nodes(tree),
                       _requested(spy, memo))

    def test_count_law_on_generative_nrm(self):
        sim, nodes = _recording(generate_nrm(
            seed=7, T=20, m=3, L=2, iota=0.3, budget_ratio=0.5,
            mode="generative", n_events=4))
        for K, eta1 in ((1, 3), (2, 2), (3, 2)):
            cfg = make_config(K=K, eta1=eta1, eta2=3, master_seed=4)
            memo = MemoTable()
            with _draw_requests() as spy:
                for e in range(3):
                    traj = sim.complete(EMPTY_PREFIX, (9, "episode", e))
                    for t in range(1, sim.instance.T + 1):
                        decide_pen(sim, memo, traj.head(t), cfg)
            _count_law(memo, cfg, sim, nodes, _requested(spy, memo))
            assert memo.writes == len(memo.entries) > 0
            assert (memo.sim_calls == 0) == (K == 1)
        # the law skipped entries for each reason: no resource, or a prefix
        # that holds every period its draws are read at
        assert not all(requests for _, requests in nodes.values())
        assert any(k >= 2 and nodes[key][1]
                   and _calls(cfg, sim, nodes[key][0], k - 1) == 0
                   for key, k in memo.entries)

    def test_count_law_fails_when_resource_free_entries_draw(self, monkeypatch):
        # mutation check: a resource-free entry that draws again changes no
        # value, so only the count law can catch it.  The handle fixes no
        # head past S, so the extra draw sets simulate
        tree = random_tree(seed=4, T=3, m=2, zero_rcv_prob=0.5)
        sim = dataclasses.replace(tree_as_simulator(tree), fixed_head=None)
        cfg = make_config(K=3, eta1=2, eta2=2)
        support = [p for p in tree.prefixes() if tree.mu(p) > 0.0]
        kept = MemoTable()
        with _draw_requests() as spy:
            for p in support:
                decide_pen(sim, kept, p, cfg)
        _count_law(kept, cfg, sim, _tree_nodes(tree), _requested(spy, kept))
        rule = engine._entry_draws

        def drawing(sim, memo, prefix, k, config):
            z_s, a_s, draws = rule(sim, memo, prefix, k, config)
            if k >= 2 and not a_s:
                draws = engine.conditional_draws(sim, memo, prefix, k - 1,
                                                 config)
            return z_s, a_s, draws
        monkeypatch.setattr(engine, "_entry_draws", drawing)
        mutated = MemoTable()
        with _draw_requests() as spy:
            for p in support:
                decide_pen(sim, mutated, p, cfg)
        assert mutated.entries == kept.entries
        with pytest.raises(AssertionError):
            _count_law(mutated, cfg, sim, _tree_nodes(tree),
                       _requested(spy, mutated))

    def test_count_law_fails_when_prefix_cuts_complete(self, monkeypatch):
        # mutation check: a draw set whose reads all lie inside S that
        # completes S anyway (full-length draws, as before draws were cut)
        # changes no entry, so only the count law can catch it
        tree = random_tree(seed=4, T=3, m=2)
        sim = tree_as_simulator(tree)
        cfg = make_config(K=4, eta1=2, eta2=2)
        support = [p for p in tree.prefixes() if tree.mu(p) > 0.0]
        kept = MemoTable()
        with _draw_requests() as spy:
            for p in support:
                decide_pen(sim, kept, p, cfg)
        _count_law(kept, cfg, sim, _tree_nodes(tree), _requested(spy, kept))
        monkeypatch.setattr(engine, "conditional_draws", _full_length_draws)
        mutated = MemoTable()
        with _draw_requests() as spy:
            for p in support:
                decide_pen(sim, mutated, p, cfg)
        assert list(mutated.entries.items()) == list(kept.entries.items())
        assert mutated.sim_calls > kept.sim_calls
        with pytest.raises(AssertionError):
            _count_law(mutated, cfg, sim, _tree_nodes(tree),
                       _requested(spy, mutated))

    def test_k1_draws_no_completion(self):
        # with K = 1 the decision reads only level-0 draws, so the prefix is
        # never completed: the generative simulator's support checks do not
        # run on rows its node lookup does not read.  The tree's node lookup
        # refuses a zero-mass prefix itself, so tree support does not depend
        # on what the prefix draws.
        tb = TreeBuilder(T=2, m=1, b=(1.0,), L=1, iota=1.0)
        live = tb.add(None, (0.0,), 1.0, z=0.5, a={0: 1.0})
        dead = tb.add(None, (1.0,), 0.0, z=1.0, a={0: 1.0})  # zero mass
        idle = tb.add(None, (2.0,), 0.0, z=1.0, a={})  # zero mass, no resource
        for parent in (live, dead, idle):
            tb.add(parent, (0.0,), 1.0, z=0.5, a={0: 1.0})
        tree = tb.build()
        tree_sim = tree_as_simulator(tree)
        for prefix in (dead, idle, dead.extend((0.0,))):
            for K in (1, 2, 4):
                memo = MemoTable()
                with pytest.raises(SupportError):
                    decide_pen(tree_sim, memo, prefix, make_config(K=K))
                assert memo.sim_calls == memo.writes == 0
        nrm_sim, nrm_nodes = _recording(generate_nrm(
            seed=7, T=6, m=3, L=2, iota=0.3, budget_ratio=0.5,
            mode="generative", n_events=4))
        bad_row = Prefix([(9.0,), (1.0,)])  # 9 is not an event code
        memo = MemoTable()
        cfg = make_config(K=1, alpha=0.1)
        with _draw_requests() as spy:
            x = decide_pen(nrm_sim, memo, bad_row, cfg)
        z, _ = nrm_sim.node(bad_row)
        assert x == _clip01(0.1 * z)  # X^1 = alpha * Z(S): no load yet
        assert memo.sim_calls == 0
        _count_law(memo, cfg, nrm_sim, nrm_nodes, _requested(spy, memo))
        with pytest.raises(SupportError):
            decide_pen(nrm_sim, MemoTable(), bad_row, make_config(K=2))


@st.composite
def _cut_cases(draw):
    T = draw(st.integers(1, 4))
    m = draw(st.integers(1, 3))
    tree = random_tree(draw(st.integers(0, 10_000)), T=T, m=m,
                       L=draw(st.integers(1, m)),
                       zero_mass_prob=draw(st.sampled_from([0.0, 0.5])))
    cfg = make_config(eta1=draw(st.integers(1, 4)),
                      eta2=draw(st.integers(1, T)),
                      theta=draw(st.sampled_from([0.05, 0.5, 2.0])),
                      master_seed=draw(st.integers(0, 2**31)))
    return tree, cfg, draw(st.integers(0, 2**31))


class TestDrawCut:
    """A draw is its completion's first max(aleph_k) rows, the last period
    the estimator reads it at: cutting it there changes no gradient bit."""

    @pytest.mark.parametrize("deriv", [None, _leaky_deriv])
    @settings(max_examples=60, deadline=None)
    @given(case=_cut_cases())
    def test_gradient_equals_full_length_reference(self, deriv, case):
        tree, cfg, eval_seed = case
        sim = tree_as_simulator(tree)
        inst = tree.instance

        def evalx(p):  # an arbitrary keyed evaluator in [-1, 2]
            return -1.0 + 3.0 * keys.uniform(eval_seed, p.key)
        memo, full = MemoTable(), MemoTable()  # one table: cuts are shared
        with pytest.MonkeyPatch.context() as mp:
            if deriv is not None:
                mp.setattr(engine, "huber_deriv", deriv)
            for k in range(4):
                for p in tree.prefixes():
                    if tree.mu(p) == 0.0:
                        with pytest.raises(SupportError):
                            stochastic_grad_component(evalx, sim, memo, p, k,
                                                      cfg)
                        continue
                    z, a = sim.node(p)
                    want = engine.grad_component(
                        z, a, _full_length_draws(sim, full, p, k, cfg), evalx,
                        inst.b, inst.T, cfg.eta1, cfg.eta2, cfg.theta,
                        inst.iota)
                    assert stochastic_grad_component(evalx, sim, memo, p, k,
                                                     cfg) == want
        assert memo.sim_calls <= full.sim_calls

    def test_generative_draws_simulate_only_their_cut(self):
        # a completion is read only through its cut, so it simulates
        # c - |S| events, c = max(aleph_k); an episode trajectory is read in
        # full and simulates T
        raw = _nrm_handle(60)
        T = raw.instance.T
        cfg = make_config(K=3, eta1=2, eta2=2, master_seed=4)
        completed = {}

        def complete(prefix, key):
            completed[key] = prefix
            return raw.complete(prefix, key)
        sim = dataclasses.replace(raw, complete=complete)

        def factory(_):
            memo = MemoTable()

            def policy(prefix):
                decide_pen(sim, memo, prefix, cfg)
                return 0.0  # within every budget
            return policy
        with mock.patch.object(keys, "uniforms", wraps=keys.uniforms) as spy:
            eval_policy_mc(sim, factory, 2, seed=9)
        drawn = {}
        for call in spy.call_args_list:
            n, *key = call.args
            assert tuple(key) not in drawn  # each completion simulated once
            drawn[tuple(key)] = n
        assert drawn.keys() == completed.keys()
        cuts = []
        for key, prefix in completed.items():
            if key[1:2] == ("episode",):
                assert prefix == EMPTY_PREFIX and drawn[key] == T
                continue
            k, = [k for k in range(cfg.K) if key[0] == keys.key_digest(
                cfg.master_seed, "traj", k, prefix.key)]
            c = sample_index_set(cfg, T, k)[-1]
            assert drawn[key] == c - len(prefix) > 0
            cuts.append(c)
        assert min(cuts) < T and len(completed) > 2


@st.composite
def _tree_draw_cases(draw):
    seed = draw(st.integers(0, 10_000))
    kind = draw(st.sampled_from(["random-tree", "is", "mwm", "mmo"]))
    if kind == "random-tree":
        m = draw(st.integers(1, 3))
        sim = tree_as_simulator(random_tree(
            seed, T=draw(st.integers(1, 4)), m=m, L=draw(st.integers(1, m)),
            max_children=draw(st.integers(1, 3)), zero_mass_prob=0.5))
    elif kind == "is":
        sim = encode_is(random_is_process(seed, draw(st.integers(2, 6)), 2))[1]
    elif kind == "mwm":
        sim = encode_mwm(random_mwm_process(seed, draw(st.integers(3, 5)),
                                            2))[1]
    else:
        sim = encode_mmo(random_mmo_process(seed, 3, 2, 2))[1]
    T = sim.instance.T
    cfg = make_config(K=draw(st.integers(1, 4)), eta1=draw(st.integers(1, 3)),
                      eta2=draw(st.integers(1, min(3, T))),
                      momentum=draw(st.sampled_from(["unaccelerated",
                                                     "accelerated"])),
                      master_seed=draw(st.integers(0, 2**31)))
    return sim, cfg


class TestTreeDraws:
    """On a tree, a draw's cut and every head it is read at are the tree
    nodes' own prefixes, and the values equal those of a handle that
    slices them from the completions."""

    @settings(max_examples=60, deadline=None)
    @given(case=_tree_draw_cases())
    def test_heads_are_tree_nodes_and_values_match_slices(self, case):
        sim, cfg = case
        tree = sim.tree
        support = [p for p in tree.prefixes() if tree.mu(p) > 0.0]
        runs = []
        for handle in (sim, dataclasses.replace(sim, fixed_head=None)):
            memo = MemoTable()
            decisions = [decide_pen(handle, memo, p, cfg).hex()
                         for p in support]
            runs.append((decisions,
                         {key: v.hex() for key, v in memo.entries.items()}))
        memo = MemoTable()
        for k in range(cfg.K):  # every level, the unread ones included
            for p in support:
                conditional_draws(sim, memo, p, k, cfg)
        for d in memo.draws.values():
            assert tree.node(d.traj).prefix is d.traj
            for terms in d.terms.values():
                for head, _ in terms:
                    assert tree.node(head).prefix is head
        assert runs[0] == runs[1]


@st.composite
def _traffic_cases(draw):
    """A handle, the policy that fits it, and a config: the tree draw cases
    (random trees with zero-mass branches, is, mwm, mmo) or generative NRM."""
    if draw(st.booleans()):
        sim, cfg = draw(_tree_draw_cases())
    else:
        sim = generate_nrm(seed=draw(st.integers(0, 10_000)),
                           T=draw(st.integers(1, 8)), m=3, L=2, iota=0.3,
                           budget_ratio=0.5, mode="generative", n_events=4)
        cfg = make_config(K=draw(st.integers(1, 4)),
                          eta1=draw(st.integers(1, 3)),
                          eta2=draw(st.integers(1, min(3, sim.instance.T))),
                          master_seed=draw(st.integers(0, 2**31)))
    if sim.partite_of is not None:
        policy = policy_is
    elif sim.block_lookup is not None:
        policy = policy_mmo_greedy
    else:
        policy = draw(st.sampled_from([policy_lp, policy_nrm]))
    return sim, policy, cfg


def _play(sim, policy, cfg, shared, episodes=3):
    """``episodes`` of ``policy``, on one shared table or a fresh one each."""
    memo = MemoTable() if shared else None

    def factory(episode):
        ctx = new_episode_context(sim, cfg, episode, memo=memo)
        return lambda prefix: policy(ctx, sim, prefix, cfg)
    eval_policy_mc(sim, factory, episodes, seed=11)


class TestDrawTraffic:
    """Within one table each (prefix, k) draw set is asked for at most once:
    the recursion expands each entry once, and entry (S, k) reads only the
    draws of (S, k-1).  So the draw store keeps no per-(prefix, k) sets."""

    @staticmethod
    def _requests_per_set(spy):
        return collections.Counter(
            (id(call.args[1]), call.args[2].key, call.args[3])
            for call in spy.call_args_list)

    @settings(max_examples=60, deadline=None)
    @given(case=_traffic_cases(), shared=st.booleans())
    def test_each_draw_set_is_requested_once_per_table(self, case, shared):
        sim, policy, cfg = case
        with _draw_requests() as spy:
            _play(sim, policy, cfg, shared)
            if sim.tree is not None:
                run_algorithm1_explicit(sim.tree, cfg)
        assert all(n == 1 for n in self._requests_per_set(spy).values())
        tables = {id(call.args[1]): call.args[1]
                  for call in spy.call_args_list}
        for memo in tables.values():  # the store: one PathDraw per cut
            for (cut_key, aleph), d in memo.draws.items():
                assert type(d) is engine.PathDraw
                assert d.traj.key == cut_key and len(d.traj) == aleph[-1]

    def test_law_fails_when_an_entry_asks_twice(self, monkeypatch):
        # mutation check: asking again for an entry's draws changes no
        # value, so only the traffic law can catch it
        sim = tree_as_simulator(random_tree(seed=4, T=3, m=2))
        cfg = make_config(K=4, eta1=2, eta2=2)
        rule = engine._entry_draws

        def twice(sim, memo, prefix, k, config):
            rule(sim, memo, prefix, k, config)
            return rule(sim, memo, prefix, k, config)
        monkeypatch.setattr(engine, "_entry_draws", twice)
        with _draw_requests() as spy:
            _play(sim, policy_lp, cfg, shared=True)
        assert max(self._requests_per_set(spy).values()) == 2


class TestDerivedNode:
    """A handle built without ``node`` derives it from ``readout``, and the
    engine reads the process through ``node`` alone."""

    @settings(max_examples=40, deadline=None)
    @given(case=_skip_cases())
    def test_handle_without_node_matches_tree_handle(self, case):
        tree, cfg = case
        sim = tree_as_simulator(tree)
        runs = []
        for handle in (sim, dataclasses.replace(sim, node=None)):
            memo = MemoTable()
            decisions = [decide_pen(handle, memo, p, cfg)
                         for p in tree.prefixes()]
            draws = [(key, d.traj, d.terms)
                     for key, d in memo.draws.items()]
            # entries are write-once, so their insertion order is the
            # order of the writes
            runs.append((decisions, draws, list(memo.entries.items()),
                         memo.counters()))
        assert runs[0] == runs[1]

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 10_000), T=st.integers(1, 4),
           m=st.integers(1, 3))
    def test_replaced_readout_derives_node(self, seed, T, m):
        tree = random_tree(seed, T=T, m=m, L=min(m, 2))
        sim = tree_as_simulator(tree)

        def doubled(prefix):
            r = tree.readout(prefix)
            return Readout([2.0 * z for z in r.z], r.a)

        derived = dataclasses.replace(sim, node=None, readout=doubled)
        kept = dataclasses.replace(sim, readout=doubled)
        for p in tree.prefixes():
            z, a = sim.node(p)
            assert derived.node(p) == (2.0 * z, a)
            assert kept.node(p) == (z, a)


@st.composite
def _range_cases(draw):
    T = draw(st.integers(1, 4))
    m = draw(st.integers(1, 3))
    budgets = tuple(draw(st.lists(st.sampled_from([0.0, 0.3, 1.0, 1.9]),
                                  min_size=m, max_size=m)))
    tree = random_tree(draw(st.integers(0, 10_000)), T=T, m=m,
                       L=draw(st.integers(1, m)), budgets=budgets,
                       zero_mass_prob=draw(st.sampled_from([0.0, 0.5])))
    cfg = make_config(K=draw(st.integers(1, 6)), eta1=draw(st.integers(1, 3)),
                      eta2=draw(st.integers(1, min(3, T))),
                      alpha=draw(st.sampled_from([0.1, 0.6, 3.0])),
                      theta=draw(st.sampled_from([0.05, 0.5])),
                      momentum=draw(st.sampled_from(["unaccelerated",
                                                     "accelerated"])),
                      master_seed=draw(st.integers(0, 2**31)))
    return tree, cfg


class TestExtrapolationRange:
    """The recursion's evaluator has no range check, because its inputs
    rule out a value outside [-1, 2]: iterates lie in [0, 1] and beta_k in
    [0, 1), so Y^k = (1 + beta_k) X^k - beta_k X^(k-1) lies in
    [-beta_k, 1 + beta_k]."""

    @settings(max_examples=60, deadline=None)
    @given(case=_range_cases())
    def test_every_entry_extrapolates_inside_the_range(self, case):
        tree, cfg = case
        sim = tree_as_simulator(tree)
        memo = MemoTable()
        for p in tree.prefixes():
            if tree.mu(p) > 0.0:
                decide_pen(sim, memo, p, cfg)
        prefixes = {p.key: p for p in tree.prefixes()}
        for key, k in memo.entries:
            beta = cfg.beta(k)
            y = engine._extrapolation(memo, beta, k)(prefixes[key])
            assert 0.0 <= beta < 1.0
            assert -beta <= y <= 1.0 + beta
        y0 = engine._extrapolation(memo, cfg.beta(0), 0)
        assert all(y0(p) == 0.0 for p in tree.prefixes())


def _law_value(beta: float, x_k: float, x_prev: float) -> str:
    """Y^k = (1 + beta) X^k - beta X^(k-1), as the bits of its hex form."""
    return ((1.0 + beta) * x_k - beta * x_prev).hex()


class TestExtrapolationLaw:
    """The recursion's evaluator of level k is Y^k = (1 + beta_k) X^k -
    beta_k X^(k-1) bit for bit, with levels <= 0 zero, at every k and under
    both schedules, whichever way it reads the table.  Recursion and sweep
    share the evaluator, so only this law can catch a wrong shortcut (say,
    the one-entry read of beta = 0 taken for a beta > 0)."""

    @settings(max_examples=200, deadline=None)
    @given(k=st.integers(0, 40),
           momentum=st.sampled_from(["unaccelerated", "accelerated"]),
           values=st.lists(st.tuples(st.floats(0.0, 1.0), st.floats(0.0, 1.0)),
                           min_size=1, max_size=4))
    def test_evaluator_is_the_formula(self, k, momentum, values):
        beta = make_config(momentum=momentum).beta(k)
        memo = MemoTable()
        rows = [Prefix([(float(j),)]) for j in range(len(values))]
        for p, (x_k, x_prev) in zip(rows, values):
            if k >= 1:
                memo.put(p, k, x_k)
            if k >= 2:
                memo.put(p, k - 1, x_prev)
        y = engine._extrapolation(memo, beta, k)
        for p, (x_k, x_prev) in zip(rows, values):
            assert y(p).hex() == _law_value(beta, x_k if k >= 1 else 0.0,
                                            x_prev if k >= 2 else 0.0)

    @settings(max_examples=40, deadline=None)
    @given(case=_range_cases())
    def test_recursion_tables_obey_the_formula(self, case):
        # the one-entry read rests on iterates never being -0.0
        tree, cfg = case
        sim = tree_as_simulator(tree)
        memo = MemoTable()
        for p in tree.prefixes():
            if tree.mu(p) > 0.0:
                decide_pen(sim, memo, p, cfg)
        assert all(math.copysign(1.0, v) == 1.0 for v in memo.entries.values())
        prefixes = {p.key: p for p in tree.prefixes()}
        for key, k in memo.entries:
            y = engine._extrapolation(memo, cfg.beta(k), k)
            x_prev = memo.entries[(key, k - 1)] if k >= 2 else 0.0
            assert y(prefixes[key]).hex() == _law_value(
                cfg.beta(k), memo.entries[(key, k)], x_prev)


def _cost_bounds(cfg):
    """The per-decision bounds of the recursion: a decision writes at most
    sum_{j<K} r^j entries, r = eta1 * eta2 + 1 (an entry needs its own
    level below and the heads of eta1 draws at eta2 periods), and only
    entries at levels >= 2 simulate, eta1 completions each."""
    r = cfg.eta1 * cfg.eta2 + 1
    return (cfg.eta1 * sum(r ** j for j in range(cfg.K - 1)),
            sum(r ** j for j in range(cfg.K)))


def _nrm_handle(T):
    return generate_nrm(seed=5, T=T, m=3, L=2, iota=0.3, budget_ratio=0.5,
                        mode="generative", n_events=4)


@functools.lru_cache(maxsize=None)
def _explicit_nrm_handle(T):
    # 9,840 nodes at T = 8: built once per horizon, not once per example
    return tree_as_simulator(generate_nrm(seed=5, T=T, m=3, L=2, iota=0.3,
                                          budget_ratio=0.5))


_COST_INSTANCES = {
    "generative-nrm": _nrm_handle,
    "explicit-nrm": lambda T: _explicit_nrm_handle(min(T, 8)),
    "random-tree": lambda T: tree_as_simulator(random_tree(
        T, T=min(T, 4), m=3, L=2, zero_mass_prob=0.5)),
    "is-encoding": lambda T: encode_is(random_is_process(T, min(T, 8), 2))[1],
    "mwm-encoding": lambda T: encode_mwm(random_mwm_process(T, min(T, 8), 2))[1],
    "mmo-encoding": lambda T: encode_mmo(random_mmo_process(
        T, min(T, 4), min(T, 4), 2))[1],
}


class TestCostTheorem:
    """Each decision costs at most a number of simulator calls and memo
    writes fixed by K, eta1 and eta2, whatever the horizon and however
    many states the process has (the paper's central claim)."""

    @settings(max_examples=30, deadline=None)
    @given(kind=st.sampled_from(sorted(_COST_INSTANCES)),
           T=st.sampled_from([1, 3, 25, 100, 400]),
           K=st.integers(1, 4), eta1=st.integers(1, 3), eta2=st.integers(1, 3),
           momentum=st.sampled_from(["unaccelerated", "accelerated"]),
           seed=st.integers(0, 2**31),
           periods=st.lists(st.integers(0, 399), min_size=1, max_size=3))
    # the largest work the strategy allows, on every kind of instance
    @example(kind="generative-nrm", T=400, K=4, eta1=3, eta2=3,
             momentum="unaccelerated", seed=7, periods=[0, 24, 199])
    @example(kind="generative-nrm", T=400, K=4, eta1=3, eta2=3,
             momentum="accelerated", seed=8, periods=[1, 99, 300])
    @example(kind="explicit-nrm", T=8, K=4, eta1=3, eta2=3,
             momentum="accelerated", seed=9, periods=[0, 3, 7])
    @example(kind="random-tree", T=4, K=4, eta1=3, eta2=3,
             momentum="unaccelerated", seed=10, periods=[0, 1, 3])
    @example(kind="is-encoding", T=8, K=4, eta1=3, eta2=3,
             momentum="accelerated", seed=11, periods=[0, 3, 6])
    @example(kind="mwm-encoding", T=8, K=4, eta1=3, eta2=3,
             momentum="unaccelerated", seed=12, periods=[0, 3, 7])
    @example(kind="mmo-encoding", T=8, K=4, eta1=3, eta2=3,
             momentum="accelerated", seed=13, periods=[0, 4, 7])
    def test_decision_work_within_the_bound(self, kind, T, K, eta1, eta2,
                                            momentum, seed, periods):
        sim = _COST_INSTANCES[kind](T)
        T = sim.instance.T
        cfg = make_config(K=K, eta1=eta1, eta2=min(eta2, T),
                          momentum=momentum, master_seed=seed)
        calls_bound, writes_bound = _cost_bounds(cfg)
        shared = MemoTable()
        for e in range(2):
            traj = sim.complete(EMPTY_PREFIX, (seed, "episode", e))
            for t in sorted({p % T + 1 for p in periods}):
                fresh = MemoTable()
                decide_pen(sim, fresh, traj.head(t), cfg)
                assert fresh.sim_calls <= calls_bound
                assert fresh.writes <= writes_bound
                before = shared.counters()
                decide_pen(sim, shared, traj.head(t), cfg)
                assert shared.sim_calls - before["sim_calls"] <= calls_bound
                assert shared.writes - before["writes"] <= writes_bound

    def test_bound_fails_when_level_1_entries_draw(self, monkeypatch):
        # mutation check: level-1 entries that draw again read Y^0 = 0, so
        # every derivative stays 0.0 and no value changes; only the bound
        # on simulator calls can catch the extra draws
        rule = engine._entry_draws

        def drawing(sim, memo, prefix, k, config):
            z_s, a_s, draws = rule(sim, memo, prefix, k, config)
            if k == 1 and a_s:
                draws = conditional_draws(sim, memo, prefix, 0, config)
            return z_s, a_s, draws
        sim = _nrm_handle(400)
        cfg = make_config(K=4, eta1=3, eta2=3, master_seed=7)
        traj = sim.complete(EMPTY_PREFIX, (7, "episode", 0))
        kept = MemoTable()
        decide_pen(sim, kept, traj.head(1), cfg)
        monkeypatch.setattr(engine, "_entry_draws", drawing)
        mutated = MemoTable()
        decide_pen(sim, mutated, traj.head(1), cfg)
        assert mutated.entries == kept.entries
        assert kept.sim_calls <= _cost_bounds(cfg)[0] < mutated.sim_calls

    def test_bound_is_the_closed_form(self):
        # K = 4, eta1 = eta2 = 3: r = 10, so 3 * 111 calls and 1,111 writes
        assert _cost_bounds(make_config(K=4, eta1=3, eta2=3)) == (333, 1111)
        assert _cost_bounds(make_config(K=1, eta1=3, eta2=3)) == (0, 1)


@st.composite
def _closure_cases(draw):
    seed = draw(st.integers(0, 10_000))
    kind = draw(st.sampled_from(["random-tree", "generative-nrm", "is-encoding"]))
    if kind == "random-tree":
        m = draw(st.integers(1, 3))
        sim = tree_as_simulator(random_tree(
            seed, T=draw(st.integers(1, 4)), m=m, L=draw(st.integers(1, m)),
            zero_mass_prob=0.5))
    elif kind == "generative-nrm":
        sim = _nrm_handle(draw(st.integers(1, 100)))
    else:
        sim = encode_is(random_is_process(seed, draw(st.integers(2, 8)), 2))[1]
    T = sim.instance.T
    cfg = make_config(K=draw(st.integers(1, 4)), eta1=draw(st.integers(1, 3)),
                      eta2=draw(st.integers(1, min(3, T))),
                      momentum=draw(st.sampled_from(["unaccelerated",
                                                     "accelerated"])),
                      master_seed=draw(st.integers(0, 2**31)))
    traj = sim.complete(EMPTY_PREFIX, (seed, "episode"))
    return sim, cfg, traj.head(draw(st.integers(1, T)))


def _dependency_closure(sim, prefix, cfg):
    """The (prefix key, level) pairs that decide_pen at ``prefix`` needs,
    with draws from a table of its own: (S, k) needs (S, k-1) and, if k >= 2
    and S requests resources, (h, k-1) for every head h in d.terms[i] of
    its level-(k-1) draws d, for each resource i that S requests."""
    drawn = MemoTable()
    need, todo = set(), [(prefix, cfg.K)]
    while todo:
        S, k = todo.pop()
        if k < 1 or (S.key, k) in need:
            continue
        need.add((S.key, k))
        todo.append((S, k - 1))
        a_s = sim.node(S)[1]
        if k >= 2 and a_s:
            for d in conditional_draws(sim, drawn, S, k - 1, cfg):
                todo += [(h, k - 1) for i, _ in a_s for h, _ in d.terms.get(i, ())]
    return need


class TestDependencyClosure:
    """One decision writes exactly the entries its gradients read, closed
    under 'needs': no entry is missing, and none is written for nothing."""

    @settings(max_examples=60, deadline=None)
    @given(case=_closure_cases())
    def test_written_entries_are_the_closure(self, case):
        sim, cfg, prefix = case
        memo = MemoTable()
        decide_pen(sim, memo, prefix, cfg)
        assert set(memo.entries) == _dependency_closure(sim, prefix, cfg)


def _theory_gap(mode):
    """Penalty gap of the full sweep at the theory schedule, eps = 1,
    theta = T, on the worked instance, against the smoothed optimum computed
    by exact-gradient ascent at 1e-8 stationarity.  Returns the gap, the
    bound eps * T and the schedule."""
    from onlinepack.oracle import solve_pen_explicit
    from onlinepack.penalty import eval_f_theta

    tree = demo_tree()
    inst = tree.instance
    eps, theta = 1.0, float(inst.T)
    sc = derive_structure_constants(tree)
    pb = theory_params(mode, eps, inst.L, inst.iota, theta, inst.T,
                       U=sc.U, W=sc.W)
    cfg = SolverConfig(epsilon=eps, theta=theta, alpha=pb.alpha, K=pb.K,
                       eta1=pb.eta1, eta2=pb.eta2, master_seed=19,
                       momentum=mode)
    avg = averaged_solution(tree, cfg)
    opt, _ = solve_pen_explicit(tree, theta)
    return opt - eval_f_theta(tree, avg, theta), eps * inst.T, pb


class TestTheorySchedule:
    def test_full_sweep_with_theory_parameters_meets_gap(self):
        gap, bound, _ = _theory_gap("unaccelerated")
        assert gap <= bound
        assert gap <= 0.1  # the schedule overshoots wildly at this scale

    def test_full_sweep_with_accelerated_theory_parameters_meets_gap(self):
        gap, bound, pb = _theory_gap("accelerated")
        assert (pb.K, pb.eta1) == (8, 45_696)
        assert gap <= bound

    def test_zero_probability_branch_skipped_by_sweep(self):
        from onlinepack.model import TreeBuilder
        tb = TreeBuilder(T=1, m=1, b=(1.0,), L=1, iota=1.0)
        live = tb.add(None, (0.0,), 1.0, z=0.5, a={0: 1.0})
        dead = tb.add(None, (1.0,), 0.0, z=1.0, a={0: 1.0})
        tree = tb.build()
        cfg = make_config(K=2, eta1=1, eta2=1)
        its = run_algorithm1_explicit(tree, cfg)
        assert live.key in its[0]
        assert dead.key not in its[0]


def _ulps(x: float, steps: int) -> float:
    """x moved ``steps`` representable floats up (down when negative)."""
    for _ in range(abs(steps)):
        x = math.nextafter(x, math.inf if steps > 0 else 0.0)
    return x


@st.composite
def near_integer_roots(draw):
    """Float eps and theta a few ulps from the points where eps^(-1/2) or
    (ULW)^(1/4)/sqrt(iota theta) is an integer, where a float root rounds
    to either side."""
    s = draw(st.integers(1, 40))
    eps = min(_ulps(1 / s ** 2, draw(st.integers(-3, 3))), 1.0)
    L, U, W = draw(st.integers(1, 6)), draw(st.integers(1, 9)), \
        draw(st.integers(1, 30))
    iota = draw(st.sampled_from([1.0, 0.5, 0.3, 0.25]))
    q = draw(st.integers(1, 12))
    theta = _ulps(math.sqrt(U * L * W) / (iota * q * q),
                  draw(st.integers(-3, 3)))
    return eps, L, iota, theta, math.ceil(theta), U, W


class TestTheoryParams:
    @settings(max_examples=300, deadline=None)
    @given(args=near_integer_roots())
    def test_accelerated_roots_are_the_least_integers(self, args):
        eps, L, iota, theta, T, U, W = args
        pb = theory_params("accelerated", eps, L, iota, theta, T, U=U, W=W)
        q = math.isqrt(round(1 / (4 * pb.alpha)))
        assert pb.alpha == float(Fraction(1, 4) / (q * q))
        s, rest = divmod(pb.K, 8 * q)
        assert rest == 0
        # q is the least with q^4 (iota theta)^2 >= ULW, s the least with
        # s^2 eps >= 1, both in the exact rationals the floats hold
        io_th2 = (Fraction(iota) * Fraction(theta)) ** 2
        assert q ** 4 * io_th2 >= U * L * W > (q - 1) ** 4 * io_th2
        assert s * s * Fraction(eps) >= 1 > (s - 1) ** 2 * Fraction(eps)

    @pytest.mark.parametrize("eps,theta,U,q,K", [
        (0.2499999999, 1.0, 1, 1, 24),
        (1.0, 0.99999999999997, 16, 3, 24),
    ], ids=["eps-just-below-quarter", "q4-just-above-16"])
    def test_reproducer_rows(self, eps, theta, U, q, K):
        pb = theory_params("accelerated", eps, 1, 1.0, theta, 4, U=U, W=1)
        assert (pb.K, pb.alpha) == (K, float(Fraction(1, 4 * q * q)))

    def test_unaccelerated_known_row(self):
        pb = theory_params("unaccelerated", 1.0, 1, 1.0, 8.0, 8)
        assert pb.alpha == pytest.approx(1 / 24)
        assert pb.K == 288
        assert pb.eta1 == 2304
        assert pb.eta2 == min(20736, 8)

    def test_accelerated_known_row(self):
        pb = theory_params("accelerated", 0.25, 2, 1.0, 1.0, 8, U=2, W=4)
        assert pb.alpha == pytest.approx(1 / 16)
        assert pb.K == 32

    def test_theta_default(self):
        assert theta_default(0.5, 8, 1.0, 1) == 1.0

    def test_out_of_range(self):
        with pytest.raises(ParameterError):
            theory_params("unaccelerated", 1.5, 1, 1.0, 1.0, 4)
        with pytest.raises(ParameterError):
            theory_params("unaccelerated", 0.5, 1, 1.0, 9.0, 4)
        with pytest.raises(ParameterError):
            theory_params("accelerated", 0.5, 1, 1.0, 1.0, 4)  # missing U, W

    def test_non_positive_U_or_W_and_zero_iota_refused(self):
        for U, W in ((0, 1), (1, -1), (-1, -1)):
            with pytest.raises(ParameterError, match="U and W"):
                theory_params("accelerated", 0.5, 1, 1.0, 1.0, 4, U=U, W=W)
        with pytest.raises(ParameterError, match="iota"):
            theory_params("unaccelerated", 0.5, 1, 0.0, 1.0, 4)
