"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines.  The headline guarantees are asymptotic with astronomically large
theory schedules, so acceptance works at desk scale: exact formula checks,
oracle equivalence, and property audits with pinned tolerances.
"""

import dataclasses
import math
from fractions import Fraction

import numpy as np
import pytest

from helpers import random_solution, random_tree, windowed_tree
from onlinepack import keys
from onlinepack.encodings import (encode_is, encode_mmo, encode_mwm,
                                  random_is_process, random_mmo_process,
                                  random_mwm_process)
from onlinepack.engine import (MemoTable, SolverConfig,
                               conditional_draws, decide_pen, leaf_grad_table,
                               recursive_R,
                               run_algorithm1_explicit,
                               stochastic_grad_component, theory_params,
                               theta_default)
from onlinepack.model import (EMPTY_PREFIX, demo_tree,
                              derive_structure_constants, generate_nrm,
                              tree_as_simulator)
from onlinepack.oracle import (eval_policy_exact, eval_policy_mc,
                               solve_lp_explicit, solve_pack_dp, solve_pen_lp)
from onlinepack.penalty import (aggregate_violation, eval_f,
                                exact_grad_f_theta, huber, huber_deriv)
from onlinepack.policies import (FeasState, feas_table, new_episode_context,
                                 policy_is, policy_lp, policy_mmo_greedy,
                                 policy_nrm, round_bernoulli)

from test_penalty import finite_difference_grad, solution_away_from_kinks


def report(name: str, ok: bool, detail: str) -> None:
    print(f"\n[{'PASS' if ok else 'FAIL'}] {name}: {detail}")
    assert ok, f"{name}: {detail}"


def practical(tree_or_inst, alpha=0.1, K=200, eta1=64, seed=2024,
              epsilon=0.1, momentum="unaccelerated"):
    """The pinned practical configuration of the gap criterion."""
    inst = getattr(tree_or_inst, "instance", tree_or_inst)
    if hasattr(tree_or_inst, "leaf_keys"):
        V = derive_structure_constants(tree_or_inst).V
    else:
        V = inst.v_or_default()
    theta = theta_default(epsilon, inst.T, inst.iota, V)
    return SolverConfig(epsilon=epsilon, theta=theta, alpha=alpha, K=K,
                        eta1=eta1, eta2=inst.T, master_seed=seed,
                        momentum=momentum, practical_override=True)


def test_c01_huber_properties():
    gen = keys.generator(1001, "acceptance-huber")
    worst = 0.0
    for _ in range(10_000):
        theta = float(0.001 + 8 * gen.random())
        x = float(40 * gen.random() - 20)
        y = float(40 * gen.random() - 20)
        xp = max(x, 0.0)
        tol = 1e-12 * max(1.0, abs(x))
        lo = huber(x, theta)
        assert lo <= xp + tol
        assert xp <= lo + theta / 2 + tol
        lip = abs(huber_deriv(x, theta) - huber_deriv(y, theta))
        assert lip <= abs(x - y) / theta + tol
        worst = max(worst, lo - xp, xp - lo - theta / 2)
    report("criterion 1 (huber sandwich + lipschitz)", True,
           f"10^4 pairs, worst sandwich slack {worst:.2e}")


def _trees_under_cap(first_seed, count, cap, **kw):
    """First ``count`` seeded random trees within the node cap."""
    out = []
    seed = first_seed
    while len(out) < count:
        tree = random_tree(seed=seed, **kw)
        if len(tree) <= cap:
            out.append((seed, tree))
        seed += 1
    return out


def test_c02_exact_gradient_vs_finite_differences():
    worst = 0.0
    coords = 0
    for seed, tree in _trees_under_cap(500, 20, 100, T=4, m=2, L=2,
                                       iota=0.5, max_children=3):
        theta = 0.4 + 0.05 * (seed % 5)
        x = solution_away_from_kinks(tree, theta)
        grad = exact_grad_f_theta(tree, x, theta)
        fd = finite_difference_grad(tree, x, theta, h=1e-6)
        for key, g in grad.items():
            rel = abs(fd[key] - g) / max(1.0, abs(g))
            worst = max(worst, rel)
            coords += 1
            assert rel <= 1e-5
    report("criterion 2 (exact gradient vs central differences)", True,
           f"20 trees, {coords} coordinates, worst rel err {worst:.2e}")


def test_c03_stochastic_gradient_unbiasedness():
    # 30-node tree: binary branching, T = 4
    tree = random_tree(seed=404, T=4, m=2, L=2, iota=0.5,
                       max_children=2, min_children=2)
    assert len(tree) == 30
    sim = tree_as_simulator(tree)
    T = tree.instance.T
    cfg = SolverConfig(epsilon=0.2, theta=0.7, alpha=0.1, K=1, eta1=1,
                       eta2=T, master_seed=88, practical_override=True)
    n = 100_000
    worst_sigma = 0.0
    # engine-path draws must match the per-leaf table bitwise
    x0 = random_solution(tree, 9000)
    prefix0 = tree.prefixes()[0]
    leaf_keys, cond, values = leaf_grad_table(tree, prefix0, x0, cfg)
    value_of = dict(zip(leaf_keys, values))
    memo = MemoTable()
    for k in range(100):
        g = stochastic_grad_component(lambda q: x0[q.key], sim, memo,
                                      prefix0, k, cfg)
        drawn = conditional_draws(sim, memo, prefix0, k, cfg)[0].traj.key
        assert g == value_of[drawn]
    # scale the statistics with the same integrand over exact cond. draws;
    # the 1e-9 slack covers zero-variance coordinates, where the sample is
    # constant and the gap is pure summation noise
    for trial in range(5):
        x = random_solution(tree, 9000 + trial)
        exact = exact_grad_f_theta(tree, x, cfg.theta)
        for j, prefix in enumerate(tree.prefixes()):
            lk, cond, values = leaf_grad_table(tree, prefix, x, cfg)
            gen = keys.generator(cfg.master_seed, "unbias", trial, j)
            cum = np.cumsum(cond)
            idx = np.searchsorted(cum, gen.random(n) * cum[-1], side="right")
            idx = np.minimum(idx, len(values) - 1)
            samples = values[idx]
            se = samples.std(ddof=1) / math.sqrt(n)
            gap = abs(samples.mean() - exact[prefix.key])
            assert gap <= 3 * se + 1e-9, (trial, j, gap, se)
            if se > 1e-9:
                worst_sigma = max(worst_sigma, gap / se)
    report("criterion 3 (stochastic gradient unbiased at eta2=T)", True,
           f"5 solutions x 30 coords x 10^5 draws, worst z-score "
           f"{worst_sigma:.2f} on noisy coordinates")


def test_c04_recursion_equals_full_sweep():
    checked = 0
    for index, (seed, tree) in enumerate(
            _trees_under_cap(700, 20, 50, T=4, m=2, L=2, iota=0.4,
                             max_children=3)):
        momentum = "accelerated" if index % 2 else "unaccelerated"
        cfg = SolverConfig(epsilon=0.3, theta=0.5, alpha=0.15,
                           K=2 + seed % 3, eta1=1 + seed % 2, eta2=2,
                           master_seed=seed, momentum=momentum,
                           practical_override=True)
        sweep = run_algorithm1_explicit(tree, cfg)
        sim = tree_as_simulator(tree)
        memo = MemoTable()
        for p in tree.prefixes():
            recursive_R(sim, memo, p, cfg.K, cfg)
            for k in range(1, cfg.K + 1):
                assert memo.value(p, k) == sweep[k - 1][p.key]
                checked += 1
        # memo permanence: every entry written exactly once
        assert memo.writes == len(memo.entries)
    report("criterion 4 (routine R == full sweep, bitwise)", True,
           f"20 trees, both schedules, {checked} (S, k) pairs equal")


def test_c05_call_count_bound():
    ratios_general = []
    ratios_full = []
    for seed in range(10):
        tree = random_tree(seed=900 + seed, T=4, m=2, L=2, iota=0.5,
                           max_children=2)
        sim = tree_as_simulator(tree)
        consts = derive_structure_constants(tree)
        for k in (1, 2, 3):
            for eta1, eta2 in ((1, 1), (1, 3), (2, 2)):
                cfg = SolverConfig(epsilon=0.3, theta=0.5, alpha=0.1, K=k,
                                   eta1=eta1, eta2=eta2, master_seed=seed,
                                   practical_override=True)
                memo = MemoTable()
                recursive_R(sim, memo, tree.prefixes()[0], k, cfg)
                ratios_general.append(
                    memo.writes / (eta1 * eta2 + 1) ** (k + 1))
            cfg = SolverConfig(epsilon=0.3, theta=0.5, alpha=0.1, K=k,
                               eta1=2, eta2=tree.instance.T,
                               master_seed=seed, practical_override=True)
            memo = MemoTable()
            recursive_R(sim, memo, tree.prefixes()[0], k, cfg)
            ratios_full.append(
                memo.writes / (2 * consts.U * consts.L + 1) ** (k + 1))
    c_general = max(ratios_general)
    c_full = max(ratios_full)
    ok = c_general <= 2.0 and c_full <= 2.0
    report("criterion 5 (recursion count bound)", ok,
           f"fitted c = {c_general:.3f} for (eta1 eta2 + 1)^(k+1), "
           f"c = {c_full:.3f} for (eta1 U L + 1)^(k+1) at eta2 = T")


def test_c06_horizon_independence():
    summaries = []
    ok = True
    for K, eta1 in ((3, 2), (4, 1)):
        counts = {}
        decisions = {}
        for T in (4, 8, 16, 32):
            tree = windowed_tree(T=T, window=4, seed=33, budget=2.0)
            consts = derive_structure_constants(tree)
            assert (consts.U, consts.L) == (4, 1)
            sim = tree_as_simulator(tree)
            cfg = SolverConfig(epsilon=0.2, theta=0.5, alpha=0.1, K=K,
                               eta1=eta1, eta2=T, master_seed=7,
                               practical_override=True)
            memo = MemoTable()
            prefix = tree.prefixes()[0].head(1)
            decisions[T] = decide_pen(sim, memo, prefix, cfg)
            counts[T] = memo.sim_calls
            # the recursion must never leave the consumption window
            depths = {len(tree.node(key).prefix) for key, _ in memo.entries}
            assert max(depths) <= 4
        # once T exceeds the window, the work is the same at every horizon;
        # at T = 4 the draws' last read period can reach the horizon, where
        # a draw lies inside its prefix and simulates nothing
        ok = ok and counts[8] == counts[16] == counts[32] \
            and counts[4] <= counts[8] \
            and len(set(decisions.values())) == 1
        summaries.append(f"K={K},eta1={eta1}: calls at T=4/8/16/32 = "
                         f"{counts[4]}/{counts[8]}/{counts[16]}/{counts[32]}")
    report("criterion 6 (horizon-independent per-decision work)", ok,
           "; ".join(summaries))


def test_c06_operation_count_horizon_independent(monkeypatch):
    """Rows canonicalized inside policy_nrm decisions do not grow with T."""
    import onlinepack.model as model
    counted = [0]
    canonical = model._canonical_observation

    def counting(values):
        counted[0] += 1
        return canonical(values)

    rows = {}
    for T in (25, 200):
        sim = generate_nrm(seed=5, T=T, m=3, L=2, iota=0.3, budget_ratio=0.5,
                           mode="generative", n_events=4)
        cfg = SolverConfig(epsilon=0.2, theta=0.5, alpha=0.1, K=2, eta1=2,
                           eta2=2, master_seed=7, practical_override=True)
        ctx = new_episode_context(sim, cfg, 0)
        traj = sim.complete(EMPTY_PREFIX, (7, "episode", 0))
        monkeypatch.setattr(model, "_canonical_observation", counting)
        counted[0] = 0
        for t in range(1, 4):
            policy_nrm(ctx, sim, traj.head(t), cfg)
        rows[T] = counted[0]
        monkeypatch.setattr(model, "_canonical_observation", canonical)
    report("criterion 6b (horizon-independent per-decision operations)",
           rows[25] == rows[200] == 0,
           f"rows canonicalized in 3 decisions at T=25/200 = "
           f"{rows[25]}/{rows[200]}")


def test_c06_node_lookups_per_draw_equal_eta2():
    """Indexing a completion reads its eta2 sampled periods, at any T."""
    per_draw = {}
    for T in (25, 200):
        sim = generate_nrm(seed=5, T=T, m=3, L=2, iota=0.3, budget_ratio=0.5,
                           mode="generative", n_events=4)
        lookups = [0]

        def node(prefix, raw=sim.node):
            lookups[0] += 1
            return raw(prefix)

        def readout(prefix):
            raise AssertionError("full readout on the decision path")

        sim = dataclasses.replace(sim, node=node, readout=readout)
        cfg = SolverConfig(epsilon=0.2, theta=0.5, alpha=0.1, K=3, eta1=2,
                           eta2=3, master_seed=7, practical_override=True)
        memo = MemoTable()
        traj = sim.complete(EMPTY_PREFIX, (7, "episode", 0))
        for t in range(1, 4):
            for k in range(3):
                conditional_draws(sim, memo, traj.head(t), k, cfg)
        per_draw[T] = lookups[0] / len(memo.draws)
    report("criterion 6c (horizon-independent completion indexing)",
           per_draw[25] == per_draw[200] == 3,
           f"node lookups per indexed completion at T=25/200 = "
           f"{per_draw[25]}/{per_draw[200]} with eta2 = 3")


def _gap_check(tree, seed):
    opt_lp, _ = solve_lp_explicit(tree)
    cfg = practical(tree, seed=seed)
    sim = tree_as_simulator(tree)
    memo = MemoTable()

    def factory(e):
        ctx = new_episode_context(sim, cfg, e, memo=memo)
        return lambda p: policy_lp(ctx, sim, p, cfg)

    rep = eval_policy_mc(sim, factory, 10_000, seed=seed)
    slack = opt_lp - 0.1 * tree.instance.T - 3 * rep.std_error
    return rep.mean_reward, opt_lp, slack, rep


def test_c07_optimality_gap():
    # the worked T=2 instance: OPT_lp = 0.6
    tree = demo_tree()
    opt_lp, _ = solve_lp_explicit(tree)
    assert opt_lp == pytest.approx(0.6, abs=1e-9)
    mean, opt, slack, _ = _gap_check(tree, seed=1)
    assert mean >= slack, (mean, slack)
    worst_margin = mean - slack
    # 20 random DP-solvable instances: T <= 6, m <= 3, a in {0, 1}
    for seed in range(20):
        gen = keys.generator(3000 + seed, "gap-instance")
        T = int(gen.integers(2, 7))
        m = int(gen.integers(1, 4))
        tree = random_tree(seed=3000 + seed, T=T, m=m, L=min(m, 2),
                           iota=1.0, integral_a=True, max_children=2)
        dp = solve_pack_dp(tree)
        mean, opt, slack, rep = _gap_check(tree, seed=seed + 2)
        assert dp.value <= opt + 1e-9  # relaxation chain holds en route
        assert mean >= slack, (seed, mean, slack)
        worst_margin = min(worst_margin, mean - slack)
    report("criterion 7 (optimality gap at practical parameters)", True,
           f"21 instances, mean reward >= OPT_lp - 0.1T - 3se; "
           f"smallest margin {worst_margin:.4f}")


def test_c08_hard_feasibility():
    n_episodes = 100_000
    audited = {}

    # lp and nrm on a correlated-demand tree
    tree = generate_nrm(seed=12, T=4, m=3, L=2, iota=0.3, budget_ratio=0.5)
    sim = tree_as_simulator(tree)
    cfg = practical(tree, K=60, eta1=16, seed=5)
    memo = MemoTable()  # lp and nrm share the fractional layer
    for name, fn in (("lp", policy_lp), ("nrm", policy_nrm)):
        def factory(e, fn=fn):
            ctx = new_episode_context(sim, cfg, e, memo=memo)
            return lambda p: fn(ctx, sim, p, cfg)
        rep = eval_policy_mc(sim, factory, n_episodes, seed=10)
        audited[name] = rep.violation_count

    # is / mwmlp / mmo-greedy on random encoded instances
    _, sim_is = encode_is(random_is_process(seed=41, n=6, delta=2))
    cfg_is = practical(sim_is.tree, K=40, eta1=8, seed=6)
    memo_is = MemoTable()

    def factory_is(e):
        ctx = new_episode_context(sim_is, cfg_is, e, memo=memo_is)
        return lambda p: policy_is(ctx, sim_is, p, cfg_is)

    audited["is"] = eval_policy_mc(sim_is, factory_is, n_episodes,
                                   seed=11).violation_count

    _, sim_mwm = encode_mwm(random_mwm_process(seed=42, n=5, delta=2))
    cfg_mwm = practical(sim_mwm.tree, K=40, eta1=8, seed=7)
    memo_mwm = MemoTable()

    def factory_mwm(e):
        ctx = new_episode_context(sim_mwm, cfg_mwm, e, memo=memo_mwm)
        return lambda p: policy_lp(ctx, sim_mwm, p, cfg_mwm)

    audited["mwmlp"] = eval_policy_mc(sim_mwm, factory_mwm, n_episodes,
                                      seed=12).violation_count

    _, sim_mmo = encode_mmo(random_mmo_process(seed=43, n_offline=3,
                                               n_online=2, delta=2))
    cfg_mmo = practical(sim_mmo.tree, K=40, eta1=8, seed=8)
    memo_mmo = MemoTable()

    def factory_mmo(e):
        ctx = new_episode_context(sim_mmo, cfg_mmo, e, memo=memo_mmo)
        return lambda p: policy_mmo_greedy(ctx, sim_mmo, p, cfg_mmo)

    audited["mmo-greedy"] = eval_policy_mc(sim_mmo, factory_mmo, n_episodes,
                                           seed=13).violation_count

    ok = all(v == 0 for v in audited.values())
    report("criterion 8 (hard feasibility, 10^5 episodes per family)", ok,
           f"violations by family: {audited}")


def test_c09_feas_properties():
    # reward lost by FEAS is bounded by the aggregate violation over iota
    worst2 = float("inf")
    pairs = 0
    for seed in range(25):
        tree = random_tree(seed=1100 + seed, T=3 + seed % 3, m=2, L=2,
                           iota=0.4)
        for trial in range(4):
            x = random_solution(tree, 1200 + 10 * seed + trial)
            patched = feas_table(tree, x)
            lhs = eval_policy_exact(tree, patched)
            rhs = eval_policy_exact(tree, x) - \
                aggregate_violation(tree, x) / tree.instance.iota
            assert lhs >= rhs - 1e-10, (seed, trial)
            worst2 = min(worst2, lhs - rhs)
            pairs += 1
    assert pairs == 100

    # aggregate violation <= iota * (OPT_pen - f(X))
    for seed in range(10):
        tree = random_tree(seed=1400 + seed, T=3, m=2, L=2, iota=0.5)
        opt_pen = solve_pen_lp(tree)
        for trial in range(3):
            x = random_solution(tree, 1500 + 10 * seed + trial)
            viol = aggregate_violation(tree, x)
            bound = tree.instance.iota * (opt_pen - eval_f(tree, x))
            assert viol <= bound + 1e-8, (seed, trial, viol, bound)

    # at most V fractional FEAS outputs on an integral input stream
    worst6 = 0
    for seed in range(10):
        tree = random_tree(seed=1600 + seed, T=5, m=3, L=2, iota=0.4)
        sim = tree_as_simulator(tree)
        consts = derive_structure_constants(tree)
        gen = keys.generator(seed, "integral-stream")
        for e in range(200):
            traj = sim.complete(EMPTY_PREFIX, (seed, "l6", e))
            r = sim.readout(traj)
            fs = FeasState(tree.instance.b)
            fractional = 0
            for t in range(1, tree.instance.T + 1):
                out = fs.step(r.rcv(t), float(gen.integers(0, 2)))
                if out not in (0.0, 1.0):
                    fractional += 1
            assert fractional <= consts.V, (seed, e)
            worst6 = max(worst6, fractional)

    # V <= min(m, L / nu) on generated instances
    for seed in range(8):
        tree = generate_nrm(seed=2000 + seed, T=4, m=3, L=2, iota=0.3,
                            budget_ratio=0.4 + 0.1 * (seed % 3))
        consts = derive_structure_constants(tree)
        bound = min(tree.instance.m, tree.instance.L / tree.instance.nu)
        assert consts.V <= bound + 1e-12
    report("criterion 9 (FEAS properties)", True,
           f"loss bound on 100 pairs (min slack {worst2:.3e}); violation link "
           f"on 30; max fractional count {worst6}; V bound on 8 instances")


def test_c10_rounding_preservation():
    n = 100_000
    # independent Bernoulli rounding preserves the expected reward
    tree = random_tree(seed=2100, T=4, m=2, L=2, iota=0.5)
    sim = tree_as_simulator(tree)
    x = random_solution(tree, 2101)
    exact = eval_policy_exact(tree, x)
    rewards = np.empty(n)
    for e in range(n):
        traj = sim.complete(EMPTY_PREFIX, (77, "round", e))
        r = sim.readout(traj)
        total = 0.0
        for t in range(1, tree.instance.T + 1):
            d = round_bernoulli(x[traj.head(t).key], (77, "bern", e, t))
            total += r.reward(t) * d
        rewards[e] = total
    se = rewards.std(ddof=1) / math.sqrt(n)
    gap_round = abs(rewards.mean() - exact)
    assert gap_round <= 3 * se

    # IS threshold rounding is lossless in expectation
    _, sim_is = encode_is(random_is_process(seed=2200, n=6, delta=2))
    tree_is = sim_is.tree
    cfg = practical(tree_is, K=40, eta1=8, seed=9)
    memo = MemoTable()

    def frac_factory(e):
        ctx = new_episode_context(sim_is, cfg, e, memo=memo)
        return lambda p: policy_lp(ctx, sim_is, p, cfg)

    def is_factory(e):
        ctx = new_episode_context(sim_is, cfg, e, memo=memo)
        return lambda p: policy_is(ctx, sim_is, p, cfg)

    frac = eval_policy_mc(sim_is, frac_factory, n, seed=14)
    rounded = eval_policy_mc(sim_is, is_factory, n, seed=14)
    spread = math.hypot(frac.std_error, rounded.std_error)
    gap_is = abs(rounded.mean_reward - frac.mean_reward)
    assert gap_is <= 3 * spread
    report("criterion 10 (rounding preserves expected reward)", True,
           f"ROUND gap {gap_round:.4f} <= 3se {3 * se:.4f}; "
           f"IS gap {gap_is:.4f} <= 3se {3 * spread:.4f}")


def test_c11_parameter_formulas():
    gen = keys.generator(2500, "params")
    checked = 0
    for _ in range(50):
        L = int(gen.integers(1, 6))
        U = int(gen.integers(2, 9))
        W = int(gen.integers(1, 30))
        T = int(gen.integers(2, 64))
        iota = float(gen.choice([1.0, 0.5, 0.25, 0.125]))
        eps = float(gen.choice([1.0, 0.5, 0.25, 0.2, 0.1]))
        theta = float(gen.choice([1.0, 0.5, 0.25])) * T

        fe, fi, fth = Fraction(eps), Fraction(iota), Fraction(theta)
        un = theory_params("unaccelerated", eps, L, iota, theta, T)
        assert un.alpha == float(fi * fi * fe / (24 * L * L))
        assert un.K == math.ceil(288 * L * L / (fe * fe * fi * fi))
        assert un.eta1 == math.ceil(2304 * L * L / (fi * fi * fe * fe))
        assert un.eta2 == min(
            math.ceil(20736 * L * L * T * T / (fi * fi * fth * fth * fe * fe)), T)

        acc = theory_params("accelerated", eps, L, iota, theta, T, U=U, W=W)
        q_float = (U * L * W) ** 0.25 / math.sqrt(iota * theta)
        q = math.ceil(q_float - 1e-9)
        assert acc.alpha == float(Fraction(1, 4) / (q * q))
        assert acc.K == 8 * q * math.ceil(1.0 / math.sqrt(eps) - 1e-9)
        assert acc.eta1 == math.ceil(45696 * L * L / (fi * fi * fe * fe))
        assert acc.eta2 == min(
            math.ceil(221184 * L * L * T * T / (fi * fi * fth * fth * fe * fe)), T)
        checked += 1
    # the worked rows
    un = theory_params("unaccelerated", 1.0, 1, 1.0, 8.0, 8)
    assert (un.alpha, un.K, un.eta1) == (1 / 24, 288, 2304)
    acc = theory_params("accelerated", 0.25, 2, 1.0, 1.0, 8, U=2, W=4)
    assert (acc.alpha, acc.K) == (1 / 16, 32)
    assert theta_default(0.5, 8, 1.0, 1) == 1.0
    report("criterion 11 (theory parameter formulas)", True,
           f"{checked} random tuples in exact arithmetic + worked rows")
