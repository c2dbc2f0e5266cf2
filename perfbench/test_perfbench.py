"""Tests of the benchmark's own code: statistics, checks, tracing, repeatability.

Run from the repository root with ``python3 -m pytest perfbench``.
"""

from __future__ import annotations

import dataclasses

import pytest

import checks
import spans
import workloads


def test_percentile_is_nearest_rank():
    values = list(range(100, 0, -1))
    assert checks.percentile(values, 50) == 50
    assert checks.percentile(values, 95) == 95
    assert checks.percentile(values, 100) == 100
    assert checks.percentile([7.0], 95) == 7.0
    with pytest.raises(ValueError):
        checks.percentile([], 50)


def test_tail_percentile_needs_twenty_samples_beyond():
    assert checks.samples_beyond(400, 95) == 20
    assert checks.samples_beyond(399, 95) == 19
    assert checks.tail_percentile(list(range(400)), 95) == 379
    with pytest.raises(ValueError):
        checks.tail_percentile(list(range(399)), 95)


def test_decision_range():
    assert not checks.decision_out_of_range(1, integral=True)
    assert checks.decision_out_of_range(0.5, integral=True)
    assert not checks.decision_out_of_range(0.5, integral=False)
    assert checks.decision_out_of_range(1.0 + 1e-6, integral=False)
    assert checks.decision_out_of_range(-1e-12, integral=False)


def test_recursion_call_bound():
    # eta1 * ((eta1 eta2 + 1)^0 + ... + (eta1 eta2 + 1)^(K-1))
    assert checks.recursion_call_bound(K=3, eta1=2, eta2=2) == 2 * (1 + 5 + 25)
    assert checks.recursion_call_bound(K=1, eta1=4, eta2=9) == 4


def _op():
    op, _ = workloads.import_onlinepack()
    return op


def test_planted_over_budget_episode_is_flagged():
    op = _op()
    tree = op.generate_nrm(seed=7, T=4, m=2, L=2, iota=0.3, budget_ratio=0.25,
                           mode="explicit", n_events=3)
    b = tree.instance.b
    # the leaf whose arrivals consume the most of resource 0, all accepted
    def load(leaf):
        r = tree.readout(leaf)
        return sum(v for t in range(1, 5) for i, v in r.rcv(t) if i == 0)
    leaf = max(tree.leaves(), key=load)
    assert load(leaf) > b[0]
    rcvs = [tree.readout(leaf).rcv(t) for t in range(1, 5)]
    over = checks.budget_excess(rcvs, [1, 1, 1, 1], b)
    assert [i for i, _ in over] and over[0][0] == 0
    assert checks.budget_excess(rcvs, [0, 0, 0, 0], b) == []


def test_planted_adjacent_is_nodes_are_flagged():
    op = _op()
    from onlinepack.encodings import encode_is, random_is_process
    process = random_is_process(3, n=6, delta=2, n_scenarios=2)
    _, sim = encode_is(process)
    _, edges, _ = process.scenarios[0]
    u, v = sorted(edges[0])
    leaf = next(p for p in sim.tree.leaves() if all(
        p.obs[t][0] == process.scenarios[0][2][t] for t in range(process.n)))
    decisions = [0] * process.n
    decisions[u] = decisions[v] = 1
    assert checks.is_conflicts(leaf.obs, decisions)
    decisions[v] = 0
    assert checks.is_conflicts(leaf.obs, decisions) == []
    # the same clash also overdraws the unit edge budget
    rcvs = [sim.readout(leaf).rcv(t) for t in range(1, process.n + 1)]
    decisions[v] = 1
    assert checks.budget_excess(rcvs, decisions, sim.instance.b)


def _small_gen(op):
    sim = op.generate_nrm(seed=7, T=20, m=3, L=2, iota=0.3, budget_ratio=0.5,
                          mode="generative", n_events=4)
    return sim, None


def test_sim_calls_per_decision_repeats_exactly():
    w = dataclasses.replace(workloads.WORKLOADS["gen-nrm-long"], build=_small_gen,
                            episodes=7)
    first = workloads.decide_child(w, seed=5, seconds=0, trace=False, oracle={})
    second = workloads.decide_child(w, seed=5, seconds=0, trace=False, oracle={})
    assert first["problems"] == [] and first["failed"] == 0
    assert first["sim_calls_per_decision"] == second["sim_calls_per_decision"]
    assert first["memo_writes_per_decision"] == second["memo_writes_per_decision"]


def test_traced_run_reports_layers_and_skips_missing_probes(monkeypatch):
    monkeypatch.setitem(spans.PROBES, "engine.grad_component",
                        ("engine.grad", "onlinepack.engine", "no_such_function"))
    w = dataclasses.replace(workloads.WORKLOADS["gen-nrm-long"], build=_small_gen,
                            episodes=7)
    out = workloads.decide_child(w, seed=5, seconds=0, trace=True, oracle={})
    assert out["problems"] == [] and out["failed"] == 0
    assert out["skipped"] == ["engine.grad_self_ms_per_decision"]
    assert "engine.grad_self_ms_per_decision" not in out["layer"]
    assert out["layer"]["keys.digests_per_decision"][0] > 0
    assert out["layer"]["model.prefix_rows_per_decision"][0] > 0
    # the wrappers are gone once the traced round ends
    op = _op()
    assert op.engine.conditional_draws.__module__ == "onlinepack.engine"
