import dataclasses
import hashlib

import pytest

from onlinepack.encodings import (BipartiteNodeProcess, EdgeArrivalProcess,
                                  OnlineNodeProcess, build_encoded, encode_is,
                                  encode_mmo, encode_mwm,
                                  is_traditional_reveal_ok,
                                  random_is_process, random_mmo_process,
                                  random_mwm_process)
from onlinepack.engine import MemoTable, SolverConfig, decide_pen
from onlinepack.errors import InstanceError
from onlinepack.model import EMPTY_PREFIX


def certain_edge_is():
    return BipartiteNodeProcess(
        n=2, delta=1, partite=("L", "R"),
        scenarios=((1.0, ((0, 1),), (1.0, 1.0)),))


class TestEncodeIs:
    def test_certain_edge(self):
        inst, sim = encode_is(certain_edge_is())
        assert inst.T == 2
        assert inst.m == 1
        assert inst.b == (1.0,)
        assert inst.iota == 1.0
        traj = sim.complete(EMPTY_PREFIX, (0,))
        r = sim.readout(traj)
        assert r.rcv(1) == ((0, 1.0),) and r.rcv(2) == ((0, 1.0),)
        assert sim.partite_of(traj.head(1)) == "L"
        assert sim.partite_of(traj) == "R"

    def test_edgeless_graph(self):
        proc = BipartiteNodeProcess(
            n=3, delta=1, partite=("L", "R", "L"),
            scenarios=((1.0, (), (0.5, 0.5, 0.5)),))
        inst, sim = encode_is(proc)
        traj = sim.complete(EMPTY_PREFIX, (0,))
        r = sim.readout(traj)
        assert all(r.rcv(t) == () for t in range(1, 4))

    def test_resource_count_formula(self):
        proc = BipartiteNodeProcess(
            n=4, delta=2, partite=("L", "L", "R", "R"),
            scenarios=((1.0, ((0, 2), (1, 3)), (0.5,) * 4),))
        inst, _ = encode_is(proc)
        assert inst.m == (2 * 4) // 2 == 4

    def test_degree_bound_enforced(self):
        with pytest.raises(InstanceError):
            encode_is(BipartiteNodeProcess(
                n=3, delta=1, partite=("L", "R", "R"),
                scenarios=((1.0, ((0, 1), (0, 2)), (0.5,) * 3),)))

    def test_edge_consumed_twice_or_never(self):
        proc = random_is_process(seed=5, n=6, delta=2)
        inst, sim = encode_is(proc)
        tree = sim.tree
        for leaf in tree.leaves():
            r = tree.readout(leaf)
            per_resource = {}
            for t in range(1, inst.T + 1):
                for i, v in r.rcv(t):
                    per_resource[i] = per_resource.get(i, 0.0) + v
            assert all(total == 2.0 for total in per_resource.values())

    def test_mixture_probabilities(self):
        proc = BipartiteNodeProcess(
            n=2, delta=1, partite=("L", "R"),
            scenarios=((0.25, ((0, 1),), (1.0, 1.0)),
                       (0.75, (), (0.2, 0.4))))
        inst, sim = encode_is(proc)
        leaves = sim.tree.leaves()
        mus = sorted(sim.tree.mu(leaf) for leaf in leaves)
        assert mus == [0.25, 0.75]

    def test_traditional_reveal_flag(self):
        # single-scenario processes always satisfy the restriction
        assert is_traditional_reveal_ok(certain_edge_is())
        # two scenarios share the prefix at node 0 (same weight, same edge id)
        # but edge 0 ends at node 1 in one and node 2 in the other
        ambiguous = BipartiteNodeProcess(
            n=3, delta=1, partite=("L", "R", "R"),
            scenarios=((0.5, ((0, 1),), (0.5, 0.5, 0.5)),
                       (0.5, ((0, 2),), (0.5, 0.5, 0.5))))
        assert not is_traditional_reveal_ok(ambiguous)


class TestEncodeMwm:
    def test_single_certain_edge(self):
        proc = EdgeArrivalProcess(n=2, delta=1,
                                  scenarios=((1.0, ((0, 1, 1.0),)),))
        inst, sim = encode_mwm(proc)
        assert inst.T == 1 and inst.m == 2
        traj = sim.complete(EMPTY_PREFIX, (0,))
        r = sim.readout(traj)
        assert r.rcv(1) == ((0, 1.0), (1, 1.0))
        assert r.reward(1) == 1.0

    def test_unrealized_periods_are_zero(self):
        proc = EdgeArrivalProcess(n=4, delta=2,
                                  scenarios=((1.0, ((0, 1, 0.9),)),))
        inst, sim = encode_mwm(proc)
        assert inst.T == 4
        traj = sim.complete(EMPTY_PREFIX, (0,))
        r = sim.readout(traj)
        for t in range(2, inst.T + 1):
            assert r.rcv(t) == () and r.reward(t) == 0.0

    def test_node_degree_bound(self):
        with pytest.raises(InstanceError):
            encode_mwm(EdgeArrivalProcess(
                n=3, delta=1,
                scenarios=((1.0, ((0, 1, 0.5), (0, 2, 0.5))),)))


class TestEncodeMmo:
    def test_block_window(self):
        proc = OnlineNodeProcess(n_offline=2, n_online=1, delta=2,
                                 scenarios=((1.0, ((0, 1),)),))
        inst, sim = encode_mmo(proc)
        traj = sim.complete(EMPTY_PREFIX, (0,))
        t1, t2, offline, prefixes = sim.block_lookup(traj.head(1))
        assert (t1, t2) == (1, 2)
        assert offline == (0, 1)
        assert [len(p) for p in prefixes] == [1, 2]
        assert prefixes[1].head(1) == traj.head(1)

    def test_block_lookup_mid_block(self):
        proc = OnlineNodeProcess(n_offline=3, n_online=1, delta=3,
                                 scenarios=((1.0, ((0, 1, 2),),),))
        inst, sim = encode_mmo(proc)
        traj = sim.complete(EMPTY_PREFIX, (0,))
        t1, t2, offline, prefixes = sim.block_lookup(traj.head(2))
        assert (t1, t2) == (1, 3)
        assert offline == (0, 1, 2)

    def test_consumption_covers_both_endpoints(self):
        proc = random_mmo_process(seed=8, n_offline=3, n_online=2, delta=2)
        inst, sim = encode_mmo(proc)
        for leaf in sim.tree.leaves():
            r = sim.tree.readout(leaf)
            for t in range(1, inst.T + 1):
                pairs = r.rcv(t)
                assert len(pairs) in (0, 2)
                if pairs:
                    offline, online = pairs[0][0], pairs[1][0]
                    assert offline < proc.n_offline <= online


class TestRandomProcesses:
    def test_reproducible(self):
        assert random_is_process(3, 5, 2) == random_is_process(3, 5, 2)
        assert random_mwm_process(3, 5, 2) == random_mwm_process(3, 5, 2)
        assert random_mmo_process(3, 3, 2, 2) == random_mmo_process(3, 3, 2, 2)

    def test_encodable(self):
        encode_is(random_is_process(7, 6, 2))
        encode_mwm(random_mwm_process(7, 5, 2))
        encode_mmo(random_mmo_process(7, 3, 2, 2))


@pytest.mark.parametrize("encoding", [
    {"family": "is", "seed": 0, "delta": 2, "n": 4},
    {"family": "mwm", "seed": 0, "delta": 2, "n": 4},
    {"family": "mmo", "seed": 0, "delta": 2, "n_offline": 3, "n_online": 2}])
def test_encoded_decisions_simulate_nothing(encoding):
    # every scenario is revealed at period 1, so below a root the tree is a
    # chain and the handle fixes every head a draw reads: an episode of
    # decide_pen makes no simulator call, and decides and writes exactly
    # what the handle that simulates every draw does
    sim = build_encoded(encoding)
    cfg = SolverConfig(epsilon=0.2, theta=0.5, alpha=0.3, K=4, eta1=3,
                       eta2=2, master_seed=5, practical_override=True)
    traj = sim.complete(EMPTY_PREFIX, (5, "episode", 0))
    runs = []
    for handle in (sim, dataclasses.replace(sim, fixed_head=None)):
        memo = MemoTable(cfg)
        decisions = [decide_pen(handle, memo, traj.head(t))
                     for t in range(1, sim.instance.T + 1)]
        runs.append((decisions, list(memo.entries.items()), memo.sim_calls))
    (fixed, fixed_writes, fixed_calls), (drawn, drawn_writes, drawn_calls) = runs
    assert fixed_calls == 0 < drawn_calls
    assert fixed == drawn
    assert fixed_writes == drawn_writes


@pytest.mark.parametrize("make, args, digest", [
    (random_is_process, (3, 12, 3, 30),
     "dc5c8e5a7dd3616633cccb4fcad2324028f2a077936d234f73397ff93209a621"),
    (random_is_process, (0, 40, 2, 3),
     "e8652491d6c13f12c9830e03ac8852c91b626bd8efea6897ed754effa4c81c62"),
    (random_mwm_process, (5, 8, 2, 10),
     "294a575eb6356856c5ffb4265f67e79f1327270ce2db795527790841751aa04b"),
])
def test_random_process_golden(make, args, digest):
    # args are (seed, n, delta, n_scenarios); the repr holds every field:
    # partite labels, scenario probabilities, edges and weights
    process = make(*args)
    assert hashlib.sha256(repr(process).encode()).hexdigest() == digest


def _is(partite=("L", "R"), edges=((0, 1),), weights=(0.5, 0.5), mass=1.0):
    return encode_is(BipartiteNodeProcess(
        n=2, delta=1, partite=partite, scenarios=((mass, edges, weights),)))


def _mwm(edges=((0, 1, 0.5),), mass=1.0):
    return encode_mwm(EdgeArrivalProcess(n=2, delta=1,
                                         scenarios=((mass, edges),)))


def _mmo(neighbors=((0,),), n_offline=1, mass=1.0):
    return encode_mmo(OnlineNodeProcess(n_offline=n_offline, n_online=1,
                                        delta=1,
                                        scenarios=((mass, neighbors),)))


@pytest.mark.parametrize("build, fragment", [
    (lambda: _is(partite=("L",)), "partite labels must cover every node"),
    (lambda: _is(partite=("L", "X")), "partite labels must be 'L' or 'R'"),
    (lambda: _is(mass=0.9), "scenario probabilities must sum to 1"),
    (lambda: _mwm(mass=0.5), "scenario probabilities must sum to 1"),
    (lambda: _mmo(mass=0.5), "scenario probabilities must sum to 1"),
    (lambda: _is(edges=((0, 0),)), "bad edge (0, 0)"),
    (lambda: _is(partite=("L", "L")), "edge (0, 1) is not bipartite"),
    (lambda: _is(edges=((0, 1), (1, 0))), "duplicate edge (0, 1)"),
    (lambda: _is(weights=(0.5, 1.5)), "node weights must lie in [0, 1]"),
    (lambda: _mmo(neighbors=()), "each online node needs a neighbor tuple"),
    (lambda: _mmo(neighbors=((0, 1),), n_offline=2),
     "online node degree bound violated"),
    (lambda: _mmo(neighbors=((0, 0),)), "online node degree bound violated"),
    (lambda: _mmo(neighbors=((3,),)), "offline id 3 out of range"),
    (lambda: _mwm(edges=((0, 1, 0.5), (0, 1, 0.5))),
     "more realized edges than floor(Delta n / 2)"),
], ids=["labels-short", "label-X", "is-mass", "mwm-mass", "mmo-mass",
        "self-loop", "same-side", "duplicate", "weight", "mmo-missing",
        "mmo-degree", "mmo-repeat", "mmo-offline-id", "mwm-too-many"])
def test_encoder_refusals(build, fragment):
    with pytest.raises(InstanceError) as err:
        build()
    assert fragment in str(err.value)
