import dataclasses
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import one_node_tree, random_tree, two_branch_tree
from onlinepack import keys
from onlinepack.errors import CapacityError, InstanceError, SupportError
from onlinepack.model import (EMPTY_PREFIX, InstanceSpec, Prefix, TreeBuilder,
                              demo_tree, derive_structure_constants,
                              generate_nrm, load_instance_payload,
                              tree_as_simulator, tree_to_payload,
                              payload_to_tree)


class TestPrefix:
    def test_equality_is_by_serialization(self):
        a = Prefix(((1.0, 2.0), (3.0, 4.0)))
        b = Prefix([[1, 2], [3, 4]])
        assert a == b and hash(a) == hash(b) and a.key == b.key

    def test_distinct_values_distinct_keys(self):
        assert Prefix(((1.0,),)) != Prefix(((2.0,),))
        assert Prefix(((1.0,),)) != Prefix(((1.0,), (1.0,)))

    def test_negative_zero_collapses(self):
        assert Prefix(((-0.0,),)) == Prefix(((0.0,),))

    def test_head_and_extend(self):
        p = Prefix(((1.0,), (2.0,), (3.0,)))
        assert p.head(2) == Prefix(((1.0,), (2.0,)))
        assert p.head(3) is p
        assert p.head(2).extend((3.0,)) == p
        assert p.startswith(p.head(1))

    def test_nan_rejected(self):
        with pytest.raises(InstanceError):
            Prefix(((float("nan"),),))

    def test_ragged_rejected(self):
        with pytest.raises(InstanceError):
            Prefix(((1.0,), (1.0, 2.0)))


class TestInstanceSpec:
    def test_derived_fields(self):
        spec = InstanceSpec(T=4, m=2, b=(2.0, 4.0), L=2, iota=0.5)
        assert spec.nu == 0.5
        assert spec.v_or_default() == min(2, math.ceil(2 / 0.5))
        # a zero budget (nu = 0) gives m; no resources clamps to 1
        assert InstanceSpec(T=4, m=2, b=(0.0, 4.0), L=2,
                            iota=0.5).v_or_default() == 2
        assert InstanceSpec(T=4, m=0, b=(), L=0, iota=0.5).v_or_default() == 1
        assert InstanceSpec(T=4, m=2, b=(2.0, 4.0), L=2, iota=0.5,
                            V=1).v_or_default() == 1

    def test_validation(self):
        with pytest.raises(InstanceError):
            InstanceSpec(T=0, m=1, b=(1.0,), L=1, iota=1.0)
        with pytest.raises(InstanceError):
            InstanceSpec(T=2, m=2, b=(1.0,), L=1, iota=1.0)
        with pytest.raises(InstanceError):
            InstanceSpec(T=2, m=1, b=(1.0,), L=1, iota=1.5)

    @pytest.mark.parametrize("V", [0, -5, 3, True, 1.0])
    def test_structure_constant_V_must_lie_in_one_to_m(self, V):
        with pytest.raises(InstanceError, match="structure constant V"):
            InstanceSpec(T=2, m=2, b=(1.0, 1.0), L=1, iota=1.0, V=V)
        # without resources V = 1 is the one value accepted
        assert InstanceSpec(T=2, m=0, b=(), L=0, iota=1.0, V=1).V == 1

    @pytest.mark.parametrize("budget", [float("nan"), float("inf"), -1.0])
    def test_budgets_must_be_finite_and_nonnegative(self, budget):
        with pytest.raises(InstanceError, match="budgets"):
            InstanceSpec(T=2, m=2, b=(1.0, budget), L=1, iota=1.0)


class TestTreeValidation:
    def test_total_mass_equals_horizon(self):
        tree = demo_tree()
        total = sum(tree.mu(p) for p in tree.prefixes())
        assert total == pytest.approx(tree.instance.T, abs=1e-9)

    def test_child_mass_must_match(self):
        tb = TreeBuilder(T=2, m=1, b=(1.0,), L=1, iota=1.0)
        r = tb.add(None, (0.0,), 1.0, z=0.0, a={})
        tb.add(r, (1.0,), 0.4, z=0.0, a={})
        with pytest.raises(InstanceError):
            tb.build()

    def test_duplicate_sibling_observation_rejected(self):
        tb = TreeBuilder(T=1, m=1, b=(1.0,), L=1, iota=1.0)
        tb.add(None, (0.0,), 0.5, z=0.0, a={})
        with pytest.raises(InstanceError):
            tb.add(None, (0.0,), 0.5, z=0.0, a={})

    def test_rcv_range_enforced(self):
        tb = TreeBuilder(T=1, m=1, b=(1.0,), L=1, iota=0.5)
        tb.add(None, (0.0,), 1.0, z=0.0, a={0: 0.25})  # below iota
        with pytest.raises(InstanceError):
            tb.build()

    def test_sparsity_enforced(self):
        tb = TreeBuilder(T=1, m=3, b=(1.0,) * 3, L=1, iota=0.5)
        tb.add(None, (0.0,), 1.0, z=0.0, a={0: 1.0, 1: 1.0})
        with pytest.raises(InstanceError):
            tb.build()


class TestSimulateCompletion:
    """``complete`` returns a full-horizon trajectory that extends the prefix."""

    def test_deterministic_process_single_trajectory(self):
        tb = TreeBuilder(T=3, m=1, b=(1.0,), L=1, iota=1.0)
        p1 = tb.add(None, (0.0,), 1.0, z=0.1, a={0: 1.0})
        p2 = tb.add(p1, (1.0,), 1.0, z=0.2, a={})
        p3 = tb.add(p2, (2.0,), 1.0, z=0.3, a={})
        tree = tb.build()
        sim = tree_as_simulator(tree)
        for t in (1, 2):
            traj = sim.complete(p3.head(t), (1, "x", t))
            assert traj == p3 and len(traj) == 3

    def test_full_prefix_returned_unchanged(self):
        tree = demo_tree()
        sim = tree_as_simulator(tree)
        leaf = tree.leaves()[0]
        assert sim.complete(leaf, (0,)) is leaf

    def test_out_of_support_rejected(self):
        tree = demo_tree()
        sim = tree_as_simulator(tree)
        with pytest.raises(SupportError):
            sim.complete(Prefix(((99.0,),)), (0,))
        with pytest.raises(SupportError):
            sim.node(Prefix(((99.0,),)))

    def test_empirical_branch_frequency(self):
        # two-branch tree with P(up) = 0.5; unconditional draws
        tree = two_branch_tree(0.5)
        sim = tree_as_simulator(tree)
        n = 10_000
        ups = sum(
            sim.complete(EMPTY_PREFIX, (17, "freq", j)).last[0] == 1.0
            for j in range(n))
        assert abs(ups / n - 0.5) <= 0.02

    def test_key_determinism(self):
        tree = random_tree(seed=5, T=3)
        sim = tree_as_simulator(tree)
        root = tree.prefixes()[0]
        a = sim.complete(root, (3, "k", 9))
        b = sim.complete(root, (3, "k", 9))
        assert a == b
        c = sim.complete(root, (3, "k", 10))
        # different keys are allowed to coincide on tiny trees, but the
        # returned object must still extend the prefix to the horizon
        assert c.startswith(root) and len(a) == len(c) == tree.instance.T


class TestTreeAsSimulator:
    def test_one_node_tree(self):
        tree = one_node_tree()
        sim = tree_as_simulator(tree)
        leaf = tree.leaves()[0]
        assert sim.complete(EMPTY_PREFIX, (0,)) == leaf

    def test_branch_frequencies_match_mu(self):
        tree = demo_tree()
        sim = tree_as_simulator(tree)
        root = tree.prefixes()[0]
        n = 10_000
        up = 0
        for j in range(n):
            traj = sim.complete(root, (11, "f", j))
            up += traj.last[0] == 1.0
        p = up / n
        sigma = math.sqrt(0.25 / n)
        assert abs(p - 0.5) <= 3 * sigma

    def test_zero_probability_branch_never_sampled(self):
        tb = TreeBuilder(T=1, m=1, b=(1.0,), L=1, iota=1.0)
        tb.add(None, (0.0,), 1.0, z=0.0, a={})
        tb.add(None, (1.0,), 0.0, z=1.0, a={})
        tree = tb.build()
        sim = tree_as_simulator(tree)
        for j in range(1000):
            assert sim.complete(EMPTY_PREFIX, (5, j)).last[0] == 0.0

    def test_leaf_completes_to_itself_unless_zero_mass(self):
        # a leaf takes the inner prefixes' path: itself when its mass is
        # positive, SupportError when it is zero, as a zero-mass inner
        # prefix does
        tb = TreeBuilder(T=2, m=1, b=(1.0,), L=1, iota=1.0)
        root = tb.add(None, (0.0,), 1.0, z=0.0, a={})
        live = tb.add(root, (1.0,), 1.0, z=1.0, a={})
        dead = tb.add(root, (2.0,), 0.0, z=1.0, a={})
        sim = tree_as_simulator(tb.build())
        for j in range(20):
            assert sim.complete(live, (5, j)) == live
        with pytest.raises(SupportError):
            sim.complete(dead, (5, 0))
        with pytest.raises(SupportError):
            sim.node(dead)

    def test_readout_matches_nodes(self):
        tree = demo_tree()
        sim = tree_as_simulator(tree)
        leaf = tree.leaves()[0]
        r = sim.readout(leaf)
        assert r.reward(1) == 0.5 and r.reward(2) == 1.0
        assert r.rcv(1) == ((0, 1.0),) and r.rcv(2) == ((0, 1.0),)


def _check_fixed_head(tree, sim, n_keys=6):
    """Every head ``sim.fixed_head`` knows is the head of every completion:
    at each positive-mass S and c in 1..T it is None or has the key of
    ``sim.complete(S, key).head(c)`` for every key."""
    for S in tree.prefixes():
        if tree.mu(S) > 0.0:
            for c in range(1, tree.instance.T + 1):
                head = sim.fixed_head(S, c)
                for j in range(n_keys):
                    assert head is None or head.key == \
                        sim.complete(S, (3, "fixed", j)).head(c).key


def _walk_past_branch(tree):
    """A broken tree ``fixed_head``: it follows single children like the
    real one, but also steps once past a node with several children."""
    def fixed_head(prefix, c):
        if c <= len(prefix):
            return prefix.head(c)
        nd, branched = tree.node(prefix), False
        while nd.depth < c and (len(nd.children) == 1 or not branched):
            branched = branched or len(nd.children) > 1
            nd = tree.node(nd.children[0])
        return nd.prefix if nd.depth == c else None
    return fixed_head


@st.composite
def _chain_trees(draw):
    return random_tree(draw(st.integers(0, 10_000)), T=draw(st.integers(1, 4)),
                       m=2, max_children=draw(st.integers(1, 3)),
                       zero_mass_prob=draw(st.sampled_from([0.0, 0.5])))


class TestFixedHead:
    """``fixed_head(S, c)`` names the length-c head every completion of S
    has, or None; the tree knows it where a single-child chain reaches c."""

    @settings(max_examples=60, deadline=None)
    @given(tree=_chain_trees())
    def test_fixed_head_agrees_with_complete(self, tree):
        sim = tree_as_simulator(tree)
        _check_fixed_head(tree, sim)
        for S in tree.prefixes():
            for c in range(1, tree.instance.T + 1):
                head = sim.fixed_head(S, c)
                if head is not None:  # the tree's own node, not a slice
                    assert head is tree.node(head).prefix
                if c <= len(S):  # S's own rows, whatever the masses
                    assert head == S.head(c)
                elif tree.mu(S) > 0.0:  # known exactly on one-node levels
                    level = [p for p in tree.prefixes()
                             if len(p) == c and p.startswith(S)]
                    assert (head is not None) == (len(level) == 1)
                else:
                    assert head is None

    def test_prefix_off_the_tree_is_refused(self):
        sim = tree_as_simulator(demo_tree())
        with pytest.raises(SupportError):
            sim.fixed_head(Prefix([(9.0,)]), 1)

    def test_default_knows_only_the_prefix_rows(self):
        sim = generate_nrm(seed=7, T=6, m=3, L=2, iota=0.3, budget_ratio=0.5,
                           mode="generative", n_events=4)
        traj = sim.complete(EMPTY_PREFIX, (5, "episode", 0))
        S = traj.head(3)
        assert [sim.fixed_head(S, c) for c in (1, 2, 3)] == \
            [traj.head(1), traj.head(2), S]
        assert sim.fixed_head(S, 3) is S  # no copy
        assert sim.fixed_head(S, 4) is None
        tree_sim = tree_as_simulator(demo_tree())
        derived = dataclasses.replace(tree_sim, fixed_head=None)
        root = demo_tree().prefixes()[0]
        assert tree_sim.fixed_head(root, 2) is None  # the root branches
        assert derived.fixed_head(root, 1) == root
        assert derived.fixed_head(root, 2) is None

    def test_zero_mass_prefix_knows_only_its_own_rows(self):
        tb = TreeBuilder(T=3, m=1, b=(1.0,), L=1, iota=1.0)
        root = tb.add(None, (0.0,), 1.0, z=0.0, a={})
        live = tb.add(root, (1.0,), 1.0, z=0.0, a={})
        tb.add(live, (3.0,), 1.0, z=0.0, a={})
        dead = tb.add(root, (2.0,), 0.0, z=0.0, a={})
        leaf = tb.add(dead, (4.0,), 1.0, z=0.0, a={})  # the only child
        tree = tb.build()
        sim = tree_as_simulator(tree)
        assert [sim.fixed_head(leaf, c) for c in (0, 1, 2, 3)] == \
            [EMPTY_PREFIX, root, dead, leaf]
        assert [sim.fixed_head(dead, c) for c in (1, 2, 3)] == \
            [root, dead, None]
        assert sim.fixed_head(live, 3) == live.extend((3.0,))
        assert sim.fixed_head(root, 3) is None  # the root branches

    def test_walk_past_a_branch_fails_the_property(self):
        # mutation check: a head chosen one step past a branching node is
        # not the head of every completion
        tree = random_tree(seed=3, T=3, m=2, max_children=2,
                           zero_mass_prob=0.5)
        sim = tree_as_simulator(tree)
        _check_fixed_head(tree, sim)
        broken = dataclasses.replace(sim, fixed_head=_walk_past_branch(tree))
        with pytest.raises(AssertionError):
            _check_fixed_head(tree, broken)


class TestStructureConstants:
    def test_demo_tree_exact(self):
        sc = derive_structure_constants(demo_tree())
        assert dataclasses.astuple(sc) == (sc.U, sc.V, sc.W, sc.L) == \
            (2, 1, 2, 1)

    def test_zero_consumption_clamps(self):
        tb = TreeBuilder(T=2, m=1, b=(1.0,), L=1, iota=1.0)
        r = tb.add(None, (0.0,), 1.0, z=0.5, a={})
        tb.add(r, (1.0,), 1.0, z=0.5, a={})
        sc = derive_structure_constants(tb.build())
        assert (sc.U, sc.V, sc.W) == (2, 1, 0)

    def test_is_encoding_edge_consumed_twice(self):
        from onlinepack.encodings import BipartiteNodeProcess, encode_is
        proc = BipartiteNodeProcess(
            n=2, delta=1, partite=("L", "R"),
            scenarios=((1.0, ((0, 1),), (1.0, 1.0)),))
        _, sim = encode_is(proc)
        sc = derive_structure_constants(sim.tree)
        assert sc.U == 2
        for leaf in sim.tree.leaves():
            r = sim.tree.readout(leaf)
            total = sum(v for t in (1, 2) for _, v in r.rcv(t))
            assert total in (0.0, 2.0)


class TestGenerateNrm:
    def test_same_seed_same_instance(self):
        t1 = generate_nrm(seed=9, T=3, m=2, L=2, iota=0.3, budget_ratio=0.5)
        t2 = generate_nrm(seed=9, T=3, m=2, L=2, iota=0.3, budget_ratio=0.5)
        assert [p.key for p in t1.prefixes()] == [p.key for p in t2.prefixes()]
        for p in t1.prefixes():
            assert t1.node(p).mu == t2.node(p).mu
            assert t1.node(p).a == t2.node(p).a

    def test_budget_ratio_sets_nu(self):
        tree = generate_nrm(seed=1, T=5, m=2, L=1, iota=0.4, budget_ratio=0.3)
        assert all(b == pytest.approx(0.3 * 5) for b in tree.instance.b)
        assert tree.instance.nu == pytest.approx(0.3)

    def test_sampled_rcvs_satisfy_assumptions(self):
        sim = generate_nrm(seed=2, T=6, m=4, L=2, iota=0.25, budget_ratio=0.5,
                           mode="generative")
        inst = sim.instance
        checked = 0
        for j in range(1700):  # 1700 episodes x 6 periods > 1e4 period samples
            traj = sim.complete(EMPTY_PREFIX, (13, j))
            r = sim.readout(traj)
            for t in range(1, inst.T + 1):
                assert 0.0 <= r.reward(t) <= 1.0
                pairs = r.rcv(t)
                assert len(pairs) <= inst.L
                for _, v in pairs:
                    assert inst.iota <= v <= 1.0
                checked += 1
        assert checked >= 10_000

    def test_node_cap(self):
        with pytest.raises(CapacityError, match="cap is 100000"):
            generate_nrm(seed=0, T=30, m=2, L=1, iota=0.5, budget_ratio=0.5,
                         n_events=3)

    def test_generative_rejects_out_of_support_prefix(self):
        sim = generate_nrm(seed=2, T=3, m=2, L=1, iota=0.5, budget_ratio=0.5,
                           mode="generative")
        bad = Prefix(((7.5,),))  # not a valid event code
        with pytest.raises(SupportError):
            sim.complete(bad, (0,))
        with pytest.raises(SupportError):
            sim.readout(bad)
        # checked when complete is called, before any row is read, and a
        # history longer than the horizon is no history of the process
        with pytest.raises(SupportError):
            sim.complete(Prefix(((0.0,), (7.5,))), (0,))
        with pytest.raises(SupportError, match="longer than the horizon"):
            sim.complete(Prefix(((0.0,),) * 4), (0,))

    def test_generative_matches_explicit_law(self):
        # the explicit enumeration and the forward sampler encode one process
        tree = generate_nrm(seed=4, T=2, m=2, L=1, iota=0.5, budget_ratio=0.5)
        sim = generate_nrm(seed=4, T=2, m=2, L=1, iota=0.5, budget_ratio=0.5,
                           mode="generative")
        n = 20_000
        counts = {}
        for j in range(n):
            traj = sim.complete(EMPTY_PREFIX, (21, j))
            counts[traj.key] = counts.get(traj.key, 0) + 1
        for leaf in tree.leaves():
            mu = tree.mu(leaf)
            freq = counts.get(leaf.key, 0) / n
            sigma = math.sqrt(max(mu * (1 - mu), 1e-12) / n)
            assert abs(freq - mu) <= 4 * sigma + 1e-12


class TestInstanceIO:
    @settings(max_examples=40)
    @given(seed=st.integers(0, 10_000), T=st.integers(1, 4),
           m=st.integers(1, 3), max_children=st.integers(1, 3),
           zero_mass_prob=st.sampled_from([0.0, 0.5, 1.0]))
    def test_explicit_round_trip(self, seed, T, m, max_children,
                                 zero_mass_prob):
        # through JSON text, every node comes back bit for bit and linked
        # in the same order, zero-mass branches included
        tree = random_tree(seed, T=T, m=m, L=min(2, m),
                           max_children=max_children,
                           zero_mass_prob=zero_mass_prob)
        back = payload_to_tree(json.loads(json.dumps(tree_to_payload(tree))))
        assert [p.key for p in back.prefixes()] == [p.key for p in tree.prefixes()]
        assert (back.root_keys, back.leaf_keys) == (tree.root_keys, tree.leaf_keys)
        for p in tree.prefixes():
            n, m = tree.node(p), back.node(p)
            assert (m.prefix.obs, m.mu.hex(), m.z, m.a, m.parent, m.children,
                    m.depth) == (n.prefix.obs, n.mu.hex(), n.z, n.a, n.parent,
                                 n.children, n.depth)

    def test_payload_node_errors(self):
        payload = tree_to_payload(demo_tree())
        nodes = payload["tree"]["nodes"]
        swapped = dict(payload, tree={"nodes": nodes[1:] + nodes[:1]})
        with pytest.raises(InstanceError, match="before its parent"):
            payload_to_tree(swapped)
        twice = dict(payload, tree={"nodes": nodes + [dict(nodes[2], prefix_id=9)]})
        with pytest.raises(InstanceError, match="duplicate prefix"):
            payload_to_tree(twice)
        nan_root = dict(payload, tree={"nodes": [dict(nodes[0], prob=math.nan)]
                                       + nodes[1:]})
        with pytest.raises(InstanceError, match="probability nan"):
            payload_to_tree(nan_root)

    def test_generative_payload_round_trip(self):
        from onlinepack.model import generative_payload
        payload = generative_payload("nrm", {
            "seed": 3, "T": 3, "m": 2, "L": 1, "iota": 0.5,
            "budget_ratio": 0.5})
        loaded = load_instance_payload(payload)
        assert loaded.sim.tree is None
        assert loaded.sim.instance.T == 3
        traj = loaded.sim.complete(EMPTY_PREFIX, (1,))
        assert len(traj) == 3

    def test_unknown_kind_rejected(self):
        with pytest.raises(InstanceError):
            load_instance_payload({"kind": "mystery"})

    def test_file_round_trip(self, tmp_path):
        from onlinepack.model import load_instance, save_instance
        tree = random_tree(seed=19, T=3, m=2)
        path = tmp_path / "inst.json"
        save_instance(path, tree_to_payload(tree))
        loaded = load_instance(path)
        assert loaded.sim.tree is not None
        assert [p.key for p in loaded.sim.tree.prefixes()] == \
            [p.key for p in tree.prefixes()]
        assert loaded.payload["schema_version"] == 1


class TestKeys:
    def test_digest_disambiguates_types(self):
        assert keys.key_digest(1, "a") != keys.key_digest("1a")
        assert keys.key_digest(b"ab", b"c") != keys.key_digest(b"a", b"bc")

    def test_uniform_stream_deterministic(self):
        s1 = keys.UniformStream(1, "s", 2)
        s2 = keys.UniformStream(1, "s", 2)
        assert [s1.next() for _ in range(10)] == [s2.next() for _ in range(10)]

    def test_uniform_range(self):
        us = keys.UniformStream(0)
        vals = [us.next() for _ in range(1000)]
        assert all(0.0 <= v < 1.0 for v in vals)
        assert abs(np.mean(vals) - 0.5) < 0.05
