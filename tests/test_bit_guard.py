"""Bit guards for the keyed-replay contract.

Every draw is a pure function of its key, so completions, truncations and
node lookups must reproduce the same bits however they are computed.  The
golden digests below pin key serialization and the trajectories that fixed
draw keys select; the properties check that the cheap paths
(``Prefix.head``, the handles' ``node`` lookups, ``keys.uniform``, the
tree's ``bisect`` draw, the prefixes carried by ``PathDraw`` terms) agree
with their from-scratch definitions.  The last section pins the penalty
objectives, the exact gradient, FEAS, the leaf gradient table and the
averaged full-sweep solution on fixed random trees, so that each keeps its
bits however it is built.
"""

import bisect
import hashlib
import dataclasses
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import random_solution, random_tree
from onlinepack import keys
from onlinepack.engine import (MemoTable, SolverConfig, averaged_solution,
                               conditional_draws, decide_pen, leaf_grad_table,
                               sample_index_set)
from onlinepack.encodings import (encode_is, encode_mmo, encode_mwm,
                                  random_is_process, random_mmo_process,
                                  random_mwm_process)
from onlinepack.errors import InstanceError, SupportError
from onlinepack.model import (EMPTY_PREFIX, Prefix, TreeBuilder, _NrmTables,
                              derive_structure_constants, generate_nrm,
                              generative_payload, load_instance_payload,
                              tree_as_simulator, tree_to_payload)
from onlinepack.oracle import solve_lp_explicit, solve_pen_lp
from onlinepack.penalty import (aggregate_violation, eval_f, eval_f_theta,
                                exact_grad_f_theta)
from onlinepack.policies import FeasState, feas_table


def _digest(prefix: Prefix) -> str:
    return keys.key_digest(prefix.key).hex()


@pytest.fixture(scope="module")
def gen_sim():
    return generate_nrm(seed=7, T=60, m=3, L=2, iota=0.3, budget_ratio=0.5,
                        mode="generative", n_events=4)


@pytest.fixture(scope="module")
def nrm_tree():
    return generate_nrm(seed=7, T=7, m=3, L=2, iota=0.3, budget_ratio=0.5,
                        mode="explicit", n_events=3)


class TestGoldenCompletions:
    def test_generative_nrm_trajectory_keys(self, gen_sim):
        base = keys.key_digest(1, "traj", 0, EMPTY_PREFIX.key)
        trajs = [gen_sim.complete(EMPTY_PREFIX, (base, j)) for j in (1, 2, 3)]
        assert [_digest(t) for t in trajs] == [
            "af729c2a321945800ddf4e507e3c6606",
            "6cf5310eb398183169edb6d70419cb06",
            "870a39522fd400ced2e6e328fb1f5260",
        ]
        head = trajs[0].head(17)
        key = (keys.key_digest(1, "traj", 2, head.key), 1)
        assert _digest(gen_sim.complete(head, key)) == \
            "ea124f9ba7ed7a5e85a0b9e2edad6985"
        user = Prefix([[0], [3], [3], [1]])
        key = (keys.key_digest(1, "traj", 1, user.key), 2)
        assert _digest(gen_sim.complete(user, key)) == \
            "36aa545aa653546233ec53d789474074"
        # a full-length prefix completes to itself
        assert gen_sim.complete(trajs[1], (base, 9)) == trajs[1]

    def test_tree_key_uniform_leaf(self, nrm_tree):
        assert len(nrm_tree) == 3279
        sim = tree_as_simulator(nrm_tree)
        prefixes = nrm_tree.prefixes()
        golden = [
            (EMPTY_PREFIX, 1, "0x1.94626728e5a98p-4", 74,
             "dfd05f74c89801c6746d059b2fb0e707"),
            (EMPTY_PREFIX, 2, "0x1.cd23cc64f824bp-1", 2087,
             "ce0044a5966bb8c4ff4db6fc06ca8e98"),
            (prefixes[5], 1, "0x1.d368ced1ace9cp-3", 504,
             "0dec0dfdaef959143c66c5365d633865"),
            (prefixes[5], 2, "0x1.b9428817dd214p-2", 555,
             "5db66a3369f9d2949d52758524f2adfc"),
            (prefixes[200], 1, "0x1.f889494fd3854p-2", 726,
             "9d501044bf58f95be7bcfa0502786a24"),
            (prefixes[200], 2, "0x1.7ccd1123a8526p-1", 728,
             "df2a2fde4bd86b27ef3bcb74338f593e"),
        ]
        for prefix, j, u_hex, leaf_index, digest in golden:
            key = (keys.key_digest(1, "traj", 3, prefix.key), j)
            assert keys.UniformStream(*key).next().hex() == u_hex
            traj = sim.complete(prefix, key)
            assert nrm_tree.leaf_keys.index(traj.key) == leaf_index
            assert _digest(traj) == digest


# -- Prefix.head ------------------------------------------------------------

_finite = st.floats(allow_nan=False, allow_infinity=False)


@st.composite
def _row_matrices(draw):
    dim = draw(st.integers(0, 3))
    n = draw(st.integers(0, 6))
    return [draw(st.lists(_finite, min_size=dim, max_size=dim)) for _ in range(n)]


@settings(max_examples=200, deadline=None)
@given(_row_matrices())
def test_head_equals_rebuilt_prefix(rows):
    p = Prefix(rows)
    assert p.head(0) == EMPTY_PREFIX and p.head(0).key == EMPTY_PREFIX.key
    links = [EMPTY_PREFIX]  # p rebuilt one row at a time
    for row in p.obs:
        links.append(links[-1].extend(row))
    for t in range(len(p) + 1):
        ref = Prefix(p.obs[:t])
        # the extend chain's link, heads of p and of every longer link, and
        # heads of p's longer heads
        for h in [links[t]] + [q.head(t) for q in (p, *links[t:])] + \
                [p.head(s).head(t) for s in range(t, len(p) + 1)]:
            assert h.key == ref.key
            assert hash(h) == hash(ref)
            assert h == ref
            assert len(h) == len(ref) == t
            assert h.obs == ref.obs


# -- Prefix.extend ----------------------------------------------------------

_entries = st.one_of(_finite, st.just(-0.0), st.just(float("nan")),
                     st.just(float("inf")), st.just(float("-inf")))


@settings(max_examples=300, deadline=None)
@given(_row_matrices(), st.lists(_entries, max_size=4))
def test_extend_equals_rebuilt_prefix(rows, row):
    p = Prefix(rows)
    for base in (p, EMPTY_PREFIX):
        try:
            ref = Prefix(base.obs + (row,))
        except InstanceError as exc:  # non-finite entry or ragged row
            with pytest.raises(InstanceError) as info:
                base.extend(row)
            assert str(info.value) == str(exc)
            continue
        q = base.extend(row)
        assert q.key == ref.key
        assert hash(q) == hash(ref)
        assert q == ref
        assert q.obs == ref.obs
        assert q.head(len(base)) == base


def test_extend_collapses_negative_zero():
    p = Prefix([[1.0, 2.0]]).extend((-0.0, 3.0))
    assert p == Prefix([[1.0, 2.0], [0.0, 3.0]])
    assert EMPTY_PREFIX.extend((-0.0,)).key == Prefix([[0.0]]).key


# -- ExplicitScenarioTree.path ---------------------------------------------


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 10_000), st.integers(1, 4))
def test_tree_path_equals_head_chain(seed, T):
    tree = random_tree(seed, T=T, m=2)
    for key in tree.order:
        prefix = tree.node(key).prefix
        heads = [prefix.head(t) for t in range(1, len(prefix) + 1)]
        chain = tree.path(prefix)
        assert [nd.prefix for nd in chain] == heads
        assert all(nd is tree.node(h) for nd, h in zip(chain, heads))
        assert [nd.prefix for nd in tree.path(key)] == heads
        # the readout is the chain's node values, as from head(t) lookups
        r = tree.readout(prefix)
        assert r.z == tuple(tree.node(h).z for h in heads)
        assert r.a == tuple(tree.node(h).a for h in heads)
    with pytest.raises(SupportError):
        tree.path(Prefix([[-1.0]]))


# -- node lookups -----------------------------------------------------------


def _assert_node_matches_readout(sim, prefix):
    t = len(prefix)
    r = sim.readout(prefix)
    assert sim.node(prefix) == (r.reward(t), r.rcv(t))


@settings(max_examples=10, deadline=None)
@given(st.integers(0, 10_000))
def test_node_values_match_readout_on_trees(seed):
    trees = [
        generate_nrm(seed=seed, T=3, m=3, L=2, iota=0.3, budget_ratio=0.5,
                     mode="explicit", n_events=3),
        random_tree(seed, T=3, m=2),
    ]
    sims = [tree_as_simulator(tree) for tree in trees]
    sims.append(encode_is(random_is_process(seed, 5, 2))[1])
    sims.append(encode_mwm(random_mwm_process(seed, 4, 2))[1])
    sims.append(encode_mmo(random_mmo_process(seed, 3, 2, 2))[1])
    for sim in sims:
        for prefix in sim.tree.prefixes():
            _assert_node_matches_readout(sim, prefix)


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(1, 12))
def test_node_values_match_readout_on_generative_prefixes(draw_seed, t):
    sim = generate_nrm(seed=3, T=12, m=3, L=2, iota=0.3, budget_ratio=0.5,
                       mode="generative", n_events=4)
    traj = sim.complete(EMPTY_PREFIX, (draw_seed, "guard"))
    for s in range(1, t + 1):
        _assert_node_matches_readout(sim, traj.head(s))


def test_handles_carry_node_lookup(nrm_tree):
    gen_payload = dict(generative_payload(
        "nrm", {"seed": 3, "T": 4, "m": 2, "L": 1, "iota": 0.5,
                "budget_ratio": 0.5}), structure={"V": 1})
    sims = [
        tree_as_simulator(nrm_tree),
        encode_is(random_is_process(1, 4, 2))[1],
        encode_mwm(random_mwm_process(1, 4, 2))[1],
        encode_mmo(random_mmo_process(1, 3, 2, 2))[1],
        load_instance_payload(gen_payload).sim,
        load_instance_payload(tree_to_payload(nrm_tree)).sim,
    ]
    for sim in sims:
        assert sim.node is not None


# -- generative NRM completion ---------------------------------------------


def _reference_nrm_complete(tables, T, prefix, key):
    """Completion by definition: the full law, then one uniform, per step."""
    counts, regime = tables.counts_of(prefix)
    stream = keys.UniformStream(*key)
    rows = list(prefix.obs)
    for _ in range(T - len(prefix)):
        probs = tables.law(counts, regime)
        u = stream.next()
        acc = 0.0
        e = tables.n_events - 1
        for cand, p in enumerate(probs):
            acc += p
            if u < acc:
                e = cand
                break
        counts[e] += 1
        if e == tables.shock_event:
            regime ^= 1
        rows.append(tables.rows[e])
    return Prefix(rows)


@st.composite
def _nrm_cases(draw):
    n_events = draw(st.integers(2, 5))
    T = draw(st.integers(1, 400))
    # weight the shock event (the last code) heavily so regimes flip often
    codes = st.one_of(st.just(n_events - 1), st.integers(0, n_events - 1))
    events = draw(st.lists(codes, max_size=T))
    key = (draw(st.integers(0, 2**63 - 1)), draw(st.integers(0, 50)))
    return draw(st.integers(0, 1000)), n_events, T, events, key


@settings(max_examples=150, deadline=None)
@given(_nrm_cases())
def test_generative_nrm_complete_matches_per_step_law(case):
    seed, n_events, T, events, key = case
    sim = generate_nrm(seed=seed, T=T, m=3, L=2, iota=0.3, budget_ratio=0.5,
                       mode="generative", n_events=n_events)
    tables = _NrmTables(seed, 3, 2, 0.3, n_events)
    prefix = Prefix([(float(e),) for e in events])
    traj = sim.complete(prefix, key)
    ref = _reference_nrm_complete(tables, T, prefix, key)
    assert traj.key == ref.key and traj.obs == ref.obs


# a read of a completion: a head length, or one of these names
_READS = ("obs", "key", "len", "last", "hash", "eq", "startswith", "readout")


@st.composite
def _truncation_cases(draw):
    n_events = draw(st.integers(2, 5))
    T = draw(st.integers(1, 400))
    events = draw(st.lists(st.integers(0, n_events - 1), max_size=T))
    key = (draw(st.integers(0, 2**63 - 1)), draw(st.integers(0, 50)))
    reads = draw(st.lists(st.integers(0, T) | st.sampled_from(_READS),
                          max_size=6))
    return draw(st.integers(0, 1000)), n_events, T, events, key, reads


def _read(sim, traj, prefix, how):
    """What one read of ``traj`` sees, comparable across completions."""
    if type(how) is int:
        h = traj.head(how)
        return h.obs, h.key
    return {"obs": lambda: traj.obs, "key": lambda: traj.key,
            "len": lambda: len(traj), "last": lambda: traj.last,
            "hash": lambda: hash(traj), "eq": lambda: traj == prefix,
            "startswith": lambda: traj.startswith(prefix),
            "readout": lambda: sim.readout(traj).a}[how]()


def _drawn(spy) -> int:
    """Uniforms drawn through ``keys.uniforms`` since the spy's last reset."""
    n = sum(c.args[0] for c in spy.call_args_list)
    spy.reset_mock()
    return n


@settings(max_examples=40, deadline=None)
@given(_truncation_cases())
def test_generative_completion_heads_are_the_full_paths_heads(case):
    # truncation law: the rows of a completion are simulated on first read,
    # and a head read first is the head of the fully read path, bit for bit
    seed, n_events, T, events, key, reads = case
    sim = generate_nrm(seed=seed, T=T, m=3, L=2, iota=0.3, budget_ratio=0.5,
                       mode="generative", n_events=n_events)
    prefix = Prefix([(float(e),) for e in events])
    new = T - len(prefix)
    full = sim.complete(prefix, key)
    assert len(full) == T and full.startswith(prefix) and len(full.obs) == T
    with mock.patch.object(keys, "uniforms", wraps=keys.uniforms) as spy:
        for t in range(T + 1):
            h, ref = sim.complete(prefix, key).head(t), full.head(t)
            assert h.obs == ref.obs and h.key == ref.key
            assert _drawn(spy) == max(0, t - len(prefix))
        # any order of reads, then every head in turn: at most 2 (T - |p|)
        # events, and each read sees what it sees on the full path
        traj = sim.complete(prefix, key)
        assert _drawn(spy) == 0
        for how in (*reads, *range(1, T + 1)):
            assert _read(sim, traj, prefix, how) == _read(sim, full, prefix, how)
        assert _drawn(spy) <= 2 * new
        assert traj == full and traj.key == full.key and len(traj) == T


# -- bulk uniforms ------------------------------------------------------------


@pytest.mark.parametrize("parts", [(0,), (b"\x01" * 16, 3), (9, "traj", 2)])
def test_bulk_uniforms_equal_stream(parts):
    # every length a generative completion draws on a 60-period horizon
    # (up to 59), and lengths on either side of 256 blocks (1,024 values),
    # where a block counter not written as 8 little-endian bytes would
    # first differ
    stream = keys.UniformStream(*parts)
    expected = [stream.next().hex() for _ in range(4097)]
    for n in (*range(65), 1023, 1025, 4097):
        got = keys.uniforms(n, *parts)
        assert [v.hex() for v in got] == expected[:n]


# -- key digests and single uniforms -----------------------------------------


class _Int(int):
    pass


class _Str(str):
    pass


class _Bytes(bytes):
    pass


@pytest.mark.parametrize("parts, digest", [
    ((0,), "76f48c88ad3457b8d0fbf732a5583e64"),
    ((-1,), "9d90b58a4b41f7c283c776ad71c69bd8"),
    ((-2**127,), "c6765c32e652f334d1edb9ebf32c737a"),
    ((2**127 - 1,), "acf4809ea5e49e1f661271f38e5770fb"),
    ((1, -7, 123456789012345678901234567890),
     "5c0a9f5f0f58fc3a3ac9a9df6d93fc11"),
    (("",), "18ab59bbcde6ecef01632569fdff8f6c"),
    (("traj",), "552c5cf653e8b7892e482e38b3815acd"),
    (("h\u00e9llo \u2713 \u6570",), "988a4699ef2a0f2dbf1a020c30099bcf"),
    ((b"",), "1916a86a7a659dae7bd3cc01b33b50ee"),
    ((b"\x00\xff" * 9,), "29355c9e230a840409f9c2dd51ab8856"),
    ((_Int(5),), "794d12e026556ad88fd7f051119fd1fd"),
    ((5,), "794d12e026556ad88fd7f051119fd1fd"),
    ((1, "traj", 3, b"", -4, "\u00e9"), "6bf5c6198137edb34062db30f7b1c1e1"),
    ((_Str("traj"),), "552c5cf653e8b7892e482e38b3815acd"),
    ((_Bytes(b""),), "1916a86a7a659dae7bd3cc01b33b50ee"),
])
def test_key_digest_golden(parts, digest):
    assert keys.key_digest(*parts).hex() == digest


@pytest.mark.parametrize("bad", [True, False, bytearray(b"ab"), 1.0, None])
def test_key_digest_rejects_other_types(bad):
    with pytest.raises(TypeError):
        keys.key_digest(1, bad)


_key_parts = st.lists(st.one_of(st.integers(-2**127, 2**127 - 1), st.text(),
                                st.binary()), max_size=5)


@settings(max_examples=300, deadline=None)
@given(_key_parts)
def test_uniform_equals_stream_first_value(parts):
    expected = keys.UniformStream(*parts).next()
    assert keys.uniform(*parts).hex() == expected.hex()


# -- tree completion ----------------------------------------------------------


@st.composite
def _masses_trees(draw):
    """A small tree whose children carry random masses, some of them zero."""
    T = draw(st.integers(1, 3))
    tb = TreeBuilder(T=T, m=1, b=(1.0,), L=1, iota=1.0)
    counter = [0]

    def expand(parent, depth):
        # integer weights 0..4, at least one positive, normalized
        n = draw(st.integers(1, 4))
        weights = draw(st.lists(st.integers(0, 4), min_size=n, max_size=n)
                       .filter(lambda w: sum(w) > 0))
        total = sum(weights)
        for w in weights:
            counter[0] += 1
            child = tb.add(parent, (float(counter[0]),), w / total, z=0.5,
                           a={0: 1.0})
            if depth + 1 < T:
                expand(child, depth + 1)

    expand(None, 0)
    return tb.build()


def _reference_leaf(tree, prefix, u):
    """The leaf complete() selects for uniform u, by np.searchsorted."""
    if len(prefix) == 0:
        leaf_keys = tree.leaf_keys
        probs = np.array([tree.node(k).mu for k in leaf_keys])
    else:
        leaf_keys, probs = tree.leaves_under(prefix.key)
    cum = np.cumsum(probs)
    j = int(np.searchsorted(cum, u * float(cum[-1]), side="right"))
    return leaf_keys[min(j, len(leaf_keys) - 1)]


@settings(max_examples=60, deadline=None)
@given(_masses_trees(), st.integers(0, 2**63 - 1))
def test_tree_complete_matches_searchsorted(tree, seed):
    sim = tree_as_simulator(tree)
    for prefix in [EMPTY_PREFIX] + tree.prefixes():
        if len(prefix) == tree.instance.T:
            continue
        if len(prefix) and tree.mu(prefix) <= 0.0:
            with pytest.raises(SupportError):
                sim.complete(prefix, (seed, 1))
            continue
        for j in range(3):
            key = (keys.key_digest(seed, "traj", 0, prefix.key), j)
            traj = sim.complete(prefix, key)
            assert traj.key == _reference_leaf(
                tree, prefix, keys.UniformStream(*key).next())
            assert tree.mu(traj) > 0.0


def test_tree_complete_on_cumulative_boundary(monkeypatch):
    # leaf masses 1/4, 0, 1/4, 1/2: u = 1/4 and 1/2 land exactly on the
    # cumulative weights, and side="right" skips the zero-mass leaf
    tb = TreeBuilder(T=1, m=1, b=(1.0,), L=1, iota=1.0)
    leaves = [tb.add(None, (float(c),), p, z=0.5, a={0: 1.0})
              for c, p in enumerate((0.25, 0.0, 0.25, 0.5))]
    tree = tb.build()
    sim = tree_as_simulator(tree)
    for u, expected in ((0.0, 0), (0.25, 2), (0.5, 3), (0.75, 3),
                        (1.0 - 2.0 ** -53, 3)):
        monkeypatch.setattr(keys, "uniform", lambda *parts, u=u: u)
        traj = sim.complete(EMPTY_PREFIX, (b"k", 1))
        assert traj == leaves[expected]
        assert traj.key == _reference_leaf(tree, EMPTY_PREFIX, u)
        assert bisect.bisect_right([0.25, 0.25, 0.5, 1.0], u) == \
            np.searchsorted([0.25, 0.25, 0.5, 1.0], u, side="right")


# -- PathDraw terms -----------------------------------------------------------


@pytest.mark.parametrize("use_node", [True, False])
def test_path_draw_terms_carry_trajectory_heads(nrm_tree, use_node):
    sim = tree_as_simulator(nrm_tree)
    if not use_node:
        sim = dataclasses.replace(sim, node=None)
    T = nrm_tree.instance.T
    cfg = SolverConfig(epsilon=0.1, theta=0.5, alpha=0.1, K=3, eta1=4,
                       eta2=3, master_seed=1, practical_override=True)
    memo = MemoTable(cfg)
    seen = 0
    for prefix in nrm_tree.prefixes()[:40]:
        for k in range(3):
            aleph = sample_index_set(cfg, T, k)
            for d in conditional_draws(sim, memo, prefix, k):
                expected: dict[int, list] = {}
                for t in aleph:
                    for i, v in nrm_tree.node(d.traj.head(t)).a:
                        expected.setdefault(i, []).append((t, v))
                assert {i: [(len(h), v) for h, v in terms]
                        for i, terms in d.terms.items()} == expected
                for terms in d.terms.values():
                    for head, _ in terms:
                        assert head.key == d.traj.head(len(head)).key
                        assert head.key == Prefix(d.traj.obs[:len(head)]).key
                        seen += 1
    assert seen > 0


# -- penalty, FEAS, gradient and averaging goldens ----------------------------
#
# Hex values and digests computed with the code before the penalty walks,
# FEAS, the leaf gradient table and the iterate averaging were each folded
# into one implementation.  Tables are pinned by a digest of their float hex
# values in prefix order.


def _golden_tree(seed, T, m, L):
    """A seeded random tree whose children carry integer weights 0..3, so
    some branches have zero mass."""
    gen = keys.generator(seed, "golden-tree")
    b = tuple(float(0.3 + 0.9 * gen.random()) for _ in range(m))
    tb = TreeBuilder(T=T, m=m, b=b, L=L, iota=0.3)
    counter = [0]

    def expand(parent, depth):
        weights = [int(gen.integers(0, 4)) for _ in range(int(gen.integers(1, 4)))]
        weights[-1] += not any(weights)
        for w in weights:
            counter[0] += 1
            ids = gen.choice(m, size=int(gen.integers(0, L + 1)), replace=False)
            a = {int(i): float(0.3 + 0.7 * gen.random()) for i in ids}
            child = tb.add(parent, (float(counter[0]),), w / sum(weights),
                           z=float(gen.random()), a=a)
            if depth + 1 < T:
                expand(child, depth + 1)

    expand(None, 0)
    return tb.build()


def _table_digest(values) -> str:
    text = " ".join(float(v).hex() for v in values)
    return hashlib.blake2b(text.encode(), digest_size=12).hexdigest()


# (seed, T, m, L) -> golden tree; every tree has a zero-mass branch
_GOLDEN_TREES = {"m2": (3, 3, 2, 2), "m4": (2, 4, 4, 3), "m5": (35, 3, 5, 4)}


@pytest.fixture(scope="module", params=sorted(_GOLDEN_TREES))
def golden(request):
    tree = _golden_tree(*_GOLDEN_TREES[request.param])
    assert any(tree.mu(p) == 0.0 for p in tree.prefixes())
    return request.param, tree, random_solution(tree, 77)


_GOLDEN = {
    "m2": {"eval_f": "0x1.3694584293ef0p-3",
           "eval_f_theta": "0x1.a93c2732f9702p-1",
           "aggregate_violation": "0x1.4c163984c42e8p-3",
           "exact_grad": "0a68aba35399df24a242288a",
           "exact_grad_ones": "b807abdbad1e79ae6df26ca7",
           "feas": "4d54df916976aecce27b25e0",
           "feas_ones": "6c3030cae1b6d3bd0a056d5e",
           "feas_counters": "24f191c9ed2dcff8d76c3a5f",
           "leaf_grad": "11eb92364295c7089f5bac2a",
           "averaged": "bb13f303f2b02458eb60b8d1",
           "shared_writes": ("243b734641a32ba904dd5ddc", 38, 152, 31)},
    "m4": {"eval_f": "-0x1.6f054fdcca875p+2",
           "eval_f_theta": "-0x1.79b5a3853661ap+1",
           "aggregate_violation": "0x1.1037bfd898357p+0",
           "exact_grad": "33fecad778ac1c3bfb00e40d",
           "exact_grad_ones": "efa0dc69f4f35699544aead3",
           "feas": "a5af4a164e685bab1a0ca3ff",
           "feas_ones": "3fcc4d3bae34c62dbd2d9405",
           "feas_counters": "65683b2dfb26806bad4987b5",
           "leaf_grad": "cdb10b66ae3c382d8cd1f263",
           "averaged": "88c09a233a6b3a21cf6d808e",
           "shared_writes": ("e3bbb3640a04288889f0dbf7", 92, 368, 69)},
    "m5": {"eval_f": "-0x1.94293340a8ee9p+1",
           "eval_f_theta": "-0x1.5bac59c767328p-3",
           "aggregate_violation": "0x1.5e04861b0356ap-1",
           "exact_grad": "62a8ab1f370f47831b348a03",
           "exact_grad_ones": "45e9bed404eb4809370f92b8",
           "feas": "128f08539e1d8ca480541e22",
           "feas_ones": "26103b6f1692a24e07eee09a",
           "feas_counters": "69996009729c5d8f017a91bd",
           "leaf_grad": "c3c6357799de44e45d232648",
           "averaged": "f6a47517af60869c03360709",
           "shared_writes": ("3b7020214411df6d46863c1e", 24, 96, 24)},
}


def test_golden_penalty_objectives(golden):
    name, tree, x = golden
    assert eval_f(tree, x).hex() == _GOLDEN[name]["eval_f"]
    assert eval_f_theta(tree, x, 0.5).hex() == _GOLDEN[name]["eval_f_theta"]
    assert aggregate_violation(tree, x).hex() == \
        _GOLDEN[name]["aggregate_violation"]


def test_golden_exact_gradient(golden):
    name, tree, x = golden
    ones = {p.key: 1.0 for p in tree.prefixes()}
    for sol, field in ((x, "exact_grad"), (ones, "exact_grad_ones")):
        g = exact_grad_f_theta(tree, sol, 0.5)
        assert _table_digest(g[p.key] for p in tree.prefixes()) == \
            _GOLDEN[name][field]


def test_golden_feas_table(golden):
    name, tree, x = golden
    ones = {p.key: 1.0 for p in tree.prefixes()}
    for sol, field in ((x, "feas"), (ones, "feas_ones")):
        patched = feas_table(tree, sol)
        assert _table_digest(patched[p.key] for p in tree.prefixes()) == \
            _GOLDEN[name][field]
    # the counters FeasState.step leaves along every root-to-leaf path
    counters = []
    for leaf in tree.leaves():
        fs = FeasState(tree.instance.b)
        for t in range(1, tree.instance.T + 1):
            fs.step(tree.node(leaf.head(t)).a, 1.0)
            counters += fs.remaining
    assert _table_digest(counters) == _GOLDEN[name]["feas_counters"]


def test_golden_leaf_grad_table(golden):
    name, tree, x = golden
    cfg = SolverConfig(epsilon=0.2, theta=0.5, alpha=0.3, K=1, eta1=1,
                       eta2=tree.instance.T, practical_override=True)
    flat = []
    for p in tree.prefixes():
        _, cond, values = leaf_grad_table(tree, p, x, cfg)
        assert all(cond > 0.0)  # support leaves only
        flat += list(cond) + list(values)
    assert _table_digest(flat) == _GOLDEN[name]["leaf_grad"]


def test_golden_averaged_solution(golden):
    name, tree, _ = golden
    cfg = SolverConfig(epsilon=0.2, theta=0.5, alpha=0.3, K=4, eta1=2,
                       eta2=2, master_seed=5, momentum="accelerated",
                       practical_override=True)
    avg = averaged_solution(tree, cfg)
    support = [p for p in tree.prefixes() if tree.mu(p) > 0.0]
    assert list(avg) == [p.key for p in support]
    assert _table_digest(avg[p.key] for p in support) == \
        _GOLDEN[name]["averaged"]


def _one_head(tree, prefix, c):
    """Whether every completion of ``prefix`` has the same first c rows:
    c <= |S|, or the tree below S, zero-mass nodes included, holds one
    node of depth c."""
    return c <= len(prefix) or sum(
        len(p) == c and p.startswith(prefix) for p in tree.prefixes()) == 1


def test_golden_shared_table_write_order(golden):
    # six episodes of decisions over one table: every entry, in the order
    # the recursion wrote it, and the table's counters.  The golden holds
    # the sim calls made when every entry drew eta1 completions, and the
    # number of entries that draw none: those at level 1, those whose node
    # requests no resource, and those whose draws have one head through
    # every period they are read at (max(aleph_(k-1)))
    name, tree, _ = golden
    sim = tree_as_simulator(tree)
    cfg = SolverConfig(epsilon=0.2, theta=0.5, alpha=0.3, K=4, eta1=4,
                       eta2=2, master_seed=5, momentum="accelerated",
                       practical_override=True)
    memo = MemoTable(cfg)
    for e in range(6):
        traj = sim.complete(EMPTY_PREFIX, (5, "episode", e))
        for t in range(1, tree.instance.T + 1):
            decide_pen(sim, memo, traj.head(t))
    text = " ".join(f"{keys.key_digest(key).hex()}:{k}:{v.hex()}"
                    for (key, k), v in memo.entries.items())
    digest = hashlib.blake2b(text.encode(), digest_size=12).hexdigest()
    golden_digest, writes, all_drawing_calls, drawing_none = \
        _GOLDEN[name]["shared_writes"]
    assert (digest, memo.writes) == (golden_digest, writes)
    T = tree.instance.T
    assert sum(k == 1 or not tree.node(key).a or _one_head(
        tree, tree.node(key).prefix, sample_index_set(cfg, T, k - 1)[-1])
        for key, k in memo.entries) == drawing_none
    assert memo.sim_calls == all_drawing_calls - cfg.eta1 * drawing_none


# OPT_lp, OPT_pen, the LP solution (digest in prefix order) and the
# structure constants U, V, W and L; they keep their bits however the LP
# rows and the root-to-leaf paths are assembled
_GOLDEN_LP = {
    "m2": ("0x1.68173b9abcd48p+0", "0x1.68173b9abcd48p+0",
           "31825183b827feec23a61206",
           (2, 2, 4, 2)),
    "m4": ("0x1.1db4f235ae668p+0", "0x1.1db4f235ae668p+0",
           "c36ccc6b1664ef600341b423",
           (4, 4, 10, 3)),
    "m5": ("0x1.59cc9b36be1e5p+0", "0x1.59cc9b36be1e5p+0",
           "6983b0ffdfdd85ad7432cd4b",
           (2, 4, 6, 4)),
}


def test_golden_lp_oracles(golden):
    name, tree, _ = golden
    opt_lp, sol = solve_lp_explicit(tree)
    assert list(sol) == [p.key for p in tree.prefixes()]
    consts = dataclasses.astuple(derive_structure_constants(tree))
    assert (opt_lp.hex(), solve_pen_lp(tree).hex(), _table_digest(sol.values()),
            consts) == _GOLDEN_LP[name]
