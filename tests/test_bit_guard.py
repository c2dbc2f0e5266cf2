"""Bit guards for the keyed-replay contract.

Every draw is a pure function of its key, so completions, truncations and
node lookups must reproduce the same bits however they are computed.  The
golden digests below pin the trajectories that fixed draw keys select; the
properties check that the cheap paths (``Prefix.head``, ``node_values``)
agree with their from-scratch definitions.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import random_tree
from onlinepack import keys
from onlinepack.encodings import (encode_is, encode_mmo, encode_mwm,
                                  random_is_process, random_mmo_process,
                                  random_mwm_process)
from onlinepack.errors import InstanceError
from onlinepack.model import (EMPTY_PREFIX, Prefix, _NrmTables, generate_nrm,
                              generative_payload, load_instance_payload,
                              node_values, tree_as_simulator, tree_to_payload)


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
    for t in range(len(p) + 1):
        h = p.head(t)
        ref = Prefix(p.obs[:t])
        assert h.key == ref.key
        assert hash(h) == hash(ref)
        assert h == ref
        assert len(h) == len(ref) == t
        assert h.obs == ref.obs
        assert h.head(t) is h


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


# -- node_values ------------------------------------------------------------


def _assert_node_matches_readout(sim, prefix):
    t = len(prefix)
    r = sim.readout(prefix)
    assert node_values(sim, prefix) == (r.reward(t), r.rcv(t))


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
    gen_payload = generative_payload(
        "nrm", {"seed": 3, "T": 4, "m": 2, "L": 1, "iota": 0.5,
                "budget_ratio": 0.5}, structure={"U": 2, "V": 1, "W": 2})
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
    T = draw(st.integers(1, 60))
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


# -- bulk uniforms ------------------------------------------------------------


@pytest.mark.parametrize("parts", [(0,), (b"\x01" * 16, 3), (9, "traj", 2)])
def test_bulk_uniforms_equal_stream(parts):
    for n in range(41):
        stream = keys.UniformStream(*parts)
        expected = [stream.next() for _ in range(n)]
        got = keys.uniforms(n, *parts)
        assert [v.hex() for v in got] == [v.hex() for v in expected]
