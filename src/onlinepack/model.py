"""Core data model: prefixes, instances, scenario trees, and simulators.

The decision problem is indexed by partial histories (prefixes) of an
exogenous information process.  A ``Prefix`` owns a canonical byte
serialization used for identity, hashing, and draw-key derivation.  Small
finite-support processes are represented explicitly as an
``ExplicitScenarioTree``; arbitrary processes are reached only through a
``SimulatorHandle``, which bundles conditional trajectory completion with a
readout of rewards and resource consumption along a path.
"""

from __future__ import annotations

import dataclasses
import json
import math
import struct
from bisect import bisect_right
from dataclasses import dataclass
from typing import Callable, Iterable, Mapping, Sequence

import numpy as np

from . import keys
from .errors import CapacityError, InstanceError, SupportError

Observation = tuple[float, ...]

_MU_TOL = 1e-9
_RANGE_TOL = 1e-12


def _canonical_observation(values: Sequence[float]) -> Observation:
    out = []
    for v in values:
        f = float(v)
        if math.isnan(f) or math.isinf(f):
            raise InstanceError("observation entries must be finite")
        out.append(0.0 if f == 0.0 else f)  # collapse -0.0 into +0.0
    return tuple(out)


_pack_len = struct.Struct("<I").pack


class Prefix:
    """A partial history of the information process.

    Identity is the canonical little-endian serialization of the observation
    matrix (with its dimensions), so two prefixes are equal iff they encode
    the same reals in the same shape.  ``key`` is the serialization and is
    safe to use as a dict key or a draw-key part.  A prefix caches nothing.
    """

    __slots__ = ("obs", "key")

    def __init__(self, obs: Iterable[Sequence[float]]):
        rows = tuple(_canonical_observation(o) for o in obs)
        dim = len(rows[0]) if rows else 0
        for r in rows:
            if len(r) != dim:
                raise InstanceError("ragged observation matrix")
        flat = [v for r in rows for v in r]
        self.obs = rows
        self.key = struct.pack("<II", dim, len(rows)) + struct.pack(
            f"<{len(flat)}d", *flat)

    @classmethod
    def _trusted(cls, rows: tuple[Observation, ...], key: bytes) -> "Prefix":
        """A prefix from rows that are already canonical, with their key.

        Skips validation and re-serialization: only for rows sliced from a
        canonical prefix or made canonical by the caller (finite floats, no
        -0.0, constant width), with ``key`` their exact serialization.
        """
        p = cls.__new__(cls)
        p.obs = rows
        p.key = key
        return p

    def __len__(self) -> int:
        return len(self.obs)

    def __eq__(self, other) -> bool:
        return isinstance(other, Prefix) and self.key == other.key

    def __hash__(self) -> int:
        return hash(self.key)  # bytes cache their own hash

    def __repr__(self) -> str:
        return f"Prefix(len={len(self.obs)}, key={self.key.hex()[:16]})"

    @property
    def last(self) -> Observation:
        if not self.obs:
            raise InstanceError("empty prefix has no last observation")
        return self.obs[-1]

    def head(self, t: int) -> "Prefix":
        """The first t periods (1-based); uncached, ``self`` when t = len."""
        obs = self.obs
        if t == len(obs):
            return self
        if not 0 <= t < len(obs):
            raise InstanceError(f"head length {t} out of range")
        if t == 0:
            return EMPTY_PREFIX
        # same width, shorter length: a slice of the parent's key
        p = object.__new__(Prefix)
        p.obs = obs[:t]
        p.key = self.key[:4] + _pack_len(t) + \
            self.key[8:8 + 8 * len(obs[0]) * t]
        return p

    def extend(self, observation: Sequence[float]) -> "Prefix":
        """This prefix and one more row; only the new row is checked."""
        row = _canonical_observation(observation)
        if self.obs and len(row) != len(self.obs[0]):
            raise InstanceError("ragged observation matrix")
        header = struct.pack("<II", len(row), len(self.obs) + 1)
        key = header + self.key[8:] + struct.pack(f"<{len(row)}d", *row)
        return Prefix._trusted(self.obs + (row,), key)

    def startswith(self, other: "Prefix") -> bool:
        return self.obs[: len(other.obs)] == other.obs


EMPTY_PREFIX = Prefix(())


class _Completion(Prefix):
    """A length-T completion whose rows are simulated when first read.

    ``extend(t)`` returns the completion's first t rows as a plain prefix,
    simulating only the periods after the conditioning prefix, and a short
    answer is the head of the long one, bit for bit.  The first ``head(t)``
    with t < T is answered by ``extend(t)`` alone.  Any other read of
    ``obs`` or ``key`` (equality, hashing, ``last``, a readout, a second
    head) fills both slots from ``extend(T)`` once; from then on the
    completion reads as a plain prefix.  ``len`` is T without simulating.
    """

    __slots__ = ("_T", "_extend", "_headed")

    def __init__(self, T: int, extend: Callable[[int], Prefix]):
        self._T = T
        self._extend = extend
        self._headed = False

    def __getattr__(self, name):
        # reached only while the obs and key slots are unset; once they
        # are filled, reads cost what a plain prefix's reads cost
        if name not in ("obs", "key") or self._extend is None:
            raise AttributeError(name)
        full = self._extend(self._T)
        self.obs, self.key = full.obs, full.key
        self._extend = None
        return getattr(full, name)

    def __len__(self) -> int:
        return self._T

    def head(self, t: int) -> Prefix:
        if self._extend is None or self._headed or t >= self._T:
            return Prefix.head(self, t)
        cut = self._extend(t)
        self._headed = True
        return cut


@dataclass(frozen=True)
class InstanceSpec:
    """Static description of a packing instance.

    ``b`` holds the m resource budgets, ``L`` bounds the number of resources
    any one arrival touches, and ``iota`` is the lower bound on nonzero
    consumption values.  ``V`` is the structure constant that sets the
    default smoothing level; it is supplied only on generative instances,
    whose V cannot be derived, must lie in [1, max(m, 1)], and defaults to
    the min(m, ceil(L/nu)) bound (``v_or_default``).  Explicit trees derive
    U, V, W and L from their paths (``derive_structure_constants``).
    """

    T: int
    m: int
    b: tuple[float, ...]
    L: int
    iota: float
    V: int | None = None

    def __post_init__(self):
        object.__setattr__(self, "b", tuple(float(x) for x in self.b))
        if self.T < 1:
            raise InstanceError("horizon T must be >= 1")
        if self.m < 0 or len(self.b) != self.m:
            raise InstanceError("budget vector length must equal m")
        if not all(0 <= x < math.inf for x in self.b):
            raise InstanceError("budgets must be finite and nonnegative")
        if not 0 < self.iota <= 1:
            raise InstanceError("iota must lie in (0, 1]")
        if self.L < 0:
            raise InstanceError("column sparsity bound L must be >= 0")
        if self.V is not None and (type(self.V) is not int
                                   or not 1 <= self.V <= max(self.m, 1)):
            raise InstanceError(f"structure constant V must be an integer in "
                                f"[1, max(m, 1)], got {self.V!r}")

    @property
    def nu(self) -> float:
        """The smallest budget per period, min(b)/T (0 without resources)."""
        return min(self.b) / self.T if self.b else 0.0

    def v_or_default(self) -> int:
        """V if given, else max(1, min(m, ceil(L/nu))), with m for nu = 0."""
        if self.V is not None:
            return self.V
        nu = self.nu
        return max(1, min(self.m, math.ceil(self.L / nu)) if nu > 0
                   else self.m)


class Readout:
    """Rewards and resource consumption along a prefix or trajectory.

    ``z[t-1]`` is the reward of period t; ``a[t-1]`` is the sparse r.c.v. as a
    tuple of (resource, value) pairs sorted by resource id.
    """

    __slots__ = ("z", "a")

    def __init__(self, z: Sequence[float], a: Sequence[tuple[tuple[int, float], ...]]):
        self.z = tuple(z)
        self.a = tuple(a)

    def reward(self, t: int) -> float:
        return self.z[t - 1]

    def rcv(self, t: int) -> tuple[tuple[int, float], ...]:
        return self.a[t - 1]


def _sorted_rcv(a: Mapping[int, float] | Iterable[tuple[int, float]]):
    """The nonzero (resource, value) pairs sorted by resource; a resource
    named twice is refused, since readers would disagree on its value."""
    items = a.items() if isinstance(a, Mapping) else a
    pairs = sorted((int(i), float(v)) for i, v in items)
    for (i, _), (j, _) in zip(pairs, pairs[1:]):
        if i == j:
            raise InstanceError(f"resource {i} is named twice in one r.c.v.")
    return tuple(p for p in pairs if p[1] != 0.0)


@dataclass(frozen=True)
class SimulatorHandle:
    """The conditional-completion simulator plus its readout.

    ``complete(prefix, key)`` returns a full trajectory drawn from the law of
    the process conditional on the prefix; the empty prefix yields an
    unconditional draw.  Identical keys give identical trajectories.  The
    trajectory may be a plain ``Prefix`` or one whose rows are simulated
    when first read (generative NRM), so a wrapper's time around
    ``complete`` need not hold the simulation: per-layer traces show it
    where the rows are read, under ``engine.draws`` for the engine's
    draws.  ``readout(prefix)`` returns rewards and r.c.v.s along any
    in-support prefix.  ``node(prefix)`` returns ``(Z, a)`` of the
    prefix's final period only -- exactly ``readout(prefix).reward(t)``
    and ``.rcv(t)`` with t = len(prefix).  The engine reads the process
    through ``node`` alone, at the eta2 sampled periods of each
    completion, so a lookup in time independent of t keeps that O(eta2).  A handle built without
    ``node`` gets one derived from ``readout`` (one full readout per
    lookup); ``dataclasses.replace(sim, node=None, readout=r)`` derives it
    from ``r``.  ``fixed_head(prefix, c)`` returns the length-c head that
    every completion of ``prefix`` has, or None when that head is not
    known without simulating; it must agree with ``complete`` for every
    key, and it must return the head for every c <= |prefix| of an
    in-support prefix (the engine raises ``ContractViolationError`` on
    None there).  The engine takes every draw's cut and sampled heads
    through it, so a handle may answer with prefixes it already holds.  A
    handle built without it gets ``prefix.head(c)`` for c <= |prefix| and
    None beyond.  ``dataclasses.replace`` keeps it, so a replaced
    ``complete`` with another law needs ``fixed_head=None``.
    Matching-style encodings attach ``partite_of`` (IS) or
    ``block_lookup`` (MMO block window and offline endpoints).
    """

    instance: InstanceSpec
    complete: Callable[[Prefix, tuple], Prefix]
    readout: Callable[[Prefix], Readout]
    partite_of: Callable[[Prefix], str] | None = None
    block_lookup: Callable[[Prefix], tuple] | None = None
    tree: "ExplicitScenarioTree | None" = None
    node: Callable[[Prefix], tuple] | None = None
    fixed_head: Callable[[Prefix, int], Prefix | None] | None = None

    def __post_init__(self):
        if self.fixed_head is None:
            object.__setattr__(self, "fixed_head", _own_head)
        if self.node is None:
            readout = self.readout

            def node(prefix: Prefix):
                t = len(prefix)
                r = readout(prefix)
                return r.reward(t), r.rcv(t)
            object.__setattr__(self, "node", node)


def _own_head(prefix: Prefix, c: int) -> Prefix | None:
    """The default ``fixed_head``: the prefix's own first c rows, if any."""
    return prefix.head(c) if c <= len(prefix) else None


class TreeNode:
    __slots__ = ("prefix", "mu", "z", "a", "parent", "children", "depth")

    def __init__(self, prefix, mu, z, a, parent, depth):
        self.prefix = prefix
        self.mu = mu
        self.z = z
        self.a = a
        self.parent = parent
        self.children: list[bytes] = []
        self.depth = depth


class ExplicitScenarioTree:
    """A fully enumerated finite-support process.

    Nodes cover every in-support prefix; each carries its absolute
    probability mu(S), reward Z(S), and sparse r.c.v.  Leaves sit exactly at
    depth T.  Construction validates probability consistency (children sum
    to their parent, level sums equal 1, total mass equals T) and the
    normalization assumptions on Z and a.
    """

    def __init__(self, instance: InstanceSpec, nodes: dict[bytes, TreeNode],
                 roots: list[bytes], order: list[bytes]):
        self.instance = instance
        self._nodes = nodes
        self.root_keys = tuple(roots)
        self.order = tuple(order)  # insertion (BFS-compatible) order over all prefixes
        self.leaf_keys = tuple(k for k in order if nodes[k].depth == instance.T)
        self._leaves_under: dict[bytes, tuple[tuple[bytes, ...], np.ndarray]] = {}
        self._validate()

    # -- accessors ---------------------------------------------------------

    def __len__(self) -> int:
        return len(self._nodes)

    def node(self, ref) -> TreeNode:
        key = ref.key if isinstance(ref, Prefix) else ref
        try:
            return self._nodes[key]
        except KeyError:
            raise SupportError("prefix not in the support of the tree") from None

    def prefixes(self):
        return [self._nodes[k].prefix for k in self.order]

    def leaves(self):
        return [self._nodes[k].prefix for k in self.leaf_keys]

    def mu(self, ref) -> float:
        return self.node(ref).mu

    def children(self, ref) -> list[TreeNode]:
        n = self.node(ref)
        return [self._nodes[c] for c in n.children]

    def path(self, ref) -> list[TreeNode]:
        """The nodes from the root down to ``ref``, one per period.

        The one root-to-node walk: readouts, penalty loads, LP rows, the
        structure constants and the leaf gradient table all read a
        trajectory's periods from it.
        """
        node = self.node(ref)
        chain = [node]
        while node.parent is not None:
            node = self._nodes[node.parent]
            chain.append(node)
        chain.reverse()
        return chain

    def readout(self, prefix: Prefix) -> Readout:
        chain = self.path(prefix)
        return Readout([nd.z for nd in chain], [nd.a for nd in chain])

    def leaves_under(self, ref):
        """(leaf keys, conditional probabilities) of the subtree below ref."""
        key = ref.key if isinstance(ref, Prefix) else ref
        cached = self._leaves_under.get(key)
        if cached is not None:
            return cached
        node = self.node(key)
        leaf_keys: list[bytes] = []
        probs: list[float] = []
        stack = [key]
        while stack:
            k = stack.pop()
            nd = self._nodes[k]
            if nd.depth == self.instance.T:
                leaf_keys.append(k)
                probs.append(nd.mu)
            else:
                stack.extend(reversed(nd.children))
        arr = np.asarray(probs, dtype=float)
        if node.mu > 0:
            arr = arr / node.mu
        out = (tuple(leaf_keys), arr)
        self._leaves_under[key] = out
        return out

    # -- validation --------------------------------------------------------

    def _validate(self):
        inst = self.instance
        if not self._nodes:
            raise InstanceError("empty scenario tree")
        dims = {len(n.prefix.last) for n in self._nodes.values()}
        if len(dims) != 1:
            raise InstanceError("observation dimension must be constant")
        root_mass = sum(self._nodes[k].mu for k in self.root_keys)
        if abs(root_mass - 1.0) > _MU_TOL:
            raise InstanceError(f"root probabilities sum to {root_mass}, not 1")
        total = 0.0
        for k in self.order:
            n = self._nodes[k]
            total += n.mu
            if not n.mu >= -_MU_TOL:  # NaN would pass every mass check
                raise InstanceError(f"node probability {n.mu} is not >= 0")
            if not -_RANGE_TOL <= n.z <= 1 + _RANGE_TOL:
                raise InstanceError(f"reward {n.z} outside [0, 1]")
            if len(n.a) > inst.L:
                raise InstanceError("column sparsity bound L violated")
            for i, v in n.a:
                if not 0 <= i < inst.m:
                    raise InstanceError(f"resource id {i} out of range")
                if not inst.iota - 1e-9 <= v <= 1 + _RANGE_TOL:
                    raise InstanceError(
                        f"consumption {v} outside {{0}} U [{inst.iota}, 1]")
            if n.depth < inst.T:
                if not n.children:
                    raise InstanceError("internal node without children")
                child_mass = sum(self._nodes[c].mu for c in n.children)
                if abs(child_mass - n.mu) > _MU_TOL * max(1.0, n.mu):
                    raise InstanceError("child probabilities do not sum to parent")
            elif n.children:
                raise InstanceError("leaf node with children")
        if abs(total - inst.T) > _MU_TOL * inst.T:
            raise InstanceError(f"total prefix mass {total} != T = {inst.T}")


class TreeBuilder:
    """Incremental construction of an ExplicitScenarioTree.

    Nodes are added with probabilities conditional on their parent; absolute
    probabilities are accumulated down the tree at build time.  Only the
    instance's T, m, b, L and iota are given: the tree's structure
    constants are derived from its paths, never supplied.
    """

    def __init__(self, T: int, m: int, b: Sequence[float], L: int, iota: float):
        self.instance = InstanceSpec(T=T, m=m, b=tuple(b), L=L, iota=iota)
        self._nodes: dict[bytes, TreeNode] = {}
        self._roots: list[bytes] = []
        self._order: list[bytes] = []

    def add(self, parent: Prefix | None, observation: Sequence[float],
            prob: float, z: float, a: Mapping[int, float] | None = None) -> Prefix:
        """Add a node under ``parent`` with conditional probability ``prob``."""
        pnode = None
        mu = float(prob)
        if parent is not None:
            pnode = self._nodes.get(parent.key)
            if pnode is None:
                raise InstanceError("parent prefix not in tree")
            mu = pnode.mu * mu
        return self._attach(pnode, observation, mu, float(z),
                            _sorted_rcv(a or {})).prefix

    def _attach(self, parent: TreeNode | None, obs: Sequence[float], mu: float,
                z: float, a_pairs: tuple) -> TreeNode:
        """Link a node of absolute probability ``mu`` under ``parent``."""
        if parent is None:
            prefix = Prefix((obs,))
        else:
            prefix = parent.prefix.extend(obs)
        if prefix.key in self._nodes:
            raise InstanceError("duplicate prefix (sibling observations must differ)")
        node = TreeNode(prefix, mu, z, a_pairs,
                        None if parent is None else parent.prefix.key,
                        1 if parent is None else parent.depth + 1)
        self._nodes[prefix.key] = node
        self._order.append(prefix.key)
        if parent is None:
            self._roots.append(prefix.key)
        else:
            parent.children.append(prefix.key)
        return node

    def build(self) -> ExplicitScenarioTree:
        return ExplicitScenarioTree(self.instance, self._nodes, self._roots,
                                    self._order)


def tree_as_simulator(tree: ExplicitScenarioTree) -> SimulatorHandle:
    """Wrap an explicit tree as a SimulatorHandle.

    Completion samples a leaf from the conditional leaf distribution under
    the prefix (one uniform against the cumulative weights, which are
    computed once per prefix and kept as a list) and returns the stored
    leaf prefix; readout returns the stored node values.  Zero-probability
    branches are never sampled, and ``complete`` and ``node`` refuse them
    (SupportError).  ``fixed_head`` returns a tree node's own prefix: the
    ancestor at depth c for c <= |prefix|, whatever the masses, and for a
    longer head the node reached down a chain of single children below a
    positive-mass prefix (the is and mwm encodings reveal every scenario at
    period 1, an mmo block is revealed at its start; the test counts
    zero-mass children).  It refuses a nonempty prefix outside the tree
    (SupportError), as ``complete`` does.
    """
    cumdist: dict[bytes, tuple[tuple[Prefix, ...], list[float]]] = {}

    def _cumulative(prefix: Prefix):
        if len(prefix) == 0:
            leaf_keys = tree.leaf_keys
            probs = np.array([tree.node(k).mu for k in leaf_keys])
        else:
            leaf_keys, probs = tree.leaves_under(prefix.key)
        cum = np.cumsum(probs)
        if not len(cum) or cum[-1] <= 0.0:
            raise SupportError("no positive-probability continuation")
        return tuple(tree.node(k).prefix for k in leaf_keys), cum.tolist()

    def complete(prefix: Prefix, key: tuple) -> Prefix:
        cached = cumdist.get(prefix.key)
        if cached is None:
            cached = cumdist[prefix.key] = _cumulative(prefix)
        leaves, cum = cached
        # bisect_right is searchsorted(side="right"); the clamp catches
        # u * total rounding up to total
        j = bisect_right(cum, keys.uniform(*key) * cum[-1])
        return leaves[j if j < len(leaves) else -1]

    nodes = tree._nodes

    def node(prefix: Prefix):
        # the hottest lookup on tree decision paths, so tree.node is inlined
        nd = nodes.get(prefix.key)
        if nd is None or not nd.mu > 0.0:
            raise SupportError("prefix not in the support of the tree")
        return nd.z, nd.a

    def fixed_head(prefix: Prefix, c: int):
        nd = nodes.get(prefix.key)
        if nd is None:
            if len(prefix):
                raise SupportError("prefix not in the support of the tree")
            return None
        if c <= nd.depth:  # an ancestor is fixed, whatever the masses
            if c < 1:
                return prefix.head(c)  # c = 0: the empty prefix
            while nd.depth > c:
                nd = nodes[nd.parent]
            return nd.prefix
        if not nd.mu > 0.0:
            return None
        while nd.depth < c and len(nd.children) == 1:
            nd = nodes[nd.children[0]]
        return nd.prefix if nd.depth == c and nd.mu > 0.0 else None

    return SimulatorHandle(
        instance=tree.instance,
        complete=complete,
        readout=tree.readout,
        tree=tree,
        node=node,
        fixed_head=fixed_head,
    )


@dataclass(frozen=True)
class StructureConstants:
    U: int
    V: int
    W: int
    L: int


def derive_structure_constants(tree: ExplicitScenarioTree) -> StructureConstants:
    """Exact structure constants by exhaustive scan of the tree.

    U is the largest per-resource request count on any trajectory (clamped
    to >= 2), V the largest number of budget-saturating resources (clamped
    to >= 1), and W the largest total resource overlap between one arrival
    and all arrivals on the same trajectory, and L the most resources one
    arrival requests.  V sets the default theta; U, L and W set the step
    size of ``oracle.solve_pen_explicit``.
    """
    inst = tree.instance
    if not tree.leaf_keys:
        raise InstanceError("tree has no leaves")
    U = 0
    V = 0
    W = 0
    L_seen = 0
    for leaf_key in tree.leaf_keys:
        rcvs = [nd.a for nd in tree.path(leaf_key)]
        supports = [frozenset(i for i, _ in pairs) for pairs in rcvs]
        totals: dict[int, float] = {}
        counts: dict[int, int] = {}
        for pairs in rcvs:
            L_seen = max(L_seen, len(pairs))
            for i, v in pairs:
                totals[i] = totals.get(i, 0.0) + v
                counts[i] = counts.get(i, 0) + 1
        if counts:
            U = max(U, max(counts.values()))
        V = max(V, sum(1 for i, tot in totals.items() if tot >= inst.b[i] - 1e-12))
        for ref in supports:
            if not ref:
                continue
            overlap = sum(len(ref & s) for s in supports)
            W = max(W, overlap)
    return StructureConstants(U=max(U, 2), V=max(V, 1), W=W, L=L_seen)


def demo_tree() -> ExplicitScenarioTree:
    """Two-period single-resource instance with an uncertain second reward.

    Accepting the period-1 item (reward 0.5) exhausts the budget that the
    period-2 item (reward 1 or 0.2, equally likely) would need.
    """
    tb = TreeBuilder(T=2, m=1, b=(1.0,), L=1, iota=1.0)
    root = tb.add(None, (0.0,), 1.0, z=0.5, a={0: 1.0})
    tb.add(root, (1.0,), 0.5, z=1.0, a={0: 1.0})
    tb.add(root, (2.0,), 0.5, z=0.2, a={0: 1.0})
    return tb.build()


# ---------------------------------------------------------------------------
# Reproducible NRM-style instance generation
# ---------------------------------------------------------------------------

_NRM_URN_BONUS = 0.5
# the most nodes of a generated explicit tree, and the largest size (T, m,
# event codes, encoding nodes, scenario periods) an instance may ask for
_INSTANCE_SIZE_CAP = 100_000


def _check_sizes(sizes: Mapping[str, int]) -> None:
    """Refuse, before anything is built, a size above the instance cap."""
    for name, value in sizes.items():
        if value > _INSTANCE_SIZE_CAP:
            raise InstanceError(f"{name} = {value} exceeds the instance size "
                                f"cap {_INSTANCE_SIZE_CAP}")


class _NrmTables:
    """Seed-derived event tables for the NRM generator.

    Event 0 is a no-show (zero reward and consumption).  Each other event
    consumes at most L resources with values in [iota, 1] and carries a fixed
    reward.  Event probabilities are modulated by a two-state regime (flipped
    by every occurrence of the last event code) and reinforced by the full
    history's event counts, which makes the process genuinely non-Markovian.
    Event e is observed as the one-entry row ``(float(e),)``.
    """

    def __init__(self, seed: int, m: int, L: int, iota: float, n_events: int):
        if n_events < 2:
            raise InstanceError("need at least two event codes")
        gen = keys.generator(seed, "nrm-tables")
        self.n_events = n_events
        self.z = [0.0]
        self.a: list[tuple[tuple[int, float], ...]] = [()]
        for _ in range(1, n_events):
            size = int(gen.integers(1, min(L, m) + 1)) if m > 0 and L > 0 else 0
            ids = sorted(int(i) for i in gen.choice(m, size=size, replace=False)) \
                if size else []
            vals = iota + (1.0 - iota) * gen.random(len(ids))
            self.a.append(tuple((i, float(v)) for i, v in zip(ids, vals)))
            self.z.append(float(0.05 + 0.95 * gen.random()))
        self.base = [[float(w) for w in row]
                     for row in 0.2 + gen.random((2, n_events))]
        self.shock_event = n_events - 1
        self.rows = tuple((float(e),) for e in range(n_events))

    def law(self, counts: Sequence[int], regime: int) -> list[float]:
        """Next-event probabilities after a history with these event counts;
        ``regime`` is the parity of the shock-event count.  Event e weighs
        ``base[regime][e] * (1.0 + _NRM_URN_BONUS * count_e)``."""
        w = [self.base[regime][e] * (1.0 + _NRM_URN_BONUS * c)
             for e, c in enumerate(counts)]
        # plain left-to-right sum: sum() of floats is compensated on newer
        # Pythons, which would change the probabilities' bits
        total = 0.0
        for x in w:
            total += x
        return [x / total for x in w]

    def counts_of(self, prefix: Prefix) -> tuple[list[int], int]:
        """(event counts, regime) of a prefix's history, validating its rows."""
        obs = prefix.obs
        counts = [obs.count(row) for row in self.rows]
        if sum(counts) != len(obs):  # a row that is no event code
            raise SupportError("observation is not a valid event code")
        return counts, counts[self.shock_event] % 2


def generate_nrm(seed: int, T: int, m: int, L: int, iota: float,
                 budget_ratio: float, mode: str = "explicit",
                 n_events: int = 3):
    """Reproducible correlated-demand instance.

    ``mode="explicit"`` enumerates the full scenario tree (capped at
    ``_INSTANCE_SIZE_CAP`` nodes); ``mode="generative"`` returns a
    SimulatorHandle for the same process without enumeration.  Budgets
    are ``budget_ratio * T`` for every resource, so nu equals the ratio by
    construction.

    The generative ``complete`` checks the prefix (``SupportError`` for an
    invalid event row or more than T rows) and returns a completion whose
    rows are simulated on first read: the engine reads each draw only
    through its head at c = max(aleph_k), so it simulates c - |prefix|
    events, not T - |prefix|.  Per-layer traces therefore show the
    simulation under ``engine.draws`` (and an episode trajectory's under
    ``model.readout``), not under ``model.complete`` self time.

    The simulation kernel draws each event with the arithmetic of
    ``_NrmTables.law`` followed by one cumulative search, bit for bit.  The
    weight of event e is ``base[regime][e] * (1.0 + _NRM_URN_BONUS *
    count_e)``, ``_NrmTables.law``'s expression written inline; only the
    drawn event's weight is recomputed, or all of them on a regime flip.
    The total is a left-to-right float loop, never ``sum()``: from Python
    3.12 on ``sum()`` of floats is compensated, which would change the
    bits.  Event e is drawn for uniform u when u < acc after acc +=
    w_e / total over e ascending, the last event if u passes every acc;
    each quotient is formed only as far as the search reaches.
    """
    if mode not in ("explicit", "generative"):
        raise InstanceError(f"unknown mode {mode!r}")
    tables = _NrmTables(seed, m, L, iota, n_events)
    b = tuple(budget_ratio * T for _ in range(m))

    if mode == "explicit":
        count = sum(n_events ** t for t in range(1, T + 1))
        if count > _INSTANCE_SIZE_CAP:
            raise CapacityError(f"explicit tree needs {count} nodes, cap is "
                                f"{_INSTANCE_SIZE_CAP}")
        tb = TreeBuilder(T=T, m=m, b=b, L=L, iota=iota)
        frontier: list[tuple[Prefix | None, tuple[int, ...], int]] = \
            [(None, (0,) * n_events, 0)]
        for _ in range(T):
            nxt = []
            for parent, counts, regime in frontier:
                probs = tables.law(counts, regime)
                for e in range(n_events):
                    child = tb.add(parent, tables.rows[e], probs[e],
                                   z=tables.z[e], a=dict(tables.a[e]))
                    nxt.append((child,
                                counts[:e] + (counts[e] + 1,) + counts[e + 1:],
                                regime ^ (e == tables.shock_event)))
            frontier = nxt
        return tb.build()

    instance = InstanceSpec(T=T, m=m, b=b, L=L, iota=iota)
    packed = [struct.pack("<d", row[0]) for row in tables.rows]
    shock, last = tables.shock_event, n_events - 1
    base, bonus = tables.base, _NRM_URN_BONUS

    def simulate(prefix: Prefix, counts: list[int], regime: int, key: tuple,
                 stop: int) -> Prefix:
        # the arithmetic of sampling from tables.law(counts, regime) at every
        # step, bit for bit (see the docstring)
        if stop <= len(prefix):
            return prefix.head(stop)
        counts = counts[:]  # the prefix's counts serve every read
        bw = base[regime]
        w = [bw[e] * (1.0 + bonus * c) for e, c in enumerate(counts)]
        new_events = []
        # the first n uniforms of a key's stream do not depend on n, so a
        # short path is the head of the long one
        for u in keys.uniforms(stop - len(prefix), *key):
            total = 0.0
            for x in w:
                total += x
            acc = 0.0
            e = 0
            for x in w:
                acc += x / total
                if u < acc:
                    break
                e += 1
            else:
                e = last
            n = counts[e] = counts[e] + 1
            if e == shock:
                regime ^= 1
                bw = base[regime]
                w = [bw[j] * (1.0 + bonus * c) for j, c in enumerate(counts)]
            else:
                w[e] = bw[e] * (1.0 + bonus * n)
            new_events.append(e)
        # event rows are canonical one-entry floats, so the trajectory's key
        # is the prefix's doubles followed by the new ones
        rows = prefix.obs + tuple(map(tables.rows.__getitem__, new_events))
        return Prefix._trusted(rows, struct.pack("<II", 1, len(rows)) +
                               prefix.key[8:] +
                               b"".join(map(packed.__getitem__, new_events)))

    def complete(prefix: Prefix, key: tuple) -> Prefix:
        # the support check is eager; the rows are simulated when read
        if len(prefix) > T:
            raise SupportError(f"prefix of {len(prefix)} periods is longer "
                               f"than the horizon {T}")
        counts, regime = tables.counts_of(prefix)
        return _Completion(
            T, lambda stop: simulate(prefix, counts, regime, key, stop))

    # prefix rows are canonical, so exactly the rows (float(e),) are valid
    node_of_row = {row: (tables.z[e], tables.a[e])
                   for e, row in enumerate(tables.rows)}

    def readout(prefix: Prefix) -> Readout:
        try:
            nodes = list(map(node_of_row.__getitem__, prefix.obs))
        except KeyError:
            raise SupportError("observation is not a valid event code") \
                from None
        return Readout([z for z, _ in nodes], [a for _, a in nodes])

    def node(prefix: Prefix):
        try:
            return node_of_row[prefix.last]
        except KeyError:
            raise SupportError("observation is not a valid event code") \
                from None

    return SimulatorHandle(instance=instance, complete=complete,
                           readout=readout, node=node)


# ---------------------------------------------------------------------------
# Instance files
# ---------------------------------------------------------------------------

SCHEMA_VERSION = 1


def tree_to_payload(tree: ExplicitScenarioTree) -> dict:
    """JSON-serializable description of an explicit instance.

    Nodes carry their absolute probability, reward, sparse r.c.v., and the
    observation row, so a round trip reconstructs identical prefixes.
    """
    inst = tree.instance
    ids = {key: j for j, key in enumerate(tree.order)}
    nodes = []
    for key in tree.order:
        n = tree.node(key)
        nodes.append({
            "prefix_id": ids[key],
            "parent_id": ids[n.parent] if n.parent is not None else None,
            "prob": n.mu,
            "Z": n.z,
            "a": [[i, v] for i, v in n.a],
            "obs": list(n.prefix.last),
        })
    return {
        "schema_version": SCHEMA_VERSION,
        "kind": "explicit",
        "T": inst.T, "m": inst.m, "b": list(inst.b),
        "L": inst.L, "iota": inst.iota,
        "tree": {"nodes": nodes},
    }


def payload_to_tree(payload: dict) -> ExplicitScenarioTree:
    _numbers(payload)
    tb = TreeBuilder(T=payload["T"], m=payload["m"],
                     b=[_number("b", x) for x in payload["b"]],
                     L=payload["L"], iota=float(payload["iota"]))
    by_id: dict[int, TreeNode] = {}
    for rec in payload["tree"]["nodes"]:
        prefix_id, parent_id = rec["prefix_id"], rec["parent_id"]
        a = [(i, _number("a", v)) for i, v in rec.get("a", [])]
        # a float or bool id would be read as an integer (0.7 as resource 0)
        if not all(type(i) is int for i in (prefix_id, *(i for i, _ in a))) \
                or type(parent_id) not in (int, type(None)):
            raise InstanceError(f"node ids must be integers, got {rec!r}")
        parent = None
        if parent_id is not None:
            parent = by_id.get(parent_id)
            if parent is None:
                raise InstanceError("node listed before its parent")
        obs = rec.get("obs")
        if obs is None:
            obs = [float(prefix_id)]  # synthesize a distinct observation
        by_id[prefix_id] = tb._attach(
            parent, [_number("obs", x) for x in obs],
            _number("prob", rec["prob"]), _number("Z", rec["Z"]), _sorted_rcv(a))
    return tb.build()


def generative_payload(family: str, params: dict) -> dict:
    return {
        "schema_version": SCHEMA_VERSION,
        "kind": "generative",
        "generator": {"family": family, **params},
    }


@dataclass(frozen=True)
class LoadedInstance:
    """An instance file's handle (``sim.instance``, ``sim.tree``) and payload."""

    sim: SimulatorHandle
    payload: dict


# the fields of instance records that hold integers, and those that hold
# real numbers
_INTEGER_FIELDS = ("T", "m", "L", "V", "seed", "n_events", "n", "delta",
                   "n_offline", "n_online", "n_scenarios")
_REAL_FIELDS = ("iota", "budget_ratio")


def _number(name: str, value) -> float:
    """The float of a JSON number (an integer or a float): a string or a
    bool is refused, where ``float("1.0")`` or ``float(True)`` would
    silently read it."""
    if type(value) not in (int, float):
        raise InstanceError(f"{name} must be a number, got {value!r}")
    return float(value)


def _numbers(record: dict) -> dict:
    """``record``, its numeric fields checked: a float or bool is refused in
    an integer field, where ``int(2.5)`` would silently read 2, and a
    string or bool in a real one."""
    for name in _INTEGER_FIELDS:
        value = record.get(name)
        if value is not None and type(value) is not int:
            raise InstanceError(f"{name} must be an integer, got {value!r}")
    for name in _REAL_FIELDS:
        if name in record:
            _number(name, record[name])
    return record


def load_instance_payload(payload: dict) -> LoadedInstance:
    """The handle of an instance file's payload (``json.load`` of the file).

    A malformed payload raises InstanceError: the errors that Python raises
    on a value of the wrong shape or type are mapped to it here.  A present
    ``schema_version`` must be the integer ``SCHEMA_VERSION``.  Only a
    generative payload may carry a ``structure`` record, and only with the
    key ``V``: explicit and encoded instances derive their constants.
    A generative or encoded payload that asks for a size above
    ``_INSTANCE_SIZE_CAP`` is refused before anything is built; an explicit
    one holds its tree, so the file bounds it.
    """
    try:
        kind = payload.get("kind")
        version = payload.get("schema_version", SCHEMA_VERSION)
        if type(version) is not int or version != SCHEMA_VERSION:
            raise InstanceError(f"schema_version {version!r} is not "
                                f"{SCHEMA_VERSION}")
        if "structure" in payload and kind != "generative":
            raise InstanceError(f"a {kind!r} instance takes no structure "
                                f"record; its constants are derived")
        if kind == "explicit":
            sim = tree_as_simulator(payload_to_tree(payload))
        elif kind == "generative":
            gen = dict(_numbers(payload.get("generator", {})))
            family = gen.pop("family", None)
            if family != "nrm":
                raise InstanceError(f"unknown generator family {family!r}")
            _check_sizes({name: gen.get(name, 0)
                          for name in ("T", "m", "n_events")})
            sim = generate_nrm(mode="generative", **gen)
            structure = _numbers(payload.get("structure", {}))
            if structure:
                if set(structure) != {"V"}:
                    raise InstanceError(f"a structure record holds only V, "
                                        f"got {structure!r}")
                sim = dataclasses.replace(sim, instance=dataclasses.replace(
                    sim.instance, V=structure["V"]))
        elif kind == "encoded":
            from .encodings import build_encoded  # encodings imports model
            sim = build_encoded(_numbers(payload["encoding"]))
        else:
            raise InstanceError(f"unknown instance kind {kind!r}")
    except (AttributeError, KeyError, OverflowError, TypeError,
            ValueError) as exc:
        raise InstanceError(f"malformed instance payload "
                            f"({type(exc).__name__}: {exc})") from None
    return LoadedInstance(sim, payload)


def save_instance(path, payload: dict) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=1, sort_keys=True)
        fh.write("\n")


def load_instance(path) -> LoadedInstance:
    with open(path, "r", encoding="utf-8") as fh:
        return load_instance_payload(json.load(fh))
