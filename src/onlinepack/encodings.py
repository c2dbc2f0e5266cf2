"""Packing encodings of independent set, matching, and online-node matching.

Each encoding maps a finite-support graph process into the packing
framework by constructing the information process explicitly: the
observation revealed at a period carries everything the corresponding
arrival is allowed to know (weights, incident potential-edge ids, block
windows), so measurability of rewards and consumption holds by
construction.  All three encoders return an explicit scenario tree wrapped
in a simulator handle, which keeps the exact oracles available on encoded
instances.

Independent set: one period per node, one unit-budget resource per
potential edge, so a realized edge is consumed exactly twice along a
trajectory.  Matching: one period per potential edge, one unit-budget
resource per node.  Online-node matching specializes matching so that all
edges incident to one online node occupy a consecutive block of periods
whose full content is revealed at the block start.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

from . import keys
from .errors import InstanceError, SupportError
from .model import (Prefix, SimulatorHandle, TreeBuilder, _check_sizes,
                    tree_as_simulator)

_PAD = -1.0


@dataclass(frozen=True)
class BipartiteNodeProcess:
    """Node-arrival process for independent set.

    Nodes arrive in index order 0..n-1 with known partite membership.  The
    support is a finite mixture of scenarios, each a concrete bipartite
    graph (edge list on node pairs) with per-node weights.
    """

    n: int
    delta: int
    partite: tuple[str, ...]
    scenarios: tuple[tuple[float, tuple[tuple[int, int], ...],
                           tuple[float, ...]], ...]

    def __post_init__(self):
        if len(self.partite) != self.n:
            raise InstanceError("partite labels must cover every node")
        if any(p not in ("L", "R") for p in self.partite):
            raise InstanceError("partite labels must be 'L' or 'R'")
        if abs(sum(p for p, _, _ in self.scenarios) - 1.0) > 1e-9:
            raise InstanceError("scenario probabilities must sum to 1")


def _check_graph(n, delta, partite, edges, weights):
    degree = [0] * n
    seen = set()
    for u, v in edges:
        if not (0 <= u < n and 0 <= v < n) or u == v:
            raise InstanceError(f"bad edge ({u}, {v})")
        if partite is not None and partite[u] == partite[v]:
            raise InstanceError(f"edge ({u}, {v}) is not bipartite")
        key = (min(u, v), max(u, v))
        if key in seen:
            raise InstanceError(f"duplicate edge {key}")
        seen.add(key)
        degree[u] += 1
        degree[v] += 1
    if any(d > delta for d in degree):
        raise InstanceError("degree bound violated")
    if weights is not None and any(not 0 <= w <= 1 for w in weights):
        raise InstanceError("node weights must lie in [0, 1]")


def _mixture_tree(T, m, L, iota, b, scenarios):
    """Build an explicit tree from (prob, per-period (obs, z, a)) scenarios.

    Scenarios sharing an observation prefix are merged; their per-period
    rewards and consumptions agree by construction (the observation itself
    carries them).
    """
    tb = TreeBuilder(T=T, m=m, b=b, L=L, iota=iota)

    def children(parent: Prefix | None, group, depth: int):
        """(parent, conditional mass, members, depth) of each child of
        ``parent``, last observation first."""
        by_obs: dict[tuple, list] = {}
        for prob, periods in group:
            by_obs.setdefault(periods[depth][0], []).append((prob, periods))
        parent_mass = sum(p for p, _ in group)
        out = []
        for _, members in sorted(by_obs.items()):
            mass = sum(p for p, _ in members)
            cond = mass / parent_mass if parent_mass > 0 else 0.0
            out.append((parent, cond, members, depth))
        return out[::-1]

    # pre-order with an explicit stack, so a horizon of any length builds:
    # each node's subtree is added before its next sibling
    stack = children(None, scenarios, 0)
    while stack:
        parent, cond, members, depth = stack.pop()
        obs_row, z, a = members[0][1][depth]
        for _, periods in members[1:]:
            _, z2, a2 = periods[depth]
            if z2 != z or a2 != a:
                raise InstanceError(
                    "scenarios disagree on a shared prefix; "
                    "reward and consumption must be observation-measurable")
        node = tb.add(parent, obs_row, cond, z=z, a=dict(a))
        if depth + 1 < T:
            stack.extend(children(node, members, depth + 1))
    return tb.build()


def _is_rows(process: BipartiteNodeProcess, edges, weights):
    """Edge ids and per-node (observation row, incident edge ids) of a graph.

    Potential edges are numbered in sorted (low, high) order; node t's row
    is (weight, partite flag, its incident edge ids padded to Delta).
    """
    order = sorted((min(u, v), max(u, v)) for u, v in edges)
    edge_id = {e: j for j, e in enumerate(order)}
    incident: list[list[int]] = [[] for _ in range(process.n)]
    for e, j in edge_id.items():
        incident[e[0]].append(j)
        incident[e[1]].append(j)
    rows = []
    for t in range(process.n):
        ids = sorted(incident[t])
        rows.append(((float(weights[t]),
                      0.0 if process.partite[t] == "L" else 1.0,
                      *([float(j) for j in ids] + [_PAD] * (process.delta - len(ids)))),
                     ids))
    return edge_id, rows


def encode_is(process: BipartiteNodeProcess):
    """Packing encoding of online bipartite max weight independent set.

    T = n periods, m = floor(Delta n / 2) unit budgets (one per potential
    edge), consumption in {0, 1} with iota = 1.  The observation at node t
    is (weight, partite flag, incident potential-edge ids padded to Delta),
    so partite membership is recoverable from the prefix.
    """
    n, delta = process.n, process.delta
    m = (delta * n) // 2
    scenarios = []
    for prob, edges, weights in process.scenarios:
        _check_graph(n, delta, process.partite, edges, weights)
        _, rows = _is_rows(process, edges, weights)
        periods = [(obs, float(weights[t]), tuple((j, 1.0) for j in ids))
                   for t, (obs, ids) in enumerate(rows)]
        scenarios.append((prob, periods))
    tree = _mixture_tree(T=n, m=m, L=delta, iota=1.0,
                         b=tuple(1.0 for _ in range(m)), scenarios=scenarios)

    def partite_of(prefix: Prefix) -> str:
        if len(prefix) == 0:
            raise SupportError("partite lookup needs a nonempty prefix")
        return "L" if prefix.last[1] == 0.0 else "R"

    return tree.instance, dataclasses.replace(
        tree_as_simulator(tree), partite_of=partite_of)


@dataclass(frozen=True)
class EdgeArrivalProcess:
    """Edge-arrival process for online maximum weight bipartite matching.

    Each scenario lists the realized edges in arrival order as (u, v,
    weight) triples over nodes 0..n-1; unrealized trailing periods are
    implicit.  Nodes are the resources.
    """

    n: int
    delta: int
    scenarios: tuple[tuple[float, tuple[tuple[int, int, float], ...]], ...]

    def __post_init__(self):
        if abs(sum(p for p, _ in self.scenarios) - 1.0) > 1e-9:
            raise InstanceError("scenario probabilities must sum to 1")


def encode_mwm(process: EdgeArrivalProcess):
    """Packing encoding of online maximum weight bipartite matching.

    T = floor(Delta n / 2) periods (one potential edge each), m = n unit
    node budgets; a realized edge consumes its two endpoint resources, and
    an unrealized period consumes nothing and pays nothing.
    """
    n, delta = process.n, process.delta
    T = (delta * n) // 2
    scenarios = []
    for prob, edges in process.scenarios:
        if len(edges) > T:
            raise InstanceError("more realized edges than floor(Delta n / 2)")
        _check_graph(n, delta, None, [(u, v) for u, v, _ in edges],
                     [w for _, _, w in edges])
        periods = []
        for u, v, w in edges:
            lo, hi = (u, v) if u < v else (v, u)
            obs = (1.0, float(lo), float(hi), float(w))
            periods.append((obs, float(w), ((lo, 1.0), (hi, 1.0))))
        for _ in range(len(edges), T):
            periods.append(((0.0, _PAD, _PAD, 0.0), 0.0, ()))
        scenarios.append((prob, periods))
    tree = _mixture_tree(T=T, m=n, L=2, iota=1.0,
                         b=tuple(1.0 for _ in range(n)), scenarios=scenarios)
    return tree.instance, tree_as_simulator(tree)


@dataclass(frozen=True)
class OnlineNodeProcess:
    """Online-node arrival process for maximum cardinality matching.

    Offline nodes 0..n_offline-1 are present at time zero; online nodes
    arrive in index order, each revealing all of its incident offline
    neighbors at once.  A scenario gives each online node's neighbor tuple.
    """

    n_offline: int
    n_online: int
    delta: int
    scenarios: tuple[tuple[float, tuple[tuple[int, ...], ...]], ...]

    def __post_init__(self):
        if abs(sum(p for p, _ in self.scenarios) - 1.0) > 1e-9:
            raise InstanceError("scenario probabilities must sum to 1")


def encode_mmo(process: OnlineNodeProcess):
    """Matching encoding of online-node bipartite matching with blocks.

    Edges incident to one online node occupy consecutive periods; the
    observation of every period in a block carries the whole block (start
    offset, length, all offline endpoints), so the block content is
    measurable at the block's first period.  The handle's ``block_lookup``
    returns (t1, t2, offline ids, prefixes of every block period): a block
    is revealed at its start, so the tree is a single-child chain through
    it, and the prefixes are the heads of ``sim.fixed_head(prefix, t2)``.
    """
    n_off, n_on, delta = process.n_offline, process.n_online, process.delta
    n = n_off + n_on
    T = (delta * n) // 2
    scenarios = []
    for prob, neighbor_lists in process.scenarios:
        if len(neighbor_lists) != n_on:
            raise InstanceError("each online node needs a neighbor tuple")
        edges = []
        for o, nbrs in enumerate(neighbor_lists):
            if len(nbrs) > delta or len(set(nbrs)) != len(nbrs):
                raise InstanceError("online node degree bound violated")
            for v in nbrs:
                if not 0 <= v < n_off:
                    raise InstanceError(f"offline id {v} out of range")
                edges.append((v, n_off + o))
        _check_graph(n, delta, None, edges, None)
        periods = []
        for o, nbrs in enumerate(neighbor_lists):
            nbrs = tuple(sorted(nbrs))
            deg = len(nbrs)
            for j, v in enumerate(nbrs):
                obs = (1.0, float(o), float(v), float(j), float(deg),
                       *([float(x) for x in nbrs] + [_PAD] * (delta - deg)))
                a = ((v, 1.0), (n_off + o, 1.0))
                periods.append((obs, 1.0, a))
        for _ in range(len(periods), T):
            periods.append(((0.0, _PAD, _PAD, _PAD, 0.0,
                             *([_PAD] * delta)), 0.0, ()))
        scenarios.append((prob, periods))
    tree = _mixture_tree(T=T, m=n, L=2, iota=1.0,
                         b=tuple(1.0 for _ in range(n)), scenarios=scenarios)
    sim = tree_as_simulator(tree)

    def block_lookup(prefix: Prefix):
        t = len(prefix)
        obs = prefix.last
        if obs[0] != 1.0:
            raise SupportError("block lookup on an unrealized period")
        j = int(obs[3])
        deg = int(obs[4])
        t1 = t - j
        t2 = t1 + deg - 1
        offline = tuple(int(x) for x in obs[5:5 + deg])
        if t2 > T:
            raise InstanceError("block extends past the horizon")
        cut = sim.fixed_head(prefix, t2)
        if cut is None:
            raise InstanceError("block continuation is not deterministic")
        return t1, t2, offline, tuple(map(cut.head, range(t1, t2 + 1)))

    return tree.instance, dataclasses.replace(sim, block_lookup=block_lookup)


def _normalized_probs(gen, count):
    raw = gen.random(count) + 0.1
    return [float(p) for p in raw / raw.sum()]


def random_is_process(seed: int, n: int, delta: int,
                      n_scenarios: int = 3) -> BipartiteNodeProcess:
    """Random mixture of bipartite graphs for the independent-set encoding."""
    gen = keys.generator(seed, "is-process")
    partite = tuple("L" if gen.random() < 0.5 else "R" for _ in range(n))
    if "L" not in partite or "R" not in partite:
        partite = tuple("L" if j % 2 == 0 else "R" for j in range(n))
    probs = _normalized_probs(gen, n_scenarios)
    candidates = [(u, v) for u in range(n) for v in range(u + 1, n)
                  if partite[u] != partite[v]]
    scenarios = []
    for p in probs:
        degree = [0] * n
        edges = []
        for idx in gen.permutation(len(candidates)):
            u, v = candidates[idx]
            if degree[u] < delta and degree[v] < delta and gen.random() < 0.6:
                edges.append((u, v))
                degree[u] += 1
                degree[v] += 1
        weights = tuple(float(w) for w in gen.random(n))
        scenarios.append((p, tuple(edges), weights))
    return BipartiteNodeProcess(n=n, delta=delta, partite=partite,
                                scenarios=tuple(scenarios))


def random_mwm_process(seed: int, n: int, delta: int,
                       n_scenarios: int = 3) -> EdgeArrivalProcess:
    """Random mixture of edge-arrival sequences for the matching encoding."""
    gen = keys.generator(seed, "mwm-process")
    probs = _normalized_probs(gen, n_scenarios)
    candidates = [(u, v) for u in range(n) for v in range(u + 1, n)]
    scenarios = []
    for p in probs:
        degree = [0] * n
        edges = []
        for idx in gen.permutation(len(candidates)):
            u, v = candidates[idx]
            if degree[u] < delta and degree[v] < delta and gen.random() < 0.5:
                edges.append((u, v, float(gen.random())))
                degree[u] += 1
                degree[v] += 1
        scenarios.append((p, tuple(edges)))
    return EdgeArrivalProcess(n=n, delta=delta, scenarios=tuple(scenarios))


def random_mmo_process(seed: int, n_offline: int, n_online: int, delta: int,
                       n_scenarios: int = 3) -> OnlineNodeProcess:
    """Random mixture of online-node neighbor structures."""
    gen = keys.generator(seed, "mmo-process")
    probs = _normalized_probs(gen, n_scenarios)
    scenarios = []
    for p in probs:
        offline_degree = [0] * n_offline
        neighbor_lists = []
        for _ in range(n_online):
            avail = [v for v in range(n_offline) if offline_degree[v] < delta]
            deg = int(gen.integers(0, min(delta, len(avail)) + 1)) if avail else 0
            nbrs = sorted(int(v) for v in gen.choice(avail, size=deg,
                                                     replace=False)) if deg else []
            for v in nbrs:
                offline_degree[v] += 1
            neighbor_lists.append(tuple(nbrs))
        scenarios.append((p, tuple(neighbor_lists)))
    return OnlineNodeProcess(n_offline=n_offline, n_online=n_online,
                             delta=delta, scenarios=tuple(scenarios))


_BUILDERS = {
    "is": lambda p: encode_is(random_is_process(p["seed"], p["n"], p["delta"],
                                                p.get("n_scenarios", 3))),
    "mwm": lambda p: encode_mwm(random_mwm_process(p["seed"], p["n"], p["delta"],
                                                   p.get("n_scenarios", 3))),
    "mmo": lambda p: encode_mmo(random_mmo_process(p["seed"], p["n_offline"],
                                                   p["n_online"], p["delta"],
                                                   p.get("n_scenarios", 3))),
}


def build_encoded(encoding: dict) -> SimulatorHandle:
    """The simulator of an encoded instance file's ``encoding`` record.

    The record names the family ("is", "mwm" or "mmo") and the parameters
    of its random process generator; the handle carries the explicit tree.
    The sizes the record implies (T, m and the periods of all scenarios)
    are checked against the instance size cap before anything is built.
    """
    family = encoding.get("family")
    builder = _BUILDERS.get(family)
    if builder is None:
        raise InstanceError(f"unknown encoding family {family!r}")
    if family == "mmo":
        n_off, n_on = encoding["n_offline"], encoding["n_online"]
        _check_sizes({"n_offline": n_off, "n_online": n_on})
        n = n_off + n_on
    else:
        n = encoding["n"]
    edges = (encoding["delta"] * n) // 2  # is: m; mwm and mmo: T
    T, m = (n, edges) if family == "is" else (edges, n)
    _check_sizes({"T": T, "m": m, "n_scenarios x T":
                  encoding.get("n_scenarios", 3) * max(T, 1)})
    _, sim = builder(encoding)
    return sim


def is_traditional_reveal_ok(process: BipartiteNodeProcess) -> bool:
    """Check the stronger reveal-partners measurability restriction.

    In the traditional independent-set model the identities of an edge's
    endpoints are revealed when its first endpoint arrives.  In this
    encoding that amounts to: any two scenarios agreeing on the prefix up to
    an edge's first-endpoint time must place that edge's second endpoint at
    the same node.  There is no canonical way to embed the partner identity
    in the observation itself, so this is exposed as a validation predicate
    rather than an alternative encoding.
    """
    per_scenario = []
    for _, edges, weights in process.scenarios:
        edge_id, rows = _is_rows(process, edges, weights)
        first = {j: min(e) for e, j in edge_id.items()}
        second = {j: max(e) for e, j in edge_id.items()}
        per_scenario.append((tuple(obs for obs, _ in rows), first, second))
    for rows_a, first_a, second_a in per_scenario:
        for rows_b, first_b, second_b in per_scenario:
            for j, tau in first_a.items():
                if rows_a[: tau + 1] != rows_b[: tau + 1]:
                    continue
                if j in first_b and first_b[j] == tau and \
                        second_b[j] != second_a[j]:
                    return False
    return True
