"""Statistics and correctness properties used by the benchmark.

Everything here is a pure function of plain Python values, so the tests can
plant violations without building an instance.  Nothing imports
``onlinepack``: the checks are independent of the code they judge.
"""

from __future__ import annotations

import math
from typing import Sequence

BUDGET_TOL = 1e-9
# A percentile is reported only when at least this many samples lie beyond it.
MIN_BEYOND = 20


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank q-th percentile (0 < q <= 100) of a non-empty sample."""
    if not values:
        raise ValueError("percentile of an empty sample")
    if not 0 < q <= 100:
        raise ValueError(f"percentile {q} outside (0, 100]")
    ordered = sorted(values)
    rank = max(1, math.ceil(q / 100 * len(ordered)))
    return ordered[rank - 1]


def samples_beyond(n: int, q: float) -> int:
    """Number of samples strictly above the nearest-rank q-th percentile rank."""
    return n - max(1, math.ceil(q / 100 * n))


def tail_percentile(values: Sequence[float], q: float,
                    min_beyond: int = MIN_BEYOND) -> float:
    """The q-th percentile, refused when fewer than ``min_beyond`` samples lie
    beyond it (such a percentile would describe a handful of decisions)."""
    beyond = samples_beyond(len(values), q)
    if beyond < min_beyond:
        raise ValueError(f"p{q:g} of {len(values)} samples has only {beyond} "
                         f"beyond it; need {min_beyond}")
    return percentile(values, q)


def decision_out_of_range(x: float, integral: bool) -> bool:
    """True unless x is in {0, 1} (integral policies) or [0, 1] (fractional)."""
    if integral:
        return x not in (0, 1)
    return not 0.0 <= x <= 1.0


def budget_excess(rcvs: Sequence[Sequence[tuple[int, float]]],
                  decisions: Sequence[float],
                  budgets: Sequence[float]) -> list[tuple[int, float]]:
    """Resources whose re-summed consumption exceeds the budget by > 1e-9.

    ``rcvs[t]`` is the sparse consumption vector of period t+1 as (resource,
    value) pairs and ``decisions[t]`` the decision taken there.  Returns
    (resource, excess) pairs, empty when every budget holds.
    """
    if len(rcvs) != len(decisions):
        raise ValueError("one consumption vector per decision is required")
    used = [0.0] * len(budgets)
    for pairs, x in zip(rcvs, decisions):
        for i, v in pairs:
            used[i] += v * x
    return [(i, used[i] - b) for i, b in enumerate(budgets)
            if used[i] - b > BUDGET_TOL]


def is_conflicts(observations: Sequence[Sequence[float]],
                 decisions: Sequence[float]) -> list[int]:
    """Edge ids shared by two accepted nodes of an independent-set episode.

    Each observation row is (weight, partite flag, incident edge ids, padded
    with negative values); an edge id listed by two accepted nodes means
    both endpoints of a realized edge were accepted.
    """
    owner: dict[int, int] = {}
    clashes = []
    for t, (row, x) in enumerate(zip(observations, decisions)):
        if x != 1:
            continue
        for e in row[2:]:
            if e < 0:
                continue
            e = int(e)
            if e in owner:
                clashes.append(e)
            else:
                owner[e] = t
    return clashes


def recursion_call_bound(K: int, eta1: int, eta2: int) -> int:
    """Simulator calls one decision can make under the paper's recursion count.

    Computing X^K(S) expands entries (S', k) whose dependencies are (S', k-1)
    plus level-(k-1) values at up to eta2 periods of each of eta1
    completions, so level K-j holds at most (eta1 eta2 + 1)^j entries.  Each
    entry draws its eta1 completions once, which bounds the calls by
    eta1 * sum_{j<K} (eta1 eta2 + 1)^j, independent of T and of the process.
    """
    fan = eta1 * eta2 + 1
    return eta1 * sum(fan ** j for j in range(K))
