"""Workload definitions, the closed-loop decision runner and its checks.

A workload is a fixed instance, a policy and solver parameters, including
the solver's master seed.  ``--seed`` generates the inputs: the episodes
the policy faces.  One *round* scores ``episodes`` episodes through the
public streaming surface (``new_episode_context`` and one ``policy_*`` call
per period, driven by ``eval_policy_mc``); round r draws its episodes with
the seed ``1000 * seed + r``.  Each decision waits for the previous one and is
timed from outside; simulator calls are counted by wrapping the
``complete`` field of the handle passed in.  A run plays rounds until its
time is spent.  Counts come from the first ``COUNT_ROUNDS`` rounds, which
every run plays, so they repeat exactly for a seed.
"""

from __future__ import annotations

import csv
import dataclasses
import gc
import io
import json
import math
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import checks

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = Path(__file__).resolve().parent / "out"
CHILD_TIMEOUT_S = 150
COUNT_ROUNDS = 3
SOLVER_SEED = 1
CLI_EPISODES = 10


def _gen_nrm_long(op):
    sim = op.generate_nrm(seed=7, T=60, m=3, L=2, iota=0.3, budget_ratio=0.5,
                          mode="generative", n_events=4)
    return sim, None


def _tree_nrm_oracle(op):
    tree = op.generate_nrm(seed=7, T=7, m=3, L=2, iota=0.3, budget_ratio=0.5,
                           mode="explicit", n_events=3)
    return op.tree_as_simulator(tree), tree


def _is_encoded(op):
    from onlinepack.encodings import encode_is, random_is_process
    _, sim = encode_is(random_is_process(3, n=12, delta=3, n_scenarios=30))
    return sim, sim.tree


@dataclass(frozen=True)
class Workload:
    name: str
    build: Callable  # onlinepack module -> (simulator handle, explicit tree or None)
    policy: str
    integral: bool
    episodes: int    # per round
    K: int
    eta1: int
    eta2: int | None  # None means eta2 = T (no period subsampling)
    oracles: bool
    encodes: bool = False
    epsilon: float = 0.1
    alpha: float = 0.1


# Episode costs vary a lot with the trajectory, so a round holds enough
# episodes (a few seconds on a 2-CPU machine) that the counted rounds
# average over 40 or more of them.
WORKLOADS = {
    "gen-nrm-long": Workload("gen-nrm-long", _gen_nrm_long, "policy_nrm",
                             integral=True, episodes=14, K=3, eta1=2, eta2=2,
                             oracles=False),
    "tree-nrm-oracle": Workload("tree-nrm-oracle", _tree_nrm_oracle, "policy_lp",
                                integral=False, episodes=100, K=10, eta1=3,
                                eta2=3, oracles=True),
    "is-encoded": Workload("is-encoded", _is_encoded, "policy_is",
                           integral=True, episodes=100, K=10, eta1=4, eta2=None,
                           oracles=True, encodes=True),
}


# ---------------------------------------------------------------------------
# Set-up
# ---------------------------------------------------------------------------


@dataclass
class Setup:
    sim: object
    tree: object
    solver: dict
    timings: dict
    oracle: dict


def setup(op, w: Workload, with_oracles: bool) -> Setup:
    """Build the instance and solver config; solve the oracles if asked."""
    clock = time.perf_counter
    timings = {}
    t0 = clock()
    sim, tree = w.build(op)
    timings["encode_s" if w.encodes else "instance_s"] = clock() - t0
    inst = sim.instance
    V = op.derive_structure_constants(tree).V if tree is not None \
        else inst.v_or_default()
    solver = {"epsilon": w.epsilon,
              "theta": op.theta_default(w.epsilon, inst.T, inst.iota, V),
              "alpha": w.alpha, "K": w.K, "eta1": w.eta1,
              "eta2": w.eta2 if w.eta2 is not None else inst.T,
              "master_seed": SOLVER_SEED, "practical_override": True}
    op.SolverConfig(**solver)  # validated here, as part of set-up
    oracle = {}
    if with_oracles and w.oracles:
        t0 = clock()
        oracle["opt_lp"], _ = op.solve_lp_explicit(tree)
        t1 = clock()
        oracle["opt_pen"] = op.solve_pen_lp(tree)
        t2 = clock()
        pack = op.solve_pack_dp(tree)
        t3 = clock()
        oracle["opt_pack"] = pack.value
        oracle["dp_states"] = len(pack.policy)
        timings.update(lp_s=t1 - t0, pen_lp_s=t2 - t1, dp_s=t3 - t2)
    return Setup(sim, tree, solver, timings, oracle)


# ---------------------------------------------------------------------------
# Decision rounds
# ---------------------------------------------------------------------------


@dataclass
class Round:
    elapsed_s: float
    latencies: list
    calls: list           # simulator calls made inside each decision
    decisions: list
    trajectories: list   # one full-horizon prefix per episode
    sim_calls: int        # every complete() call, episode draws included
    memo_writes: int
    mean_reward: float
    std_error: float


class Loop:
    """Scores one workload round after round through the public surface."""

    def __init__(self, op, w: Workload, s: Setup, seed: int):
        self.op, self.w, self.seed = op, w, seed
        self.tracer = None
        self.config = op.SolverConfig(**s.solver)
        self.T = s.sim.instance.T
        self.calls = 0
        raw_complete = s.sim.complete

        def complete(prefix, key):
            self.calls += 1
            return raw_complete(prefix, key)
        self.sim = dataclasses.replace(s.sim, complete=complete)

    def trace(self, tracer) -> None:
        """Record spans in every later round."""
        self.tracer = tracer
        self.sim = tracer.wrap_handle(self.sim)
        tracer.install()

    def episode_seed(self, r: int) -> int:
        """Seed of round r's episodes."""
        return self.seed * 1000 + r

    def run_round(self, episode_seed: int, episodes: int | None = None) -> Round:
        op, sim, config, T, tracer = self.op, self.sim, self.config, self.T, self.tracer
        policy = getattr(op.policies, self.w.policy)
        new_context = op.policies.new_episode_context
        clock = time.perf_counter
        latencies, calls, decisions, trajectories = [], [], [], []
        writes = [0]

        def factory(episode):
            if tracer is not None:
                tracer.begin_episode()
            ctx = new_context(sim, config, episode)

            def decide(prefix):
                c0 = self.calls
                t0 = clock()
                x = policy(ctx, sim, prefix, config)
                latencies.append(clock() - t0)
                calls.append(self.calls - c0)
                decisions.append(x)
                if len(prefix) == T:
                    trajectories.append(prefix)
                    writes[0] += ctx.memo.writes
                return x
            return decide

        if tracer is not None:
            tracer.begin_round()
        gc.collect()
        calls_before = self.calls
        t0 = clock()
        report = op.oracle.eval_policy_mc(sim, factory, episodes or self.w.episodes,
                                          seed=episode_seed)
        elapsed = clock() - t0
        return Round(elapsed, latencies, calls, decisions, trajectories,
                     self.calls - calls_before, writes[0],
                     report.mean_reward, report.std_error)


def run_rounds(loop: Loop, seconds: float) -> list[Round]:
    """Rounds until ``seconds`` would be exceeded, and at least COUNT_ROUNDS."""
    rounds: list[Round] = []
    spent = 0.0
    while len(rounds) < COUNT_ROUNDS or \
            spent + statistics.median(r.elapsed_s for r in rounds) <= seconds:
        rounds.append(loop.run_round(loop.episode_seed(len(rounds))))
        spent += rounds[-1].elapsed_s
    return rounds


# ---------------------------------------------------------------------------
# Checks (run after the timed phase)
# ---------------------------------------------------------------------------


def check(loop: Loop, s: Setup, rounds: list[Round], oracle: dict):
    """Return (failed operations, problems found).

    A decision out of range, or in an episode that breaks a budget or the
    independent-set property, is a failed decision; every failed
    workload-level check counts as one more failed operation.
    """
    w, T = loop.w, loop.T
    failed = 0
    problems = []
    readout = s.sim.readout
    b = s.sim.instance.b
    for r in rounds:
        bad = sum(checks.decision_out_of_range(x, w.integral) for x in r.decisions)
        if bad:
            problems.append(f"{bad} decisions outside the policy's range")
        failed += bad
        for e, traj in enumerate(r.trajectories):
            xs = r.decisions[e * T:(e + 1) * T]
            ro = readout(traj)
            over = checks.budget_excess([ro.rcv(t) for t in range(1, T + 1)], xs, b)
            clash = w.name == "is-encoded" and checks.is_conflicts(traj.obs, xs)
            if over:
                problems.append(f"an episode overdraws resources {over}")
            if clash:
                problems.append(f"an episode accepts both ends of edges {clash}")
            if over or clash:
                failed += T
    decision_problems, problems = problems, []
    first = rounds[0]
    bound = checks.recursion_call_bound(loop.config.K, loop.config.eta1,
                                        loop.config.eta2)
    most = max(c for r in rounds for c in r.calls)
    if most > bound:
        problems.append(f"a decision made {most} simulator calls, above the "
                        f"recursion bound {bound}")
    if w.name == "gen-nrm-long":
        if replay_episode(loop, first.trajectories[0]) != first.decisions[:T]:
            problems.append("episode 0 replayed in a fresh context differs")
    if w.oracles:
        lp, pen, pack = oracle["opt_lp"], oracle["opt_pen"], oracle["opt_pack"]
        tol = 1e-7 * max(1.0, abs(pen))
        if not (pack <= lp + tol and lp <= pen + tol):
            problems.append(f"oracle order broken: pack {pack}, lp {lp}, pen {pen}")
        ref = lp if w.name == "tree-nrm-oracle" else pack
        mean = statistics.fmean(r.mean_reward for r in rounds)
        se = math.sqrt(sum(r.std_error ** 2 for r in rounds)) / len(rounds)
        if mean > ref + 3 * se:
            problems.append(f"policy mean {mean} above oracle {ref} + 3 se ({se})")
    if w.name == "tree-nrm-oracle":
        # the CLI draws its episodes from the master seed, so the library
        # side of this comparison is its own untimed round
        lib = loop.run_round(SOLVER_SEED, CLI_EPISODES)
        cli = cli_mean_reward(loop, s, CLI_EPISODES)
        if cli != repr(lib.mean_reward):
            problems.append(f"onlinepack run mean_reward {cli} differs from "
                            f"the library's {lib.mean_reward!r}")
    return failed + len(problems), decision_problems + problems


def replay_episode(loop: Loop, trajectory) -> list:
    op = loop.op
    policy = getattr(op.policies, loop.w.policy)
    ctx = op.policies.new_episode_context(loop.sim, loop.config, 0)
    return [policy(ctx, loop.sim, trajectory.head(t), loop.config)
            for t in range(1, loop.T + 1)]


def cli_mean_reward(loop: Loop, s: Setup, episodes: int) -> str:
    """``mean_reward`` as printed by ``onlinepack run`` on the same config."""
    op = loop.op
    work = OUT_DIR / f"cli-{loop.w.name}-{loop.seed}"
    work.mkdir(parents=True, exist_ok=True)
    instance = work / "instance.json"
    op.model.save_instance(instance, op.model.tree_to_payload(s.tree))
    config = work / "config.json"
    config.write_text(json.dumps({
        "schema_version": 1, "instance": str(instance), "policy": "lp",
        "solver": s.solver, "n_episodes": episodes}))
    proc = subprocess.run(
        [sys.executable, "-m", "onlinepack.cli", "run", "--config", str(config)],
        cwd=ROOT, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S,
        check=True)
    return next(csv.DictReader(io.StringIO(proc.stdout)))["mean_reward"]


# ---------------------------------------------------------------------------
# Child process entry points
# ---------------------------------------------------------------------------


def import_onlinepack():
    """Import the package from the checkout's ``src``; returns (module, seconds)."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    t0 = time.perf_counter()
    import onlinepack
    import onlinepack.encodings  # noqa: F401  (not re-exported by the package)
    elapsed = time.perf_counter() - t0
    if not Path(onlinepack.__file__).resolve().is_relative_to(src.resolve()):
        raise RuntimeError(f"onlinepack imported from {onlinepack.__file__}, not {src}")
    return onlinepack, elapsed


def setup_child(w: Workload) -> dict:
    op, import_s = import_onlinepack()
    s = setup(op, w, with_oracles=True)
    ready = time.monotonic()
    return {"ready": ready, "import_s": import_s, **s.timings, **s.oracle}


def decide_child(w: Workload, seed: int, seconds: float, trace: bool,
                 oracle: dict) -> dict:
    op, _ = import_onlinepack()
    s = setup(op, w, with_oracles=False)
    loop = Loop(op, w, s, seed)
    rounds = run_rounds(loop, seconds / 2 if trace else seconds)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    counted = rounds[:COUNT_ROUNDS]
    n_counted = sum(len(r.decisions) for r in counted)
    latencies = [x for r in rounds for x in r.latencies]
    out = {"rounds": [r.elapsed_s for r in rounds], "count_rounds": COUNT_ROUNDS,
           "decisions_per_round": len(rounds[0].decisions),
           "decision_p50_ms": checks.percentile(latencies, 50) * 1e3,
           "decision_p95_ms": checks.tail_percentile(latencies, 95) * 1e3,
           "sim_calls_per_decision": sum(r.sim_calls for r in counted) / n_counted,
           "memo_writes_per_decision":
               sum(r.memo_writes for r in counted) / n_counted,
           "max_calls_per_decision": max(c for r in rounds for c in r.calls),
           "peak_rss_mb": peak_rss_mb}
    problems = []
    if trace:
        # replay a warm round with spans on and compare it with its untraced run
        from spans import Tracer
        again = min(1, len(rounds) - 1)
        tracer = Tracer()
        loop.trace(tracer)
        traced = loop.run_round(loop.episode_seed(again))
        tracer.uninstall()
        n = len(traced.decisions)
        layer = tracer.decision_metrics(n)
        layer["engine.memo_writes_per_decision"] = (traced.memo_writes / n, "count")
        layer["trace.overhead_pct"] = \
            (100.0 * (traced.elapsed_s / rounds[again].elapsed_s - 1.0), "%")
        if traced.decisions != rounds[again].decisions:
            problems.append("the traced replay decided differently")
        rounds.append(traced)
        out.update(layer=layer, skipped=tracer.skipped_metrics(),
                   spans=tracer.summary())
    failed, found = check(loop, s, rounds, oracle)
    out.update(problems=problems + found, failed=failed + len(problems),
               attempted=sum(len(r.decisions) for r in rounds))
    return out
