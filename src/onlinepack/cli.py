"""Experiment runner: instance generation, policy runs, oracle comparisons.

Subcommands: ``gen`` writes an instance file, ``params`` prints the theory
parameter schedule, ``run`` scores a policy on an instance and writes a CSV
row, ``verify`` compares a policy against the exact oracles and gates on
the optimality gap and the feasibility audit.  Exit codes: 0 success, 2
configuration error, 3 gap failure, 4 feasibility-audit failure.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from . import keys
from .engine import MemoTable, SolverConfig, theory_params, theta_default
from .errors import (ConfigError, FeasibilityAuditError, OnlinePackError)
from .model import (SCHEMA_VERSION, LoadedInstance, demo_tree,
                    derive_structure_constants, generate_nrm,
                    generative_payload, load_instance, load_instance_payload,
                    save_instance, tree_to_payload)
from .oracle import (eval_policy_mc, reports_to_csv, solve_lp_explicit,
                     solve_pack_dp, solve_pen_lp)
from .policies import (mwm_scaled_epsilon, new_episode_context, policy_is,
                       policy_lp, policy_mmo_greedy, policy_nrm)

# the keys an experiment config may hold; any other is refused, not ignored
_RUN_KEYS = ("schema_version", "instance", "policy", "solver", "n_episodes",
             "out")
# policy name -> decision function, one name each (verify's mwmlp is lp)
_POLICIES = {"lp": policy_lp, "nrm": policy_nrm, "is": policy_is,
             "mmo-greedy": policy_mmo_greedy}


def _load(path: str) -> LoadedInstance:
    try:
        return load_instance(path)
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read instance {path}: {exc}") from exc
    except OnlinePackError as exc:
        raise ConfigError(str(exc)) from exc


def _check_writable(path: str) -> None:
    """Refuse an output file that cannot be written, without creating it."""
    parent = os.path.dirname(path) or "."
    if os.path.isdir(path) or not os.path.isdir(parent) or not os.access(
            path if os.path.exists(path) else parent, os.W_OK):
        raise ConfigError(f"cannot write {path}: not a writable file path")


def _verify_solver(loaded: LoadedInstance, args,
                   epsilon: float) -> SolverConfig:
    """``verify``'s solver config on an explicit tree; epsilon sets theta's
    default."""
    inst = loaded.sim.instance
    V = derive_structure_constants(loaded.sim.tree).V
    theta = args.theta if args.theta is not None else \
        theta_default(epsilon, inst.T, inst.iota, V)
    eta2 = args.eta2 if args.eta2 is not None else inst.T
    return SolverConfig(
        epsilon=epsilon, theta=theta, alpha=args.alpha, K=args.K,
        eta1=args.eta1, eta2=eta2, master_seed=args.seed,
        momentum=args.momentum)


def _policy_factory(name: str, loaded: LoadedInstance, config: SolverConfig,
                    trace_sink=None):
    """Per-episode decision callables for the named policy.

    Every policy takes its fractional values from the streaming recursion.
    On explicit instances all episodes share one ``MemoTable``: its entries
    are pure in (master seed, prefix, level), so the table stays within
    nodes x K and each decision is computed once per run.  Generative
    instances, whose support is unbounded, get a fresh table per episode.
    ``trace_sink``, if given, is called with one JSON line per decision,
    built here from the context the policy leaves behind.
    """
    sim = loaded.sim
    memo = MemoTable(config) if sim.tree is not None else None
    policy_fn = _POLICIES[name]
    if name == "is" and sim.partite_of is None:
        raise ConfigError("policy 'is' needs an independent-set encoded instance")
    if name == "mmo-greedy" and sim.block_lookup is None:
        raise ConfigError("policy 'mmo-greedy' needs an online-node encoded instance")

    def factory(episode: int):
        ctx = new_episode_context(sim, config, episode, memo=memo)

        def decide(prefix):
            if trace_sink is None:
                return policy_fn(ctx, sim, prefix, config)
            before = ctx.memo.counters()
            value = policy_fn(ctx, sim, prefix, config)
            rec = {"t": len(prefix), "episode": episode,
                   "prefix_id": keys.key_digest(prefix.key).hex(),
                   "fractional": ctx.fractional, "decision": value,
                   "remaining": list(ctx.feas.remaining)}
            # the work this decision did, not the episode's running totals
            rec.update((name, count - before[name])
                       for name, count in ctx.memo.counters().items())
            trace_sink(json.dumps(rec, sort_keys=True) + "\n")
            return value

        return decide

    return factory


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------


def cmd_gen(args) -> int:
    if args.kind == "demo2":
        payload = tree_to_payload(demo_tree())
    elif args.kind == "nrm":
        if args.mode == "explicit":
            tree = generate_nrm(seed=args.seed, T=args.T, m=args.m, L=args.L,
                                iota=args.iota, budget_ratio=args.rho,
                                mode="explicit", n_events=args.events)
            payload = tree_to_payload(tree)
        else:
            payload = generative_payload("nrm", {
                "seed": args.seed, "T": args.T, "m": args.m, "L": args.L,
                "iota": args.iota, "budget_ratio": args.rho,
                "n_events": args.events,
            })
    elif args.kind in ("is", "mwm", "mmo"):
        encoding = {"family": args.kind, "seed": args.seed, "delta": args.delta}
        if args.kind == "mmo":
            encoding["n_offline"] = args.n_offline
            encoding["n_online"] = args.n_online
        else:
            encoding["n"] = args.n
        payload = {"schema_version": SCHEMA_VERSION, "kind": "encoded",
                   "encoding": encoding}
        load_instance_payload(payload)  # validate before writing
    else:
        raise ConfigError(f"unknown instance kind {args.kind!r}")
    save_instance(args.out, payload)
    print(f"wrote {args.out}")
    return 0


def cmd_params(args) -> int:
    rows = []
    modes = [args.mode] if args.mode != "both" else ["unaccelerated", "accelerated"]
    for mode in modes:
        bundle = theory_params(mode, args.epsilon, args.L, args.iota,
                               args.theta, args.T, U=args.U, W=args.W)
        rows.append({"mode": mode, "alpha": bundle.alpha, "K": bundle.K,
                     "eta1": bundle.eta1, "eta2": bundle.eta2})
    if args.json:
        print(json.dumps(rows, indent=1, sort_keys=True))
    else:
        print(f"{'mode':<14} {'alpha':<22} {'K':<12} {'eta1':<12} {'eta2':<12}")
        for r in rows:
            print(f"{r['mode']:<14} {r['alpha']:<22.12g} {r['K']:<12} "
                  f"{r['eta1']:<12} {r['eta2']:<12}")
    return 0


def cmd_run(args) -> int:
    try:
        with open(args.config, "r", encoding="utf-8") as fh:
            exp = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read config {args.config}: {exc}") from exc
    if not isinstance(exp, dict):
        raise ConfigError("experiment config must be a JSON object")
    unknown = sorted(set(exp) - set(_RUN_KEYS))
    if unknown:
        raise ConfigError(f"experiment config has unknown keys {unknown}; "
                          f"it takes only {', '.join(_RUN_KEYS)}")
    version = exp.get("schema_version", SCHEMA_VERSION)
    if type(version) is not int or version != SCHEMA_VERSION:
        raise ConfigError(f"experiment config schema_version {version!r} is "
                          f"not {SCHEMA_VERSION}")
    for key in ("instance", "policy", "solver"):
        if key not in exp:
            raise ConfigError(f"experiment config is missing {key!r}")
    for key, kind in (("instance", str), ("policy", str), ("solver", dict),
                      ("out", str)):
        if key in exp and not isinstance(exp[key], kind):
            raise ConfigError(f"experiment config {key} must be a "
                              f"{'string' if kind is str else 'JSON object'}, "
                              f"got {exp[key]!r}")
    if exp["policy"] == "mwmlp":
        raise ConfigError("policy 'mwmlp' is 'lp' under run; use 'lp' "
                          "(verify --policy mwmlp rescales its default theta)")
    if exp["policy"] not in _POLICIES:
        raise ConfigError(f"unknown policy {exp['policy']!r}")
    out = args.out or exp.get("out")
    for path in filter(None, (args.trace, out)):
        _check_writable(path)
    loaded = _load(exp["instance"])
    solver = dict(exp["solver"])
    if args.seed is not None:
        solver["master_seed"] = args.seed
    try:
        config = SolverConfig(**solver)
    except (TypeError, OnlinePackError) as exc:
        raise ConfigError(f"bad solver config: {exc}") from exc
    n_episodes = args.episodes if args.episodes is not None \
        else exp.get("n_episodes", 1000)
    seed = solver.get("master_seed", 0)
    trace_fh = None

    def write_trace(line: str) -> None:
        # opened at the first record, after every check that can refuse
        # the run, so a refused run neither creates nor truncates the file
        nonlocal trace_fh
        if trace_fh is None:
            trace_fh = open(args.trace, "w", encoding="utf-8")
        trace_fh.write(line)
    try:
        factory = _policy_factory(exp["policy"], loaded, config,
                                  write_trace if args.trace else None)
        report = eval_policy_mc(loaded.sim, factory, n_episodes, seed=seed)
    finally:
        if trace_fh is not None:
            trace_fh.close()
    row = {"instance": exp["instance"], "policy": exp["policy"], "seed": seed}
    row.update(report.csv_row())
    csv_text = reports_to_csv([row])
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(csv_text)
    print(csv_text, end="")
    return 0


def cmd_verify(args) -> int:
    loaded = _load(args.instance)
    tree = loaded.sim.tree
    if tree is None:
        raise ConfigError("verify needs an explicit (oracle-solvable) instance")
    policy, epsilon = args.policy, args.epsilon
    if policy == "mwmlp":
        # lp, its default theta at the matching encoding's rescaled epsilon
        encoding = loaded.payload.get("encoding", {})
        if loaded.payload.get("kind") != "encoded" or \
                encoding.get("family") not in ("mwm", "mmo"):
            raise ConfigError("policy 'mwmlp' needs a matching (mwm or mmo) "
                              "encoded instance")
        policy = "lp"
        epsilon = mwm_scaled_epsilon(epsilon, encoding["delta"])
    if policy not in _POLICIES:
        raise ConfigError(f"unknown policy {args.policy!r}")
    config = _verify_solver(loaded, args, epsilon)
    # built first: it refuses a policy unfit for the instance before any oracle
    factory = _policy_factory(policy, loaded, config)
    opt_lp, _ = solve_lp_explicit(tree)
    opt_pen = solve_pen_lp(tree)
    try:
        opt_pack = solve_pack_dp(tree).value
    except OnlinePackError:
        opt_pack = None
    report = eval_policy_mc(loaded.sim, factory, args.episodes,
                            seed=config.master_seed)
    gap = opt_lp - report.mean_reward
    budget = args.epsilon * tree.instance.T
    gated = args.policy != "mmo-greedy"
    ok = (not gated) or gap <= budget + 3 * report.std_error
    out = {
        "OPT_pack": opt_pack,
        "OPT_lp": opt_lp,
        "OPT_pen": opt_pen,
        "policy": args.policy,
        "policy_mean": report.mean_reward,
        "policy_std_error": report.std_error,
        "episodes": report.episodes,
        "gap": gap,
        "eps_T_budget": budget,
        "audit_ok": True,  # a failed audit exits with code 4 (see main)
        "violations": report.violation_count,
        "gate_applied": gated,
        "ok": bool(ok),
    }
    print(json.dumps(out, indent=1, sort_keys=True))
    return 0 if ok else 3


# ---------------------------------------------------------------------------
# Argument parsing
# ---------------------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="onlinepack",
        description="Online stochastic packing: policies, oracles, benchmarks")
    sub = parser.add_subparsers(dest="command", required=True)

    g = sub.add_parser("gen", help="generate an instance file")
    g.add_argument("--kind", required=True,
                   choices=("nrm", "demo2", "is", "mwm", "mmo"))
    g.add_argument("--seed", type=int, default=0)
    g.add_argument("--T", type=int, default=4)
    g.add_argument("--m", type=int, default=3)
    g.add_argument("--L", type=int, default=2)
    g.add_argument("--iota", type=float, default=0.25)
    g.add_argument("--rho", type=float, default=0.5)
    g.add_argument("--events", type=int, default=3)
    g.add_argument("--mode", choices=("explicit", "generative"),
                   default="explicit")
    g.add_argument("--n", type=int, default=4)
    g.add_argument("--delta", type=int, default=2)
    g.add_argument("--n-offline", dest="n_offline", type=int, default=3)
    g.add_argument("--n-online", dest="n_online", type=int, default=2)
    g.add_argument("--out", required=True)
    g.set_defaults(func=cmd_gen)

    p = sub.add_parser("params", help="theory parameter schedule")
    p.add_argument("--mode", choices=("unaccelerated", "accelerated", "both"),
                   default="both")
    p.add_argument("--epsilon", type=float, required=True)
    p.add_argument("--L", type=int, required=True)
    p.add_argument("--iota", type=float, required=True)
    p.add_argument("--theta", type=float, required=True)
    p.add_argument("--T", type=int, required=True)
    p.add_argument("--U", type=int)
    p.add_argument("--W", type=int)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_params)

    r = sub.add_parser("run", help="score a policy on an instance")
    r.add_argument("--config", required=True)
    r.add_argument("--seed", type=int)
    r.add_argument("--episodes", type=int)
    r.add_argument("--out")
    r.add_argument("--trace")
    r.set_defaults(func=cmd_run)

    v = sub.add_parser("verify", help="oracle-vs-policy gap report")
    v.add_argument("--instance", required=True)
    v.add_argument("--policy", default="lp")
    v.add_argument("--epsilon", type=float, default=0.1)
    v.add_argument("--episodes", type=int, default=10_000)
    v.add_argument("--seed", type=int, default=0)
    v.add_argument("--K", type=int, default=200)
    v.add_argument("--eta1", type=int, default=64)
    v.add_argument("--eta2", type=int)
    v.add_argument("--alpha", type=float, default=0.1)
    v.add_argument("--theta", type=float)
    v.add_argument("--momentum", choices=("unaccelerated", "accelerated"),
                   default="unaccelerated")
    v.set_defaults(func=cmd_verify)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except FeasibilityAuditError as exc:
        print(f"feasibility audit failed: {exc}", file=sys.stderr)
        return 4
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except OnlinePackError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
