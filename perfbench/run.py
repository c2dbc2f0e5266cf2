"""Benchmark of onlinepack's online decision path.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  The launcher starts every measurement in
a fresh interpreter with fixed single-thread settings: ``SETUP_REPEATS``
set-up probes (import, instance, oracle solves) give the median set-up
time, then one decision process plays rounds of episodes for ``--seconds``
seconds and checks its outputs afterwards.  With ``--trace 1`` the decision
process plays untraced rounds for half the time (at least the counted
rounds), then replays one round with spans on for the per-layer metrics.
The last line of standard output is one JSON object; the full record goes
to ``perfbench/out/``.  The exit code is 0 only when every check passed.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_REPEATS = 3
RUN_LIMIT_S = 170
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
SETUP_LAYERS = {"onlinepack.import_s": "import_s", "encodings.encode_s": "encode_s",
                "oracle.lp_s": "lp_s", "oracle.pen_lp_s": "pen_lp_s",
                "oracle.dp_s": "dp_s"}


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONHASHSEED"] = "0"
    for var in THREAD_VARS:
        env[var] = "1"
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    return env


def run_child(args: list[str], deadline: float) -> dict:
    """Run this script in a fresh interpreter; its last stdout line is JSON."""
    proc = subprocess.run([sys.executable, str(Path(__file__).resolve()), *args],
                          cwd=ROOT, env=child_env(), capture_output=True,
                          text=True, timeout=max(1.0, deadline - time.monotonic()))
    sys.stderr.write(proc.stderr)
    if proc.returncode != 0:
        raise RuntimeError(f"child {' '.join(args)} exited {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def launch(args) -> int:
    import compileall
    deadline = time.monotonic() + RUN_LIMIT_S
    # byte-compile once so no probe pays for it (users pay it once per install)
    compileall.compile_dir(ROOT / "src", quiet=1)
    common = ["--workload", args.workload, "--seed", str(args.seed)]
    probes = []
    for _ in range(SETUP_REPEATS):
        spawned = time.monotonic()
        rec = run_child(["--role", "setup", *common], deadline)
        rec["setup_s"] = rec.pop("ready") - spawned
        probes.append(rec)
    oracle = {k: probes[0][k] for k in ("opt_lp", "opt_pen", "opt_pack", "dp_states")
              if k in probes[0]}
    res = run_child(["--role", "decide", *common, "--seconds", str(args.seconds),
                     "--trace", str(args.trace), "--oracle", json.dumps(oracle)],
                    deadline)
    setup_s = statistics.median(p["setup_s"] for p in probes)
    round_s = statistics.median(res["rounds"])
    if args.trace:
        metrics = {name: (statistics.median(p.get(key, 0.0) for p in probes), "s")
                   for name, key in SETUP_LAYERS.items()}
        metrics["oracle.dp_states"] = (oracle.get("dp_states", 0), "count")
        metrics.update((name, tuple(v)) for name, v in res["layer"].items())
    else:
        metrics = {
            "setup_s": (setup_s, "s"),
            "wall_s": (setup_s + res["count_rounds"] * round_s, "s"),
            "decisions_per_s": (res["decisions_per_round"] / round_s, "1/s"),
            "decision_p50_ms": (res["decision_p50_ms"], "ms"),
            "decision_p95_ms": (res["decision_p95_ms"], "ms"),
            "sim_calls_per_decision": (res["sim_calls_per_decision"], "calls"),
            "peak_rss_mb": (res["peak_rss_mb"], "MB"),
        }
    correct = res["failed"] == 0 and not res["problems"]
    result = {"correct": correct, "attempted": res["attempted"],
              "failed": res["failed"],
              "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}
    out_dir = HERE / "out"
    out_dir.mkdir(exist_ok=True)
    record = out_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    record.write_text(json.dumps({"result": result, "probes": probes,
                                  "decide": res}, indent=1, sort_keys=True))
    for problem in res["problems"]:
        print(f"check failed: {problem}", file=sys.stderr)
    for name in res.get("skipped", ()):
        print(f"skipped metric (probe target missing): {name}", file=sys.stderr)
    print(json.dumps(result))
    return 0 if correct else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=24)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--role", choices=("launch", "setup", "decide"),
                        default="launch")
    parser.add_argument("--oracle", default="{}")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "onlinepack" / "__init__.py").is_file():
        print(f"no onlinepack sources under {ROOT / 'src'}; run from a checkout",
              file=sys.stderr)
        return 2
    import workloads
    w = workloads.WORKLOADS.get(args.workload)
    if w is None:
        print(f"unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    if args.role == "setup":
        print(json.dumps(workloads.setup_child(w)))
        return 0
    if args.role == "decide":
        print(json.dumps(workloads.decide_child(w, args.seed, args.seconds,
                                                bool(args.trace),
                                                json.loads(args.oracle))))
        return 0
    return launch(args)


if __name__ == "__main__":
    sys.exit(main())
