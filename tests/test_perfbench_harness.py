"""The benchmark's harness still drives the library.

``perfbench/`` reads library names (``MemoTable.draws``, the
``SolverConfig`` fields, the handle's ``readout``, the probe targets of
``spans.PROBES``), and its own suite is not part of this one.  The tracer
counts a draw request as a hit when (prefix key, k) is a key of
``MemoTable.draws``, the draw store, which is keyed by (cut key, sampled
periods), so no request is a hit.  This test
imports the harness unedited and plays one short round of every workload
through ``workloads.Loop``, untraced and then under a ``spans.Tracer``,
and runs the CLI on the experiment config the harness writes, so a library
or CLI change that breaks the benchmark fails here.
"""

import sys
from pathlib import Path

import pytest

PERFBENCH = str(Path(__file__).resolve().parent.parent / "perfbench")
sys.path.insert(0, PERFBENCH)  # the harness imports its modules by name
try:
    import checks
    import spans
    import workloads
finally:
    sys.path.remove(PERFBENCH)


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_round_plays_untraced_and_traced(name):
    op, _ = workloads.import_onlinepack()
    w = workloads.WORKLOADS[name]
    loop = workloads.Loop(op, w, workloads.setup(op, w, with_oracles=False),
                          seed=1)
    plain = loop.run_round(1, episodes=2)
    tracer = spans.Tracer()
    try:
        loop.trace(tracer)
        traced = loop.run_round(1, episodes=2)
    finally:
        tracer.uninstall()
    assert len(plain.decisions) == 2 * loop.T
    assert traced.decisions == plain.decisions
    assert not any(checks.decision_out_of_range(x, w.integral)
                   for x in plain.decisions)
    assert tracer.skipped == []
    # the tracer reached conditional_draws and could read memo.draws
    assert tracer.draw_requests > 0 and tracer.draw_hits == 0


def test_cli_reads_the_harness_config(monkeypatch, tmp_path):
    # the config perfbench writes for `onlinepack run` loads, and the CLI
    # prints the library's mean_reward bits, as the tree workload checks
    monkeypatch.setattr(workloads, "OUT_DIR", tmp_path)
    op, _ = workloads.import_onlinepack()
    w = workloads.WORKLOADS["tree-nrm-oracle"]
    s = workloads.setup(op, w, with_oracles=False)
    loop = workloads.Loop(op, w, s, seed=1)
    lib = loop.run_round(workloads.SOLVER_SEED, 2)
    assert workloads.cli_mean_reward(loop, s, 2) == repr(lib.mean_reward)
