import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import onlinepack
from onlinepack import keys, load_instance
from onlinepack.cli import main
from onlinepack.encodings import encode_is, random_is_process
from onlinepack.engine import MemoTable, SolverConfig
from onlinepack.model import EMPTY_PREFIX, SCHEMA_VERSION, tree_to_payload
from onlinepack.oracle import eval_policy_mc, reports_to_csv
from onlinepack.policies import new_episode_context, policy_lp, policy_nrm


def run_cli(*argv):
    return main(list(argv))


class TestGen:
    def test_demo_instance(self, tmp_path, capsys):
        out = tmp_path / "demo.json"
        assert run_cli("gen", "--kind", "demo2", "--out", str(out)) == 0
        payload = json.loads(out.read_text())
        assert payload["kind"] == "explicit"
        assert payload["T"] == 2

    def test_nrm_generative(self, tmp_path):
        out = tmp_path / "gen.json"
        code = run_cli("gen", "--kind", "nrm", "--mode", "generative",
                       "--seed", "4", "--T", "5", "--m", "2", "--L", "1",
                       "--iota", "0.5", "--rho", "0.5", "--out", str(out))
        assert code == 0
        payload = json.loads(out.read_text())
        assert payload["kind"] == "generative"
        assert payload["generator"]["family"] == "nrm"

    def test_encoded_instance(self, tmp_path):
        out = tmp_path / "is.json"
        assert run_cli("gen", "--kind", "is", "--seed", "2", "--n", "4",
                       "--delta", "2", "--out", str(out)) == 0
        payload = json.loads(out.read_text())
        assert payload["kind"] == "encoded"

    def test_encoded_instance_carries_the_model_schema_version(self, tmp_path):
        out = tmp_path / "is.json"
        assert run_cli("gen", "--kind", "is", "--seed", "2", "--n", "4",
                       "--delta", "2", "--out", str(out)) == 0
        assert json.loads(out.read_text())["schema_version"] == SCHEMA_VERSION

    def test_encoded_instance_loads_publicly(self, tmp_path):
        out = tmp_path / "is.json"
        assert run_cli("gen", "--kind", "is", "--seed", "2", "--n", "5",
                       "--delta", "2", "--out", str(out)) == 0
        loaded = load_instance(out)
        _, direct = encode_is(random_is_process(2, 5, 2))
        assert loaded.payload == json.loads(out.read_text())
        assert loaded.sim.instance == direct.instance
        assert tree_to_payload(loaded.sim.tree) == tree_to_payload(direct.tree)
        assert loaded.sim.partite_of is not None


class TestParams:
    def test_known_schedule_row(self, capsys):
        assert run_cli("params", "--mode", "unaccelerated", "--epsilon", "1",
                       "--L", "1", "--iota", "1", "--theta", "8", "--T", "8",
                       "--json") == 0
        rows = json.loads(capsys.readouterr().out)
        assert rows[0]["alpha"] == pytest.approx(1 / 24)
        assert rows[0]["K"] == 288
        assert rows[0]["eta1"] == 2304

    @pytest.mark.parametrize("argv,alpha", [
        # ceil(sqrt(1/eps)) = 3, not 2: 1/eps is just above 4
        (["--epsilon", "0.2499999999", "--theta", "1", "--U", "1"], 1 / 4),
        # ULW/(iota theta)^2 = 16.000000000001 needs q = 3, not 2
        (["--epsilon", "1", "--theta", "0.99999999999997", "--U", "16"],
         1 / 36),
    ], ids=["eps-just-below-quarter", "q4-just-above-16"])
    def test_schedule_roots_are_exact(self, capsys, argv, alpha):
        assert run_cli("params", "--mode", "accelerated", "--L", "1",
                       "--iota", "1", "--T", "4", "--W", "1", "--json",
                       *argv) == 0
        row, = json.loads(capsys.readouterr().out)
        assert (row["K"], row["alpha"]) == (24, alpha)

    @pytest.mark.parametrize("U,W", [("0", "1"), ("1", "-1")])
    def test_non_positive_U_or_W_exits_2(self, capsys, U, W):
        assert run_cli("params", "--epsilon", "0.5", "--L", "1", "--iota", "1",
                       "--theta", "1", "--T", "4", "--U", U, "--W", W) == 2
        err = capsys.readouterr().err
        assert "U and W must be positive" in err
        assert "Traceback" not in err

    def test_bad_epsilon_is_config_error(self, capsys):
        assert run_cli("params", "--mode", "unaccelerated", "--epsilon", "2",
                       "--L", "1", "--iota", "1", "--theta", "1", "--T", "4") == 2

    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_non_finite_epsilon_exits_2(self, tmp_path, capsys, value):
        assert run_cli("params", "--mode", "unaccelerated", "--epsilon", value,
                       "--L", "1", "--iota", "1", "--theta", "1", "--T", "4") == 2
        inst = tmp_path / "demo.json"
        run_cli("gen", "--kind", "demo2", "--out", str(inst))
        assert run_cli("verify", "--instance", str(inst), "--epsilon", value,
                       "--episodes", "10") == 2
        assert "not finite" in capsys.readouterr().err


class TestRun:
    def write_experiment(self, tmp_path, policy="lp", episodes=200):
        inst = tmp_path / "inst.json"
        run_cli("gen", "--kind", "demo2", "--out", str(inst))
        cfg = {
            "schema_version": 1,
            "instance": str(inst),
            "policy": policy,
            "solver": {"epsilon": 0.2, "theta": 0.1, "alpha": 0.1, "K": 20,
                       "eta1": 8, "eta2": 2, "master_seed": 5,
                       "practical_override": True},
            "n_episodes": episodes,
        }
        path = tmp_path / "exp.json"
        path.write_text(json.dumps(cfg))
        return path

    def test_run_writes_csv(self, tmp_path, capsys):
        exp = self.write_experiment(tmp_path)
        out = tmp_path / "r.csv"
        assert run_cli("run", "--config", str(exp), "--out", str(out)) == 0
        lines = out.read_text().splitlines()
        assert lines[0].startswith("instance,policy,seed,episodes")
        assert len(lines) == 2

    def test_nan_budget_instance_is_refused(self, tmp_path, capsys):
        # json.load accepts NaN; with K = 1 no iterate reads the budget, so
        # only the instance check stops the run
        exp = self.write_experiment(tmp_path, episodes=5)
        cfg = json.loads(exp.read_text())
        cfg["solver"]["K"] = 1
        exp.write_text(json.dumps(cfg))
        inst = Path(cfg["instance"])
        payload = json.loads(inst.read_text())
        payload["b"] = [float("nan")] * payload["m"]
        inst.write_text(json.dumps(payload))
        out = tmp_path / "r.csv"
        assert run_cli("run", "--config", str(exp), "--out", str(out)) == 2
        assert "budgets must be finite" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("version", [99, "1", 1.0])
    def test_foreign_schema_version_exits_2(self, tmp_path, capsys, version):
        exp = self.write_experiment(tmp_path, episodes=5)
        inst = Path(json.loads(exp.read_text())["instance"])
        payload = json.loads(inst.read_text())
        payload["schema_version"] = version
        inst.write_text(json.dumps(payload))
        assert run_cli("run", "--config", str(exp)) == 2
        err = capsys.readouterr().err
        assert "schema_version" in err
        assert "Traceback" not in err

    def test_same_seed_byte_identical(self, tmp_path, capsys):
        exp = self.write_experiment(tmp_path)
        out1 = tmp_path / "a.csv"
        out2 = tmp_path / "b.csv"
        run_cli("run", "--config", str(exp), "--out", str(out1))
        run_cli("run", "--config", str(exp), "--out", str(out2))
        assert out1.read_bytes() == out2.read_bytes()

    def test_trace_emits_json_lines(self, tmp_path, capsys):
        exp = self.write_experiment(tmp_path, episodes=10)
        trace = tmp_path / "trace.jsonl"
        assert run_cli("run", "--config", str(exp), "--trace", str(trace)) == 0
        lines = trace.read_text().splitlines()
        assert len(lines) == 20  # 10 episodes x T=2 periods
        rec = json.loads(lines[0])
        for field in ("t", "prefix_id", "fractional", "decision", "remaining",
                      "sim_calls", "writes"):
            assert field in rec

    def test_trace_counters_are_per_decision(self, tmp_path, capsys):
        inst = tmp_path / "gen.json"
        run_cli("gen", "--kind", "nrm", "--mode", "generative", "--seed", "2",
                "--T", "6", "--out", str(inst))
        solver = {"epsilon": 0.2, "theta": 0.3, "alpha": 0.1, "K": 2,
                  "eta1": 2, "eta2": 2, "master_seed": 3,
                  "practical_override": True}
        exp = tmp_path / "exp.json"
        exp.write_text(json.dumps({"instance": str(inst), "policy": "nrm",
                                   "solver": solver, "n_episodes": 2}))
        trace = tmp_path / "trace.jsonl"
        assert run_cli("run", "--config", str(exp), "--trace", str(trace)) == 0
        recs = [json.loads(line) for line in trace.read_text().splitlines()]
        sim = load_instance(inst).sim
        config = SolverConfig(**solver)
        for e in range(2):
            # the same episode replayed in the library gives the memo totals
            traj = sim.complete(EMPTY_PREFIX, (3, "episode", e))
            ctx = new_episode_context(sim, config, e)
            for t in range(1, 7):
                policy_nrm(ctx, sim, traj.head(t), config)
            totals = ctx.memo.counters()
            mine = [r for r in recs if r["episode"] == e]
            assert len(mine) == 6
            assert totals["sim_calls"] > 0
            for name, total in totals.items():
                assert sum(r[name] for r in mine) == total

    def test_trace_prefix_ids_distinguish_prefixes(self, tmp_path, capsys):
        inst = tmp_path / "gen.json"
        run_cli("gen", "--kind", "nrm", "--mode", "generative", "--seed", "2",
                "--T", "5", "--out", str(inst))
        cfg = {"instance": str(inst), "policy": "nrm",
               "solver": {"epsilon": 0.2, "theta": 0.3, "alpha": 0.1, "K": 2,
                          "eta1": 2, "eta2": 2, "master_seed": 3,
                          "practical_override": True},
               "n_episodes": 3}
        exp = tmp_path / "exp.json"
        exp.write_text(json.dumps(cfg))
        trace = tmp_path / "trace.jsonl"
        assert run_cli("run", "--config", str(exp), "--trace", str(trace)) == 0
        recs = [json.loads(line) for line in trace.read_text().splitlines()]
        sim = load_instance(inst).sim
        trajs = [sim.complete(EMPTY_PREFIX, (3, "episode", e)) for e in range(3)]
        keyed = [(trajs[r["episode"]].head(r["t"]).key, r["prefix_id"])
                 for r in recs]
        assert len(keyed) == 15
        # one id per prefix, and at least one period where episodes differ
        assert len({k for k, _ in keyed}) == len({i for _, i in keyed}) \
            == len(set(keyed))
        assert any(len({trajs[e].head(t) for e in range(3)}) > 1
                   for t in range(1, 6))
        assert keyed[0][1] == keys.key_digest(keyed[0][0]).hex()

    def test_run_streams_without_the_sweep(self, tmp_path, capsys,
                                           monkeypatch):
        import onlinepack.engine as engine

        def no_sweep(*args, **kwargs):
            raise AssertionError("run called the full sweep")

        monkeypatch.setattr(engine, "run_algorithm1_explicit", no_sweep)
        exp = self.write_experiment(tmp_path, episodes=50)
        out = tmp_path / "r.csv"
        assert run_cli("run", "--config", str(exp), "--out", str(out)) == 0
        # the library with a fresh table per episode gives the same bytes
        spec = json.loads(exp.read_text())
        sim = load_instance(spec["instance"]).sim
        config = SolverConfig(**spec["solver"])

        def factory(e):
            ctx = new_episode_context(sim, config, e)
            return lambda p: policy_lp(ctx, sim, p, config)

        report = eval_policy_mc(sim, factory, 50, seed=5)
        row = {"instance": spec["instance"], "policy": "lp", "seed": 5}
        row.update(report.csv_row())
        assert out.read_text() == reports_to_csv([row])

    def test_trace_counts_work_on_explicit_trees(self, tmp_path, capsys):
        exp = self.write_experiment(tmp_path, episodes=10)
        trace = tmp_path / "trace.jsonl"
        assert run_cli("run", "--config", str(exp), "--trace", str(trace)) == 0
        recs = [json.loads(line) for line in trace.read_text().splitlines()]
        assert recs[0]["sim_calls"] > 0
        # the same episodes played in the library over one shared table
        spec = json.loads(exp.read_text())
        sim = load_instance(spec["instance"]).sim
        config = SolverConfig(**spec["solver"])
        memo = MemoTable()
        for e in range(10):
            traj = sim.complete(EMPTY_PREFIX, (5, "episode", e))
            ctx = new_episode_context(sim, config, e, memo=memo)
            for t in range(1, 3):
                policy_lp(ctx, sim, traj.head(t), config)
        for name, total in memo.counters().items():
            assert sum(r[name] for r in recs) == total

    @pytest.mark.parametrize("argv,n_episodes", [
        (("--episodes", "0"), 200), (("--episodes", "-3"), 200),
        ((), 0), ((), 2.5), ((), "10")])
    def test_episode_count_below_one_exits_2(self, tmp_path, capsys, argv,
                                             n_episodes):
        exp = self.write_experiment(tmp_path, episodes=n_episodes)
        capsys.readouterr()
        out = tmp_path / "r.csv"
        assert run_cli("run", "--config", str(exp), "--out", str(out),
                       *argv) == 2
        captured = capsys.readouterr()
        assert "episode count must be an integer >= 1" in captured.err
        assert captured.out == "" and not out.exists()

    @pytest.mark.parametrize("policy,episodes,message", [
        ("lp", 0, "episode count must be an integer >= 1"),
        ("is", 5, "policy 'is' needs an independent-set encoded instance")])
    def test_refused_run_leaves_trace_file_alone(self, tmp_path, capsys,
                                                 policy, episodes, message):
        exp = self.write_experiment(tmp_path, policy=policy,
                                    episodes=episodes)
        kept = tmp_path / "kept.jsonl"
        kept.write_bytes(b'{"episode": 0}\n')
        absent = tmp_path / "absent.jsonl"
        capsys.readouterr()
        for trace in (kept, absent):
            assert run_cli("run", "--config", str(exp), "--trace",
                           str(trace)) == 2
            assert message in capsys.readouterr().err
        assert kept.read_bytes() == b'{"episode": 0}\n'
        assert not absent.exists()

    def _unwritable(self, tmp_path, kind):
        if kind == "missing directory":
            return tmp_path / "missing" / "f"
        if kind == "file as directory":
            (tmp_path / "plain").write_text("")
            return tmp_path / "plain" / "f"
        (tmp_path / "dir").mkdir()
        return tmp_path / "dir"

    def _refuses_before_any_episode(self, tmp_path, capsys, monkeypatch,
                                    flag, path):
        import onlinepack.cli as cli
        played = []
        monkeypatch.setattr(cli, "eval_policy_mc",
                            lambda *a, **k: played.append(a))
        exp = self.write_experiment(tmp_path, episodes=5)
        before = sorted(tmp_path.rglob("*"))
        capsys.readouterr()
        assert run_cli("run", "--config", str(exp), flag, str(path)) == 2
        captured = capsys.readouterr()
        assert f"cannot write {path}" in captured.err
        assert captured.out == "" and played == []
        assert sorted(tmp_path.rglob("*")) == before  # nothing created

    @pytest.mark.parametrize("kind", [
        "missing directory", "file as directory", "directory"])
    def test_unwritable_trace_exits_2(self, tmp_path, capsys, monkeypatch,
                                      kind):
        self._refuses_before_any_episode(tmp_path, capsys, monkeypatch,
                                         "--trace",
                                         self._unwritable(tmp_path, kind))

    @pytest.mark.parametrize("kind", [
        "missing directory", "file as directory", "directory"])
    def test_unwritable_out_exits_2(self, tmp_path, capsys, monkeypatch,
                                    kind):
        self._refuses_before_any_episode(tmp_path, capsys, monkeypatch,
                                         "--out",
                                         self._unwritable(tmp_path, kind))

    @pytest.mark.parametrize("name,value", [
        ("eta1", 2.5), ("K", 3.0), ("master_seed", 1.5), ("K", True)])
    def test_non_integer_solver_field_exits_2(self, tmp_path, capsys, name,
                                              value):
        exp = self.write_experiment(tmp_path, episodes=5)
        cfg = json.loads(exp.read_text())
        cfg["solver"][name] = value
        exp.write_text(json.dumps(cfg))
        capsys.readouterr()
        assert run_cli("run", "--config", str(exp)) == 2
        captured = capsys.readouterr()
        assert f"{name} must be an integer" in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize("name,value", [
        ("alpha", True), ("alpha", "0.5"), ("theta", False),
        ("epsilon", "0.2"), ("theta", None), ("alpha", [0.1])])
    def test_non_real_solver_field_exits_2(self, tmp_path, capsys, name,
                                           value):
        exp = self.write_experiment(tmp_path, episodes=5)
        cfg = json.loads(exp.read_text())
        cfg["solver"][name] = value
        exp.write_text(json.dumps(cfg))
        capsys.readouterr()
        assert run_cli("run", "--config", str(exp)) == 2
        captured = capsys.readouterr()
        assert f"config error: bad solver config: {name} must be a real " \
            f"number, got {value!r}" in captured.err
        assert "Traceback" not in captured.err
        assert captured.out == ""

    def test_audit_failure_exits_4(self, tmp_path, capsys, monkeypatch):
        import onlinepack.cli as cli
        from onlinepack.errors import FeasibilityAuditError

        def explode(*args, **kwargs):
            raise FeasibilityAuditError("forced", trace={})

        monkeypatch.setattr(cli, "eval_policy_mc", explode)
        exp = self.write_experiment(tmp_path, episodes=5)
        assert run_cli("run", "--config", str(exp)) == 4
        assert "feasibility audit failed: forced" in capsys.readouterr().err

    @pytest.mark.parametrize("changes", [
        {"seed": 7}, {"n_epsiodes": 5}, {"schema_version": "1"},
        {"schema_version": 1.0}, {"schema_version": True},
        {"schema_version": 2}, {"solver": 3}, {"policy": ["lp"]},
        {"instance": 3}, {"out": 3}],
        ids=["seed", "typo", "version-string", "version-float",
             "version-bool", "version-2", "solver-number", "policy-list",
             "instance-number", "out-number"])
    def test_config_key_run_does_not_read_exits_2(self, tmp_path, capsys,
                                                  changes):
        exp = self.write_experiment(tmp_path, episodes=5)
        exp.write_text(json.dumps(dict(json.loads(exp.read_text()),
                                       **changes)))
        capsys.readouterr()
        assert run_cli("run", "--config", str(exp)) == 2
        captured = capsys.readouterr()
        assert "config error: experiment config" in captured.err
        assert captured.out == ""

    def test_readme_example_config_runs(self, tmp_path, capsys):
        readme = (Path(__file__).resolve().parent.parent / "README.md")
        text = readme.read_text(encoding="utf-8")
        block = text.split("An experiment config is JSON:")[1]
        cfg = json.loads(block.split("```json")[1].split("```")[0])
        inst = tmp_path / "nrm.json"
        run_cli("gen", "--kind", "nrm", "--seed", "7", "--T", "5", "--m", "3",
                "--L", "2", "--iota", "0.3", "--rho", "0.5", "--out", str(inst))
        cfg["instance"] = str(inst)
        cfg["solver"].update(K=4, eta1=2)  # the example's sizes, scaled down
        exp = tmp_path / "exp.json"
        exp.write_text(json.dumps(cfg))
        assert run_cli("run", "--config", str(exp), "--episodes", "2") == 0

    def test_missing_config_is_config_error(self, tmp_path, capsys):
        assert run_cli("run", "--config", str(tmp_path / "nope.json")) == 2

    def test_bad_policy_is_config_error(self, tmp_path, capsys):
        exp = self.write_experiment(tmp_path, policy="magic")
        assert run_cli("run", "--config", str(exp)) == 2


class TestVerify:
    def test_demo_instance_passes_gate(self, tmp_path, capsys):
        inst = tmp_path / "demo.json"
        run_cli("gen", "--kind", "demo2", "--out", str(inst))
        capsys.readouterr()
        code = run_cli("verify", "--instance", str(inst),
                       "--episodes", "2000", "--seed", "3")
        report = json.loads(capsys.readouterr().out)
        assert code == 0
        assert report["ok"] is True
        assert report["OPT_lp"] == pytest.approx(0.6, abs=1e-9)
        assert report["gap"] <= 0.2 + 3 * report["policy_std_error"]
        assert report["violations"] == 0

    def test_relaxation_chain_reported(self, tmp_path, capsys):
        inst = tmp_path / "nrm.json"
        run_cli("gen", "--kind", "nrm", "--seed", "3", "--T", "3", "--m", "2",
                "--L", "2", "--iota", "0.4", "--rho", "0.6",
                "--out", str(inst))
        capsys.readouterr()
        code = run_cli("verify", "--instance", str(inst),
                       "--episodes", "1500", "--seed", "1",
                       "--K", "80", "--eta1", "16")
        report = json.loads(capsys.readouterr().out)
        assert code == 0
        assert report["OPT_pack"] <= report["OPT_lp"] + 1e-9
        assert report["OPT_lp"] <= report["OPT_pen"] + 1e-9

    def test_generative_instance_rejected(self, tmp_path, capsys):
        inst = tmp_path / "gen.json"
        run_cli("gen", "--kind", "nrm", "--mode", "generative", "--seed", "1",
                "--out", str(inst))
        assert run_cli("verify", "--instance", str(inst)) == 2

    def test_gap_failure_exits_3(self, tmp_path, capsys):
        # a starved solver (K=1, tiny step) cannot come near OPT_lp
        inst = tmp_path / "demo.json"
        run_cli("gen", "--kind", "demo2", "--out", str(inst))
        capsys.readouterr()
        code = run_cli("verify", "--instance", str(inst),
                       "--episodes", "400", "--K", "1", "--eta1", "1",
                       "--alpha", "0.0001")
        report = json.loads(capsys.readouterr().out)
        assert code == 3
        assert report["ok"] is False

    def test_audit_failure_exits_4(self, tmp_path, capsys, monkeypatch):
        import onlinepack.cli as cli
        from onlinepack.errors import FeasibilityAuditError

        def explode(*args, **kwargs):
            raise FeasibilityAuditError("forced", trace={})

        monkeypatch.setattr(cli, "eval_policy_mc", explode)
        inst = tmp_path / "demo.json"
        run_cli("gen", "--kind", "demo2", "--out", str(inst))
        assert run_cli("verify", "--instance", str(inst),
                       "--episodes", "10") == 4

    @pytest.mark.parametrize("episodes", ["0", "-3"])
    def test_episode_count_below_one_exits_2(self, tmp_path, capsys,
                                             episodes):
        inst = tmp_path / "demo.json"
        run_cli("gen", "--kind", "demo2", "--out", str(inst))
        capsys.readouterr()
        assert run_cli("verify", "--instance", str(inst),
                       "--episodes", episodes) == 2
        captured = capsys.readouterr()
        assert "episode count must be an integer >= 1" in captured.err
        assert captured.out == ""

    def test_mwmlp_scaled_epsilon_gate(self, tmp_path, capsys):
        inst = tmp_path / "mwm.json"
        run_cli("gen", "--kind", "mwm", "--seed", "6", "--n", "4",
                "--delta", "2", "--out", str(inst))
        capsys.readouterr()
        code = run_cli("verify", "--instance", str(inst), "--policy",
                       "mwmlp", "--episodes", "1200", "--K", "60",
                       "--eta1", "16", "--epsilon", "0.2")
        report = json.loads(capsys.readouterr().out)
        assert code == 0
        assert report["violations"] == 0

    def test_mmo_greedy_reported_not_gated(self, tmp_path, capsys):
        inst = tmp_path / "mmo.json"
        run_cli("gen", "--kind", "mmo", "--seed", "5", "--n-offline", "3",
                "--n-online", "2", "--delta", "2", "--out", str(inst))
        capsys.readouterr()
        code = run_cli("verify", "--instance", str(inst), "--policy",
                       "mmo-greedy", "--episodes", "800", "--K", "40",
                       "--eta1", "8")
        report = json.loads(capsys.readouterr().out)
        assert code == 0
        assert report["gate_applied"] is False
        assert report["violations"] == 0


class TestGoldenOutputs:
    """`run` CSV and `verify` JSON bytes pinned on an NRM tree and an is file.

    The values were computed by the release that replayed a precomputed
    full-sweep table on explicit trees; the streaming path must keep them.
    """

    SOLVER = {"epsilon": 0.2, "theta": 0.5, "alpha": 0.1, "K": 12, "eta1": 4,
              "master_seed": 9, "practical_override": True}
    RUN = {
        "lp": "nrm.json,lp,9,300,0.8901238792314203,0.022208812137382336,0,0.0",
        "is": "is.json,is,9,300,1.3309998940379708,0.03497123688836867,0,0.0",
    }
    VERIFY = {
        "lp": {"OPT_lp": 1.5180876227816023, "OPT_pack": 1.4582542411572175,
               "OPT_pen": 1.5180876227816023, "audit_ok": True,
               "episodes": 1000, "eps_T_budget": 0.30000000000000004,
               "gap": 0.2557142446994911, "gate_applied": True, "ok": True,
               "policy": "lp", "policy_mean": 1.2623733780821111,
               "policy_std_error": 0.01761095003804088, "violations": 0},
        "is": {"OPT_lp": 2.092569495669278, "OPT_pack": 2.092569495669278,
               "OPT_pen": 2.092569495669278, "audit_ok": True,
               "episodes": 1000, "eps_T_budget": 0.6000000000000001,
               "gap": 0.4170650993651548, "gate_applied": True, "ok": True,
               "policy": "is", "policy_mean": 1.6755043963041234,
               "policy_std_error": 0.020280246032767138, "violations": 0},
    }

    # `run --trace` line count and sha256: lp on the tree (the RUN["lp"]
    # row), nrm on a generative file with a smaller solver
    TRACE = {
        "lp": ("nrm.json", {"eta2": 2}, 300, 900,
               "3bd3c543b4f248fe845e117939b1dae0eec4d190ec209422bf2ab8fcf3adb815"),
        "nrm": ("gen.json", {"K": 4, "eta1": 2, "eta2": 2}, 20, 120,
                "b2ac2048e553e72e2b918068da630606770ad64df3dafb7bef4bdbdd5ecde21a"),
    }

    @pytest.fixture
    def instances(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)  # relative paths keep the CSV bytes fixed
        run_cli("gen", "--kind", "nrm", "--seed", "3", "--T", "3", "--m", "2",
                "--L", "2", "--iota", "0.4", "--rho", "0.6", "--out", "nrm.json")
        run_cli("gen", "--kind", "is", "--seed", "2", "--n", "6", "--delta",
                "2", "--out", "is.json")
        run_cli("gen", "--kind", "nrm", "--mode", "generative", "--seed", "2",
                "--T", "6", "--out", "gen.json")
        return {"lp": ("nrm.json", 2), "is": ("is.json", 6)}

    @pytest.mark.parametrize("policy", ["lp", "is"])
    def test_run_csv(self, instances, policy, capsys):
        instance, eta2 = instances[policy]
        with open("exp.json", "w", encoding="utf-8") as fh:
            json.dump({"instance": instance, "policy": policy,
                       "solver": dict(self.SOLVER, eta2=eta2),
                       "n_episodes": 300}, fh)
        capsys.readouterr()
        assert run_cli("run", "--config", "exp.json") == 0
        header = "instance,policy,seed,episodes,mean_reward,std_error," \
            "violation_count,max_violation"
        assert capsys.readouterr().out == f"{header}\n{self.RUN[policy]}\n"

    @pytest.mark.parametrize("policy", ["lp", "nrm"])
    def test_run_trace(self, instances, policy, capsys):
        instance, solver, episodes, n_lines, digest = self.TRACE[policy]
        with open("exp.json", "w", encoding="utf-8") as fh:
            json.dump({"instance": instance, "policy": policy,
                       "solver": dict(self.SOLVER, **solver),
                       "n_episodes": episodes}, fh)
        assert run_cli("run", "--config", "exp.json",
                       "--trace", "trace.jsonl") == 0
        trace = Path("trace.jsonl").read_bytes()
        assert len(trace.splitlines()) == n_lines
        assert hashlib.sha256(trace).hexdigest() == digest

    @pytest.mark.parametrize("policy", ["lp", "is"])
    def test_verify_json(self, instances, policy, capsys):
        capsys.readouterr()
        code = run_cli("verify", "--instance", instances[policy][0],
                       "--policy", policy, "--episodes", "1000", "--K", "40",
                       "--eta1", "8", "--seed", "2")
        assert code == 0
        assert capsys.readouterr().out == \
            json.dumps(self.VERIFY[policy], indent=1, sort_keys=True) + "\n"


class TestMatchingGoldenOutputs:
    """`run` CSV, `--trace` and `verify` JSON bytes on an mmo and an mwm file.

    ``mmo-greedy`` reads every period of a block through the handle's
    ``block_lookup`` and ``mwmlp`` runs the LP policy on the matching
    encoding; the trace pins every decision and its per-decision counts.
    """

    SOLVER = dict(TestGoldenOutputs.SOLVER, eta2=3)
    RUN = {
        "mmo-greedy": (
            "mmo.json,mmo-greedy,9,300,2.2133333333333334,0.04911101190316036,0,0.0",
            1800,
            "1a5c71ba092dd55d9ea1739400ae17cdd965cdbc07edda9ff711890af3a03d33"),
        "mwmlp": (
            "mwm.json,mwmlp,9,300,0.5678291569261102,0.01610505602638137,0,0.0",
            1500,
            "f2b0b65f3ec4dd7869e180a20a4dbb9b4cc0e8023f55e305aff37037d4159b4f"),
    }
    VERIFY = {
        "mmo-greedy": {
            "OPT_lp": 2.266916676104349, "OPT_pack": 2.266916676104349,
            "OPT_pen": 2.266916676104349, "audit_ok": True, "episodes": 1000,
            "eps_T_budget": 0.6000000000000001, "gap": 0.0069166761043493175,
            "gate_applied": False, "ok": True, "policy": "mmo-greedy",
            "policy_mean": 2.26, "policy_std_error": 0.025437119472280015,
            "violations": 0},
        "mwmlp": {
            "OPT_lp": 1.0032895153836594, "OPT_pack": 0.993240584102612,
            "OPT_pen": 1.0032895153836594, "audit_ok": True, "episodes": 1000,
            "eps_T_budget": 0.5, "gap": 0.1941925156603862,
            "gate_applied": True, "ok": True, "policy": "mwmlp",
            "policy_mean": 0.8090969997232732,
            "policy_std_error": 0.01351797010951859, "violations": 0},
    }

    @pytest.fixture
    def instances(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)  # relative paths keep the CSV bytes fixed
        run_cli("gen", "--kind", "mmo", "--seed", "4", "--n-offline", "3",
                "--n-online", "3", "--delta", "2", "--out", "mmo.json")
        run_cli("gen", "--kind", "mwm", "--seed", "3", "--n", "5", "--delta",
                "2", "--out", "mwm.json")
        return {"mmo-greedy": "mmo.json", "mwmlp": "mwm.json"}

    @pytest.mark.parametrize("policy", ["mmo-greedy", "mwmlp"])
    def test_run_csv_and_trace(self, instances, policy, capsys):
        with open("exp.json", "w", encoding="utf-8") as fh:
            json.dump({"instance": instances[policy], "policy": policy,
                       "solver": self.SOLVER, "n_episodes": 300}, fh)
        capsys.readouterr()
        assert run_cli("run", "--config", "exp.json",
                       "--trace", "trace.jsonl") == 0
        header = "instance,policy,seed,episodes,mean_reward,std_error," \
            "violation_count,max_violation"
        row, n_lines, digest = self.RUN[policy]
        assert capsys.readouterr().out == f"{header}\n{row}\n"
        trace = Path("trace.jsonl").read_bytes()
        assert len(trace.splitlines()) == n_lines
        assert hashlib.sha256(trace).hexdigest() == digest

    @pytest.mark.parametrize("policy", ["mmo-greedy", "mwmlp"])
    def test_verify_json(self, instances, policy, capsys):
        capsys.readouterr()
        code = run_cli("verify", "--instance", instances[policy],
                       "--policy", policy, "--episodes", "1000", "--K", "40",
                       "--eta1", "8", "--seed", "2")
        assert code == 0
        assert capsys.readouterr().out == \
            json.dumps(self.VERIFY[policy], indent=1, sort_keys=True) + "\n"


def test_tree_deeper_than_the_recursion_limit_runs_and_verifies(
        tmp_path, capsys):
    # 1,500 periods: one Python frame per period would exceed the limit.
    # The file is what `gen --kind is --n 1500 --delta 2` writes, whose
    # check loads it just as `run` does.
    inst, exp = tmp_path / "is.json", tmp_path / "exp.json"
    assert sys.getrecursionlimit() < 1500
    inst.write_text(json.dumps({
        "schema_version": SCHEMA_VERSION, "kind": "encoded",
        "encoding": {"family": "is", "seed": 0, "n": 1500, "delta": 2}}))
    exp.write_text(json.dumps({
        "instance": str(inst), "policy": "is", "n_episodes": 1,
        "solver": dict(TestGoldenOutputs.SOLVER, K=2, eta1=2, eta2=2)}))
    assert run_cli("run", "--config", str(exp)) == 0
    capsys.readouterr()
    assert run_cli("verify", "--instance", str(inst), "--policy", "is",
                   "--episodes", "1", "--K", "2", "--eta1", "2") in (0, 3)
    assert json.loads(capsys.readouterr().out)["OPT_pack"] is None


# policy -> `gen` arguments of an instance it runs on
_GEN = {
    "lp": ("--kind", "demo2"),
    "nrm": ("--kind", "nrm", "--mode", "generative", "--seed", "2",
            "--T", "4"),
    "is": ("--kind", "is", "--seed", "2", "--n", "6", "--delta", "2"),
    "mwmlp": ("--kind", "mwm", "--seed", "3", "--n", "5", "--delta", "2"),
    "mmo-greedy": ("--kind", "mmo", "--seed", "4", "--n-offline", "3",
                   "--n-online", "3", "--delta", "2"),
}


@pytest.mark.parametrize("policy", list(_GEN))
def test_trace_decision_is_the_returned_value(tmp_path, capsys, monkeypatch,
                                              policy):
    import onlinepack.cli as cli
    inst, exp, trace = (tmp_path / f for f in ("i.json", "e.json", "t.jsonl"))
    assert run_cli("gen", *_GEN[policy], "--out", str(inst)) == 0
    exp.write_text(json.dumps({
        "instance": str(inst), "policy": policy, "n_episodes": 8,
        "solver": dict(TestGoldenOutputs.SOLVER, K=4, eta1=2, eta2=2)}))
    returned = []
    policy_fn = cli._POLICIES[policy]

    def recording(*args):
        returned.append(policy_fn(*args))
        return returned[-1]

    monkeypatch.setitem(cli._POLICIES, policy, recording)
    assert run_cli("run", "--config", str(exp), "--trace", str(trace)) == 0
    decisions = [json.loads(line)["decision"]
                 for line in trace.read_text().splitlines()]
    assert decisions == returned and len(decisions) > 0
    if policy in ("nrm", "is", "mmo-greedy"):  # the integral policies
        assert set(decisions) <= {0, 1}


def test_cli_import_does_not_load_scipy():
    # scipy serves the LP oracles only, which import it when they run
    src = str(Path(onlinepack.__file__).resolve().parent.parent)
    code = "import sys, onlinepack.cli; print('scipy' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], check=True, text=True,
                         capture_output=True,
                         env={**os.environ, "PYTHONPATH": src})
    assert out.stdout.strip() == "False"
