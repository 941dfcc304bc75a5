import csv
import functools
import json
import math
from pathlib import Path

import numpy as np
import pytest

from ermrl import cli, nn
from ermrl.agents import DdpgConfig
from ermrl.cli import main


def test_full_cli_walkthrough(tmp_path):
    scenario = tmp_path / "scenario.json"
    assert main(["generate", "--out", str(scenario), "--seed", "3",
                 "--nx", "3", "--ny", "2", "--depots", "2", "--hospitals", "1",
                 "--regions", "1", "--rate", "2.0"]) == 0
    assert scenario.exists()

    ckpt = tmp_path / "ckpt"
    assert main(["train", "--scenario", str(scenario), "--out-dir", str(ckpt),
                 "--seed", "1", "--episodes-llp", "2", "--episodes-hlp", "0",
                 "--horizon-days", "0.25", "--fleet", "1",
                 "--train-seeds", "0:2", "--eval-seeds", "50:51",
                 "--curve-every", "1"]) == 0
    assert (ckpt / "networks.npz").exists()
    assert (ckpt / "manifest.json").exists()
    assert (ckpt / "curves.csv").read_text().count("\n") >= 2

    for planner, extra in (("static", []), ("random", []),
                           ("drl", ["--checkpoint-dir", str(ckpt)])):
        out = tmp_path / f"run_{planner}"
        assert main(["eval", "--scenario", str(scenario), "--out-dir", str(out),
                     "--seed", "5", "--planner", planner,
                     "--eval-seeds", "50:53", "--fleet", "1",
                     "--horizon-days", "0.25", *extra]) == 0
        assert (out / "run_summary.csv").exists()
        summary = json.loads((out / "run_summary.json").read_text())
        assert summary["chains"] == 3

    assert main(["compare", f"drl={tmp_path / 'run_drl'}",
                 f"static={tmp_path / 'run_static'}",
                 f"random={tmp_path / 'run_random'}",
                 "--out", str(tmp_path / "compare.csv")]) == 0
    assert (tmp_path / "compare.csv").exists()

    sweep = tmp_path / "sweep"
    assert main(["noise-sweep", "--scenario", str(scenario),
                 "--checkpoint-dir", str(ckpt), "--out-dir", str(sweep),
                 "--seed", "5", "--sigmas", "0,0.3", "--eval-seeds", "50:52",
                 "--fleet", "1", "--horizon-days", "0.25"]) == 0
    matrix = (sweep / "noise_matrix.csv").read_text()
    assert matrix.count("\n") == 5  # header + 2x2 grid


def test_exit_codes(tmp_path):
    # config error: drl eval without checkpoints
    assert main(["eval", "--scenario", str(tmp_path / "missing.json"),
                 "--out-dir", str(tmp_path), "--seed", "1",
                 "--planner", "drl"]) == 2
    # config error: overlapping seed sets
    scenario = tmp_path / "s.json"
    main(["generate", "--out", str(scenario), "--seed", "0", "--nx", "2",
          "--ny", "2", "--depots", "1", "--hospitals", "1", "--regions", "1"])
    assert main(["train", "--scenario", str(scenario), "--out-dir",
                 str(tmp_path / "c"), "--seed", "1", "--episodes-llp", "1",
                 "--episodes-hlp", "0", "--train-seeds", "0:2",
                 "--eval-seeds", "1:3", "--horizon-days", "0.1"]) == 2
    # config error: observation noise on a planner that never observes it
    out = tmp_path / "noisy_greedy"
    assert main(["eval", "--scenario", str(scenario), "--out-dir", str(out), "--seed", "1",
                 "--planner", "greedy", "--noise-rate", "0.3"]) == 2
    assert not out.exists()
    # config error: an empty seed range, caught before any output is written
    for flag in ("--train-seeds", "--eval-seeds"):
        out = tmp_path / f"empty{flag}"
        seeds = {"--train-seeds": "0:2", "--eval-seeds": "50:51", flag: "5:3"}
        assert main(["train", "--scenario", str(scenario), "--out-dir", str(out),
                     "--seed", "1", "--episodes-llp", "1", "--episodes-hlp", "0",
                     "--horizon-days", "0.1", *(x for kv in seeds.items() for x in kv)]) == 2
        assert not out.exists()
    # config error: compare needs a second run to test against the first
    run = tmp_path / "run"
    run.mkdir()
    (run / "run_summary.csv").write_text("chain_seed,n_incidents,mean_response_s\n"
                                         "50,3,200.0\n51,4,210.0\n")
    assert main(["compare", f"a={run}"]) == 2
    assert main(["compare", f"a={run}", "--out", str(tmp_path / "x.csv")]) == 2
    assert not (tmp_path / "x.csv").exists()
    # config error: a fleet that is empty or outnumbers the depots, caught
    # before any output is written
    ckpt = tmp_path / "ckpt"
    train_tiny(scenario, ckpt, "0:2", "50:51")
    for fleet in ("0", "2"):
        for command, extra in (("eval", ["--planner", "greedy"]),
                               ("train", ["--episodes-llp", "1", "--episodes-hlp", "0"]),
                               ("noise-sweep", ["--checkpoint-dir", str(ckpt),
                                                "--sigmas", "0"])):
            out = tmp_path / f"{command}_fleet{fleet}"
            assert main([command, "--scenario", str(scenario), "--out-dir", str(out),
                         "--seed", "1", "--fleet", fleet, "--horizon-days", "0.1",
                         "--eval-seeds", "60:61", *extra]) == 2
            assert not out.exists()
    # config error: too many depots for the grid
    assert main(["generate", "--out", str(tmp_path / "x.json"), "--seed", "0",
                 "--nx", "2", "--ny", "2", "--depots", "9", "--hospitals", "1",
                 "--regions", "1"]) == 2


def test_train_logs_one_row_per_update(tmp_path, monkeypatch):
    # a batch of 8 lets a short run update both agent levels
    monkeypatch.setattr(cli, "DdpgConfig", functools.partial(DdpgConfig, batch_size=8))
    scenario = tmp_path / "scenario.json"
    assert main(["generate", "--out", str(scenario), "--seed", "3",
                 "--nx", "4", "--ny", "4", "--depots", "5", "--hospitals", "1",
                 "--regions", "2", "--rate", "4.0"]) == 0
    out = tmp_path / "ckpt"
    assert main(["train", "--scenario", str(scenario), "--out-dir", str(out),
                 "--seed", "1", "--episodes-llp", "3", "--episodes-hlp", "3",
                 "--horizon-days", "2", "--fleet", "3", "--train-seeds", "0:2",
                 "--eval-seeds", "50:51", "--curve-every", "0"]) == 0
    with open(out / "train_log.csv", newline="") as f:
        rows = list(csv.DictReader(f))
    assert list(rows[0]) == ["phase", "region", "update", "critic_loss", "actor_q",
                             "explore_eps", "buffer_size"]
    agents_seen = {(r["phase"], r["region"]) for r in rows}
    assert agents_seen == {("llp", "0"), ("llp", "1"), ("hlp", "")}
    for key in agents_seen:
        mine = [r for r in rows if (r["phase"], r["region"]) == key]
        assert [int(r["update"]) for r in mine] == list(range(len(mine)))
        sizes = [int(r["buffer_size"]) for r in mine]
        assert sizes[0] >= 8 and sizes == sorted(sizes)
        eps = [float(r["explore_eps"]) for r in mine]
        assert eps == sorted(eps, reverse=True) and 0.0 < eps[-1] <= 0.3
        assert all(math.isfinite(float(r[k])) for r in mine for k in ("critic_loss", "actor_q"))
        assert all(float(r["critic_loss"]) >= 0.0 for r in mine)


def tiny_scenario(tmp_path):
    scenario = tmp_path / "scenario.json"
    assert main(["generate", "--out", str(scenario), "--seed", "3",
                 "--nx", "3", "--ny", "2", "--depots", "2", "--hospitals", "1",
                 "--regions", "1", "--rate", "2.0"]) == 0
    return scenario


def train_tiny(scenario, out, train_seeds, eval_seeds):
    assert main(["train", "--scenario", str(scenario), "--out-dir", str(out),
                 "--seed", "1", "--episodes-llp", "1", "--episodes-hlp", "0",
                 "--horizon-days", "0.1", "--fleet", "1", "--train-seeds", train_seeds,
                 "--eval-seeds", eval_seeds, "--curve-every", "0"]) == 0


@pytest.mark.parametrize("command", ["eval", "noise-sweep"])
def test_eval_checks_the_checkpoints_training_chains(tmp_path, command):
    scenario = tiny_scenario(tmp_path)
    train_tiny(scenario, tmp_path / "ckpt_0_60", "0:60", "60:61")
    train_tiny(scenario, tmp_path / "ckpt_100_150", "100:150", "0:1")
    extra = ["--sigmas", "0"] if command == "noise-sweep" else []

    def run(ckpt, out, *seeds):
        return main([command, "--scenario", str(scenario), "--checkpoint-dir", str(ckpt),
                     "--out-dir", str(out), "--seed", "5", "--fleet", "1",
                     "--horizon-days", "0.1", *seeds, *extra])

    # the default eval chains 50-59 were trained on
    assert run(tmp_path / "ckpt_0_60", tmp_path / "overlap") == 2
    assert not (tmp_path / "overlap").exists()
    assert run(tmp_path / "ckpt_100_150", tmp_path / "disjoint", "--eval-seeds", "0:2") == 0
    assert (tmp_path / "disjoint").exists()


def test_noise_sweep_reports_a_sigma_pair_without_incidents(tmp_path, capsys):
    scenario = tmp_path / "scenario.json"
    assert main(["generate", "--out", str(scenario), "--seed", "3",
                 "--nx", "3", "--ny", "2", "--depots", "2", "--hospitals", "1",
                 "--regions", "1", "--rate", "0"]) == 0
    train_tiny(scenario, tmp_path / "ckpt", "0:2", "50:51")
    capsys.readouterr()
    assert main(["noise-sweep", "--scenario", str(scenario),
                 "--checkpoint-dir", str(tmp_path / "ckpt"),
                 "--out-dir", str(tmp_path / "sweep"), "--seed", "5", "--sigmas", "0",
                 "--eval-seeds", "50:51", "--fleet", "1", "--horizon-days", "0.1"]) == 0
    assert capsys.readouterr().out.splitlines() == [
        "sigma_rate=0.00 sigma_time=0.00 -> no incidents"]


def test_unknown_ddpg_setting_in_manifest_is_a_config_error(tmp_path, capsys):
    scenario = tiny_scenario(tmp_path)
    ckpt = tmp_path / "ckpt"
    train_tiny(scenario, ckpt, "0:2", "50:51")
    manifest = json.loads((ckpt / "manifest.json").read_text())
    # a setting DdpgConfig has dropped, and one it never had
    manifest["ddpg"].update(hlp_bandit=False, no_such_setting=1)
    (ckpt / "manifest.json").write_text(json.dumps(manifest))
    assert main(["eval", "--scenario", str(scenario), "--checkpoint-dir", str(ckpt),
                 "--out-dir", str(tmp_path / "run"), "--seed", "5", "--fleet", "1",
                 "--eval-seeds", "50:51", "--horizon-days", "0.1"]) == 2
    assert "['hlp_bandit', 'no_such_setting']" in capsys.readouterr().err


def _drop_member(path, member):
    with np.load(path) as data:
        kept = {name: data[name] for name in data.files if name != member}
    np.savez(path, **kept)


def _drop_meta_key(path, key):
    with np.load(path) as data:
        meta, flat = json.loads(bytes(data["__meta__"]).decode()), data["params"]
    del meta[key]
    np.savez(path, __meta__=np.frombuffer(json.dumps(meta).encode(), dtype=np.uint8),
             params=flat)


def _drop_entry_key(path, key):
    with np.load(path) as data:
        meta, flat = json.loads(bytes(data["__meta__"]).decode()), data["params"]
    del next(iter(meta["entries"].values()))[key]
    np.savez(path, __meta__=np.frombuffer(json.dumps(meta).encode(), dtype=np.uint8),
             params=flat)


def _recast_params(path, dtype):
    with np.load(path) as data:
        meta, flat = data["__meta__"], data["params"]
    np.savez(path, __meta__=meta, params=flat.astype(dtype))


def _drop_network(path, name):
    nets = nn.load_checkpoint(path)
    del nets[name]
    nn.save_checkpoint(path, nets)


# one case per kind: an npz member, a meta key, an entry key, one of an
# agent's networks, the vector's dtype; test_nn and test_harness cover the others
@pytest.mark.parametrize("corrupt, message", [
    (functools.partial(_drop_member, member="params"), "no params member"),
    (functools.partial(_drop_meta_key, key="version"), "no version in its __meta__"),
    (functools.partial(_drop_entry_key, key="kind"), "llp0_actor has no kind"),
    (functools.partial(_drop_network, name="llp0_critic_target"), "llp0_critic_target"),
    (functools.partial(_recast_params, dtype=np.float32), "dtype float32, not float64"),
], ids=["no_params", "no_version", "no_kind", "no_critic_target", "float32"])
def test_malformed_checkpoint_is_a_config_error(tmp_path, capsys, corrupt, message):
    scenario = tiny_scenario(tmp_path)
    ckpt = tmp_path / "ckpt"
    train_tiny(scenario, ckpt, "0:2", "50:51")
    corrupt(ckpt / "networks.npz")
    capsys.readouterr()
    assert main(["eval", "--scenario", str(scenario), "--checkpoint-dir", str(ckpt),
                 "--out-dir", str(tmp_path / "run"), "--seed", "5", "--fleet", "1",
                 "--eval-seeds", "50:51", "--horizon-days", "0.1"]) == 2
    assert message in capsys.readouterr().err


def test_learning_curves_leave_training_unchanged(tmp_path, monkeypatch):
    # a batch of 8 lets a short run update; the curve evaluations run between updates
    monkeypatch.setattr(cli, "DdpgConfig", functools.partial(DdpgConfig, batch_size=8))
    scenario = tmp_path / "scenario.json"
    assert main(["generate", "--out", str(scenario), "--seed", "3",
                 "--nx", "4", "--ny", "4", "--depots", "5", "--hospitals", "1",
                 "--regions", "2", "--rate", "4.0"]) == 0
    outs = []
    for every in ("1", "0"):
        out = tmp_path / f"curve_every_{every}"
        assert main(["train", "--scenario", str(scenario), "--out-dir", str(out),
                     "--seed", "1", "--episodes-llp", "3", "--episodes-hlp", "2",
                     "--horizon-days", "1", "--fleet", "3", "--train-seeds", "0:2",
                     "--eval-seeds", "50:51", "--curve-every", every]) == 0
        outs.append(out)
    with_curves, without = outs
    assert (with_curves / "curves.csv").read_text().count("\n") > 1
    assert ((with_curves / "train_log.csv").read_bytes()
            == (without / "train_log.csv").read_bytes())
    with np.load(with_curves / "networks.npz") as a, np.load(without / "networks.npz") as b:
        assert np.array_equal(a["params"], b["params"])


def test_city_curve_is_the_eval_of_the_first_three_eval_chains(tmp_path):
    scenario = tmp_path / "scenario.json"
    assert main(["generate", "--out", str(scenario), "--seed", "3",
                 "--nx", "4", "--ny", "4", "--depots", "5", "--hospitals", "1",
                 "--regions", "2", "--rate", "4.0"]) == 0
    ckpt = tmp_path / "ckpt"
    assert main(["train", "--scenario", str(scenario), "--out-dir", str(ckpt),
                 "--seed", "1", "--episodes-llp", "1", "--episodes-hlp", "2",
                 "--horizon-days", "0.5", "--fleet", "3", "--train-seeds", "0:2",
                 "--eval-seeds", "50:55", "--curve-every", "1"]) == 0
    with open(ckpt / "curves.csv", newline="") as f:
        last_hlp = [row for row in csv.DictReader(f) if row["phase"] == "hlp"][-1]
    assert last_hlp["episode"] == "1"
    run = tmp_path / "run"
    assert main(["eval", "--scenario", str(scenario), "--checkpoint-dir", str(ckpt),
                 "--out-dir", str(run), "--seed", "1", "--planner", "drl",
                 "--eval-seeds", "50:53", "--horizon-days", "0.5", "--fleet", "3"]) == 0
    summary = json.loads((run / "run_summary.json").read_text())
    assert repr(summary["mean_response_s"]) == last_hlp["mean_response_s"]
