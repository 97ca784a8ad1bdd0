"""End-to-end command line flows, option merging, and exit codes.

Training configurations here are deliberately tiny; the goal is wiring,
not model quality.
"""

import json
import math
import os
import subprocess
import sys
import warnings

import numpy as np
import pytest

import ddpnkit
from ddpnkit import cli, ensemble, network


def run(argv):
    return cli.main([str(a) for a in argv])


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """Simulated beta-study data plus a trained two-member ensemble."""
    root = tmp_path_factory.mktemp("ws")
    assert run(["simulate", "--process", "beta-study", "--n", 60,
                "--seed", 0, "--out", root]) == 0
    prefix = root / "data" / "beta_study_seed0"
    assert run(["train", "--data", prefix, "--family", "double_poisson",
                "--epochs", 2, "--hidden", "4", "--members", 2,
                "--tag", "m", "--out", root]) == 0
    return {"root": root, "prefix": prefix,
            "manifest": root / "ckpt" / "m.manifest"}


class TestSimulate:
    def test_writes_three_split_files(self, tmp_path, capsys):
        assert run(["simulate", "--process", "misspec-poisson", "--n", 60,
                    "--out", tmp_path]) == 0
        for suffix in ("train", "val", "test"):
            assert (tmp_path / "data" / f"misspec_poisson_seed0_{suffix}.csv").exists()
        printed = capsys.readouterr().out.strip().splitlines()
        assert len(printed) == 3

    def test_byte_identical_across_runs(self, tmp_path):
        for sub in ("a", "b"):
            assert run(["simulate", "--process", "sine-conflation",
                        "--n-train", 40, "--n-val", 10, "--n-test", 10,
                        "--seed", 5, "--out", tmp_path / sub]) == 0
        name = "data/sine_conflation_seed5_train.csv"
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()

    def test_unknown_process(self, tmp_path):
        assert run(["simulate", "--process", "nope", "--out", tmp_path]) == 2


class TestTrain:
    def test_artifacts(self, workspace):
        root = workspace["root"]
        for member in (0, 1):
            assert (root / "ckpt" / f"m_member{member}.ckpt").exists()
        ens = ensemble.load_ensemble(workspace["manifest"])
        assert len(ens.members) == 2
        assert ens.family == "double_poisson"
        payload = json.loads((root / "reports" / "m_train.json").read_text())
        assert payload["family"] == "double_poisson"
        assert len(payload["members"]) == 2
        for member in payload["members"]:
            assert len(member["train_loss"]) == 2
            assert len(member["val_loss"]) == 2
            assert member["best_epoch"] in (1, 2)
            assert member["wall_time"] > 0.0

    def test_member_seeds_are_derived(self, workspace):
        payload = json.loads(
            (workspace["root"] / "reports" / "m_train.json").read_text())
        assert [m["seed"] for m in payload["members"]] == [0, 1]

    def test_parallel_jobs_match_serial(self, workspace, tmp_path):
        prefix = workspace["prefix"]
        assert run(["train", "--data", prefix, "--epochs", 2, "--hidden", "4",
                    "--members", 2, "--jobs", 2, "--tag", "par",
                    "--out", tmp_path]) == 0
        for member in (0, 1):
            serial = (workspace["root"] / "ckpt" / f"m_member{member}.ckpt").read_bytes()
            parallel = (tmp_path / "ckpt" / f"par_member{member}.ckpt").read_bytes()
            assert serial == parallel

    def test_divergence_exits_3_and_leaves_no_checkpoints(self, workspace, tmp_path):
        assert run(["train", "--data", workspace["prefix"], "--epochs", 1,
                    "--hidden", "4", "--lr", 1e12, "--tag", "boom",
                    "--out", tmp_path]) == 3
        assert not (tmp_path / "ckpt").exists()

    def test_missing_data_prefix(self, tmp_path):
        assert run(["train", "--data", tmp_path / "ghost", "--out", tmp_path]) == 2

    @pytest.mark.parametrize("flag", ["--members", "--jobs"])
    @pytest.mark.parametrize("value", [0, -1])
    def test_members_and_jobs_must_be_positive(self, workspace, tmp_path, capsys, flag, value):
        assert run(["train", "--data", workspace["prefix"], "--epochs", 1, "--hidden", "4",
                    flag, value, "--out", tmp_path]) == 2
        assert f"{flag} must be at least 1" in capsys.readouterr().err
        assert not (tmp_path / "ckpt").exists()


class TestEval:
    def test_metrics_json(self, workspace, tmp_path, capsys):
        ckpt = workspace["root"] / "ckpt" / "m_member0.ckpt"
        assert run(["eval", "--ckpt", ckpt, "--data", workspace["prefix"],
                    "--tag", "e", "--out", tmp_path]) == 0
        payload = json.loads((tmp_path / "reports" / "e_metrics.json").read_text())
        assert set(payload) == {"mae", "crps_mean", "median_precision"}
        assert payload["mae"] >= 0.0
        assert json.loads(capsys.readouterr().out)["mae"] == payload["mae"]

    def test_missing_checkpoint_is_io_error(self, workspace, tmp_path):
        assert run(["eval", "--ckpt", tmp_path / "ghost.ckpt",
                    "--data", workspace["prefix"], "--out", tmp_path]) == 4

    def test_corrupt_checkpoint_is_io_error(self, workspace, tmp_path):
        bad = tmp_path / "bad.ckpt"
        bad.write_text("scrambled\n")
        assert run(["eval", "--ckpt", bad, "--data", workspace["prefix"],
                    "--out", tmp_path]) == 4

    @pytest.mark.parametrize("meta", [{"family": "bogus"}, {"beta": "0.0"},
                                      {"family": "double_poisson", "beta": "2.0"},
                                      {"family": "poisson"}])
    def test_bad_family_tag_is_io_error(self, workspace, tmp_path, meta):
        """A family or beta tag that names no loss, or a family whose head
        count differs from the checkpoint's (two heads here), exits 4."""
        w = network.init_mlp(network.MLPConfig(input_dim=1, hidden_widths=(), head_count=2))
        ckpt = tmp_path / "tagged.ckpt"
        network.save_checkpoint(w, meta, ckpt)
        assert run(["eval", "--ckpt", ckpt, "--data", workspace["prefix"],
                    "--out", tmp_path]) == 4

    def test_support_cap_hit_is_numeric_error(self, workspace, tmp_path, capsys):
        """A model predicting DP(2e4, 1) everywhere needs more PMF support than
        the 10000-term cap; the run fails with exit 3 instead of truncating."""
        w = network.init_mlp(network.MLPConfig(input_dim=1, hidden_widths=(), head_count=2))
        w.head_w[:] = 0.0
        w.head_b[:] = (np.log(2e4), 0.0)
        ckpt = tmp_path / "wide.ckpt"
        network.save_checkpoint(w, {"family": "double_poisson", "beta": "0.0",
                                    "input_dim": "1"}, ckpt)
        assert run(["eval", "--ckpt", ckpt, "--data", workspace["prefix"],
                    "--out", tmp_path]) == 3
        assert "hard_cap" in capsys.readouterr().err
        assert not (tmp_path / "reports" / "eval_metrics.json").exists()


class TestEnsembleEval:
    def test_metrics_and_decomposition(self, workspace, tmp_path):
        assert run(["ensemble-eval", "--manifest", workspace["manifest"],
                    "--data", workspace["prefix"], "--tag", "ens",
                    "--out", tmp_path]) == 0
        payload = json.loads((tmp_path / "reports" / "ens_metrics.json").read_text())
        assert set(payload) == {"mae", "crps_mean", "median_precision"}
        lines = (tmp_path / "reports" / "ens_decomposition.csv").read_text().strip().splitlines()
        assert lines[0] == "x,mean,aleatoric,epistemic,q025,q975"
        assert len(lines) == 1 + 6  # 10 percent of 60 rows in the test split
        cells = np.array([float(v) for v in lines[1].split(",")])
        assert cells[2] >= 0.0 and cells[3] >= 0.0
        assert cells[4] <= cells[5]

    def test_corrupt_manifest_is_io_error(self, workspace, tmp_path):
        bad = tmp_path / "bad.manifest"
        bad.write_text("nonsense\n")
        assert run(["ensemble-eval", "--manifest", bad,
                    "--data", workspace["prefix"], "--out", tmp_path]) == 4

    def test_unknown_moments_mode_exits_2(self, workspace, tmp_path):
        assert run(["ensemble-eval", "--manifest", workspace["manifest"],
                    "--data", workspace["prefix"], "--moments-mode", "nonsense",
                    "--out", tmp_path]) == 2
        assert not (tmp_path / "reports").exists()


class TestOod:
    def test_report_and_determinism(self, workspace, tmp_path):
        for sub in ("a", "b"):
            assert run(["ood", "--manifest", workspace["manifest"],
                        "--data", workspace["prefix"], "--n-repeats", 2,
                        "--alpha-points", 21, "--ood-n", 30, "--seed", 4,
                        "--out", tmp_path / sub]) == 0
        a = (tmp_path / "a" / "reports" / "ood_ood.json").read_bytes()
        b = (tmp_path / "b" / "reports" / "ood_ood.json").read_bytes()
        assert a == b
        payload = json.loads(a)
        assert set(payload) == {"auroc", "aupr", "fpr80", "n_repeats"}
        assert set(payload["auroc"]) == {"mean", "std"}
        assert payload["n_repeats"] == 2

    def test_explicit_ood_file(self, workspace, tmp_path):
        ood_csv = tmp_path / "ood.csv"
        lines = ["x,y"] + [f"{x},0" for x in np.linspace(12.0, 15.0, 25)]
        ood_csv.write_text("\n".join(lines) + "\n")
        assert run(["ood", "--manifest", workspace["manifest"],
                    "--data", workspace["prefix"], "--ood-data", ood_csv,
                    "--n-repeats", 2, "--alpha-points", 11,
                    "--out", tmp_path]) == 0
        assert (tmp_path / "reports" / "ood_ood.json").exists()

    def test_overflowed_row_ranks_most_out_of_distribution(self, workspace, tmp_path):
        """An input far past the training range overflows its variance: it
        scores +inf, not nan, and the run stays finite and warning-free."""
        ens = ensemble.load_ensemble(workspace["manifest"])
        assert ensemble.variance_scores(ens, [[1.85e17]])[0] == np.inf
        ood_csv = tmp_path / "ood.csv"
        ood_csv.write_text("x,y\n12.0,0\n13.0,1\n1.85e17,0\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert run(["ood", "--manifest", workspace["manifest"],
                        "--data", workspace["prefix"], "--ood-data", ood_csv,
                        "--n-repeats", 2, "--out", tmp_path]) == 0
        payload = json.loads((tmp_path / "reports" / "ood_ood.json").read_text())
        assert all(math.isfinite(v) for key in ("auroc", "aupr", "fpr80")
                   for v in payload[key].values())

    def test_non_integer_ood_label_is_format_error(self, workspace, tmp_path, capsys):
        ood_csv = tmp_path / "ood.csv"
        ood_csv.write_text("x,y\n12.0,0\n13.0,2.5\n")
        assert run(["ood", "--manifest", workspace["manifest"],
                    "--data", workspace["prefix"], "--ood-data", ood_csv,
                    "--out", tmp_path]) == 4
        assert "i/o error" in capsys.readouterr().err


class TestMomentsGrid:
    def test_grid_csv(self, tmp_path):
        assert run(["moments-grid", "--mu-min", 1, "--mu-max", 10,
                    "--mu-points", 3, "--var-min", 1, "--var-max", 10,
                    "--var-points", 3, "--out", tmp_path]) == 0
        lines = (tmp_path / "reports" / "moments_grid.csv").read_text().strip().splitlines()
        assert lines[0] == "mu0,var0,eps1,eps2"
        assert len(lines) == 1 + 9
        from ddpnkit import moments

        mu0, var0, e1, e2 = (float(v) for v in lines[1].split(","))
        assert (mu0, var0) == (1.0, 1.0)
        got = moments.mdf_epsilon(mu0, var0)
        assert abs(got[0] - e1) < 1e-15
        assert abs(got[1] - e2) < 1e-15
        # the default range at 5 points hits 0.01, 0.1, 1, 10 and 100, where
        # the Poisson diagonal var0 = mu0 has zero deviation up to rounding
        assert run(["moments-grid", "--mu-points", 5, "--var-points", 5,
                    "--tag", "default", "--out", tmp_path]) == 0
        lines = (tmp_path / "reports" / "default_grid.csv").read_text().strip().splitlines()
        table = np.array([[float(v) for v in line.split(",")] for line in lines[1:]])
        diag = table[table[:, 0] == table[:, 1]]
        assert diag.shape == (5, 4)
        assert np.all(diag[:, 2:] <= 1e-9)

    @pytest.mark.parametrize("flag", ["--mu-min", "--mu-max", "--var-min", "--var-max"])
    @pytest.mark.parametrize("value", [0, -1, "nan", "inf"])
    def test_axis_ends_must_be_positive(self, tmp_path, capsys, flag, value):
        assert run(["moments-grid", flag, value, "--mu-points", 2, "--var-points", 2,
                    "--out", tmp_path]) == 2
        assert f"{flag} must be finite and positive" in capsys.readouterr().err
        assert not (tmp_path / "reports").exists()

    @pytest.mark.parametrize("flag", ["--mu-points", "--var-points"])
    def test_axis_points_must_be_positive(self, tmp_path, flag):
        assert run(["moments-grid", flag, -1, "--out", tmp_path]) == 2


class TestAttenuationDemo:
    def test_trace_csv(self, tmp_path):
        assert run(["attenuation-demo", "--n", 40, "--epochs", 2,
                    "--hidden", "4", "--out", tmp_path]) == 0
        lines = (tmp_path / "reports" / "attenuation_trace.csv").read_text().strip().splitlines()
        assert lines[0] == "epoch,mu_at_1,gamma_at_1,mu_at_10,gamma_at_10"
        assert len(lines) == 1 + 2
        first = lines[1].split(",")
        assert first[0] == "1"
        assert all(float(v) > 0.0 for v in first[1:])


class TestOptionMerging:
    def test_config_file_supplies_values(self, tmp_path):
        conf = tmp_path / "run.ini"
        conf.write_text("[simulate]\nprocess = misspec-nb\nn = 50\nseed = 2\n")
        assert run(["simulate", "--config", conf, "--out", tmp_path]) == 0
        assert (tmp_path / "data" / "misspec_nb_seed2_train.csv").exists()

    def test_flags_override_config(self, tmp_path):
        conf = tmp_path / "run.ini"
        conf.write_text("[simulate]\nprocess = misspec-nb\nn = 50\nseed = 2\n")
        assert run(["simulate", "--config", conf, "--seed", 3,
                    "--out", tmp_path]) == 0
        assert (tmp_path / "data" / "misspec_nb_seed3_train.csv").exists()

    def test_out_from_config(self, tmp_path):
        conf = tmp_path / "run.ini"
        conf.write_text(f"[simulate]\nprocess = misspec-nb\nn = 50\nout = {tmp_path / 'elsewhere'}\n")
        assert run(["simulate", "--config", conf]) == 0
        assert (tmp_path / "elsewhere" / "data" / "misspec_nb_seed0_train.csv").exists()

    def test_unknown_config_key(self, tmp_path):
        conf = tmp_path / "run.ini"
        conf.write_text("[simulate]\nprocess = misspec-nb\nbogus = 1\n")
        assert run(["simulate", "--config", conf, "--out", tmp_path]) == 2

    def test_unreadable_config(self, tmp_path):
        assert run(["simulate", "--process", "misspec-nb",
                    "--config", tmp_path / "ghost.ini", "--out", tmp_path]) == 2

    def test_missing_required_option(self, tmp_path):
        assert run(["simulate", "--out", tmp_path]) == 2

    def test_bad_value(self, tmp_path):
        assert run(["simulate", "--process", "misspec-nb", "--n", "many",
                    "--out", tmp_path]) == 2

    def test_unknown_command_exits_2(self):
        with pytest.raises(SystemExit) as err:
            run(["bogus-cmd"])
        assert err.value.code == 2

    def test_unknown_flag_exits_2(self, tmp_path):
        with pytest.raises(SystemExit) as err:
            run(["simulate", "--process", "misspec-nb", "--frobnicate", 1])
        assert err.value.code == 2


class TestImport:
    def test_cli_import_leaves_scipy_stats_out(self):
        """scipy.stats costs most of a child's start-up and memory; the CLI
        must not import it."""
        src = os.path.dirname(os.path.dirname(os.path.abspath(ddpnkit.__file__)))
        env = dict(os.environ, PYTHONPATH=src)
        code = "import ddpnkit.cli, sys; assert 'scipy.stats' not in sys.modules"
        done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                              text=True, check=False)
        assert done.returncode == 0, done.stderr

    def test_double_poisson_pipeline_runs_without_scipy(self, tmp_path):
        """scipy.special and multiprocessing cost every CLI child start-up
        time. Importing the CLI loads neither, and a whole Double Poisson
        (and Poisson) pipeline runs without scipy; the negative binomial and
        Gaussian paths load it on first use. A fresh interpreter, so no other
        test has imported scipy first."""
        script = PIPELINE_SCRIPT.format(root=str(tmp_path))
        src = os.path.dirname(os.path.dirname(os.path.abspath(ddpnkit.__file__)))
        env = dict(os.environ, PYTHONPATH=src)
        done = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                              text=True, check=False)
        assert done.returncode == 0, done.stderr


PIPELINE_SCRIPT = """
import sys
from ddpnkit import cli

def loaded(*names):
    return [m for m in sys.modules if m.split(".")[0] in names]

def run(*argv):
    code = cli.main([str(a) for a in argv])
    assert code == 0, (argv, code)

assert not loaded("scipy", "multiprocessing"), loaded("scipy", "multiprocessing")
root = {root!r}
prefix = root + "/data/sine_conflation_seed0"
ckpt = root + "/ckpt/"
run("simulate", "--process", "sine-conflation", "--n-train", 40, "--n-val", 10,
    "--n-test", 20, "--out", root)
run("train", "--data", prefix, "--epochs", 2, "--hidden", "4", "--members", 2,
    "--jobs", 1, "--tag", "dp", "--out", root)
run("eval", "--ckpt", ckpt + "dp_member0.ckpt", "--data", prefix, "--out", root)
run("ensemble-eval", "--manifest", ckpt + "dp.manifest", "--data", prefix, "--out", root)
run("ood", "--manifest", ckpt + "dp.manifest", "--data", prefix, "--ood-n", 20,
    "--n-repeats", 2, "--alpha-points", 11, "--out", root)
run("moments-grid", "--mu-points", 4, "--var-points", 4, "--out", root)
run("train", "--data", prefix, "--family", "poisson", "--epochs", 2, "--hidden", "4",
    "--tag", "poisson", "--out", root)
run("eval", "--ckpt", ckpt + "poisson_member0.ckpt", "--data", prefix, "--out", root)
assert not loaded("scipy", "multiprocessing"), loaded("scipy", "multiprocessing")
for family in ("neg_binomial", "gaussian"):
    run("train", "--data", prefix, "--family", family, "--epochs", 2, "--hidden", "4",
        "--tag", family, "--out", root)
    run("eval", "--ckpt", ckpt + family + "_member0.ckpt", "--data", prefix, "--out", root)
assert "scipy.special" in sys.modules
"""
