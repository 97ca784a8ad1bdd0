"""End-to-end command line flows, option merging, and exit codes.

Training configurations here are deliberately tiny; the goal is wiring,
not model quality.
"""

import itertools
import json
import math
import os
import re
import shutil
import subprocess
import sys
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import ddpnkit
from ddpnkit import cli, datagen, distributions, ensemble, errors, moments, network
from ddpnkit.losses import LossSpec
from test_acceptance import _run_pipeline


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

    def test_jobs_beyond_members_start_no_extra_workers(self, workspace, tmp_path, monkeypatch):
        """--jobs above --members asks the pool for one worker per member; the
        pool is a fake that records its size and runs the members in turn."""
        import concurrent.futures

        sizes = []

        class SerialPool:
            def __init__(self, max_workers):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, items):
                return map(fn, items)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", SerialPool)
        assert run(["train", "--data", workspace["prefix"], "--epochs", 2, "--hidden", "4",
                    "--members", 2, "--jobs", 500, "--tag", "m", "--out", tmp_path]) == 0
        assert sizes == [2]
        for member in (0, 1):
            name = f"ckpt/m_member{member}.ckpt"
            assert (tmp_path / name).read_bytes() == (workspace["root"] / name).read_bytes()

    def test_divergence_exits_3_and_leaves_no_checkpoints(self, workspace, tmp_path):
        assert run(["train", "--data", workspace["prefix"], "--epochs", 1,
                    "--hidden", "4", "--lr", 1e12, "--tag", "boom",
                    "--out", tmp_path]) == 3
        assert not (tmp_path / "ckpt").exists()

    def test_no_finite_validation_loss_exits_3(self, workspace, tmp_path, capsys):
        """One step at lr 1e308 leaves no epoch with a finite validation loss;
        the run fails instead of saving the untrained weights."""
        out = tmp_path / "out"
        assert run(["train", "--data", workspace["prefix"], "--epochs", 1, "--hidden", "4",
                    "--batch-size", 64, "--lr", 1e308, "--out", out]) == 3
        assert "finite validation loss" in capsys.readouterr().err
        assert not out.exists()

    def test_failed_write_changes_no_output(self, workspace, tmp_path, capsys):
        """A write that fails (reports/ is a file here, so the report's folder
        cannot be made) leaves no checkpoint written before it and no .tmp."""
        (tmp_path / "reports").write_text("in the way\n")
        assert run(["train", "--data", workspace["prefix"], "--epochs", 1, "--hidden", "4",
                    "--out", tmp_path]) == 4
        assert "i/o error" in capsys.readouterr().err
        assert [p.name for p in tmp_path.rglob("*") if p.is_file()] == ["reports"]

    def test_failing_checkpoint_render_changes_no_output(self, workspace, tmp_path,
                                                         monkeypatch, capsys):
        """A checkpoint that fails to render after an earlier one was written
        leaves the earlier run's outputs as they were and no .tmp file."""
        argv = ["train", "--data", workspace["prefix"], "--epochs", 1, "--hidden", "4",
                "--members", 2, "--out", tmp_path]
        assert run(argv) == 0
        before = {p: p.read_bytes() for p in tmp_path.rglob("*") if p.is_file()}
        rendered = []
        render = network.render_checkpoint

        def failing(weights, meta):
            if rendered:
                raise OSError("device full")
            rendered.append(render(weights, meta))
            return rendered[-1]

        monkeypatch.setattr(network, "render_checkpoint", failing)
        assert run(argv + ["--seed", 7]) == 4
        assert "device full" in capsys.readouterr().err
        assert {p: p.read_bytes() for p in tmp_path.rglob("*") if p.is_file()} == before

    def test_checkpoints_rendered_one_at_a_time(self, tmp_path):
        """train renders each checkpoint when the writer reaches its file,
        and keeps no member's final weights beside its best: tracemalloc's
        peak over a 2-member, 1-epoch run of the (128,128,128,64) network
        stays under 2.75 MB (about 2.52 MB; 2.68 MB when each report kept
        its final weights and train loaded ensemble, 4.9 MB when every
        checkpoint's text was held before the first write)."""
        assert run(["simulate", "--process", "sine-conflation", "--out", tmp_path]) == 0
        argv = ["train", "--data", tmp_path / "data" / "sine_conflation_seed0",
                "--hidden", "128,128,128,64", "--members", 2, "--epochs", 1,
                "--out", tmp_path]
        tracemalloc.start()
        try:
            assert run(argv) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2.75e6, f"train traced peak {peak / 1e6:.2f} MB"

    def test_missing_data_prefix(self, tmp_path):
        assert run(["train", "--data", tmp_path / "ghost", "--out", tmp_path]) == 2

    @staticmethod
    def copied_prefix(workspace, tmp_path):
        """A copy of the workspace's three split CSVs under a new prefix."""
        prefix = tmp_path / "data" / "copy"
        prefix.parent.mkdir()
        for part in ("train", "val", "test"):
            shutil.copy(f"{workspace['prefix']}_{part}.csv", f"{prefix}_{part}.csv")
        return prefix

    def test_never_opens_the_test_file(self, workspace, tmp_path):
        """A test CSV that does not parse changes nothing: the run writes the
        checkpoints it writes with no test file at all."""
        prefix = self.copied_prefix(workspace, tmp_path)
        with open(f"{prefix}_test.csv", "a") as fh:
            fh.write("0.5,oops\n")
        argv = ["train", "--data", prefix, "--epochs", 1, "--hidden", "4", "--out"]
        assert run(argv + [tmp_path / "bad"]) == 0
        os.remove(f"{prefix}_test.csv")
        assert run(argv + [tmp_path / "gone"]) == 0
        written = sorted(p.name for p in (tmp_path / "gone" / "ckpt").iterdir())
        assert written == sorted(p.name for p in (tmp_path / "bad" / "ckpt").iterdir())
        for name in written:
            assert ((tmp_path / "bad" / "ckpt" / name).read_bytes()
                    == (tmp_path / "gone" / "ckpt" / name).read_bytes())

    @pytest.mark.parametrize("part", ["train", "val"])
    def test_missing_train_or_val_file(self, workspace, tmp_path, capsys, part):
        prefix = self.copied_prefix(workspace, tmp_path)
        os.remove(f"{prefix}_{part}.csv")
        assert run(["train", "--data", prefix, "--epochs", 1, "--hidden", "4",
                    "--out", tmp_path]) == 2
        assert f"missing dataset file {prefix}_{part}.csv" in capsys.readouterr().err

    @pytest.mark.parametrize("row", ["1_0,2_0", "٣.5,٣"])
    def test_separator_or_non_ascii_row_exits_4(self, workspace, tmp_path, capsys, row):
        """A train CSV row that float() and int() would read as (10.0, 20)
        or (3.5, 3) does not parse, and the run writes nothing."""
        prefix = self.copied_prefix(workspace, tmp_path)
        with open(f"{prefix}_train.csv", "a", encoding="utf-8") as fh:
            fh.write(row + "\n")
        assert run(["train", "--data", prefix, "--epochs", 1, "--hidden", "4",
                    "--out", tmp_path / "out"]) == 4
        assert "cannot parse row" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

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
        w = network.init_mlp(1, (), 2, 0)
        ckpt = tmp_path / "tagged.ckpt"
        ckpt.write_text(network.render_checkpoint(w, meta))
        assert run(["eval", "--ckpt", ckpt, "--data", workspace["prefix"],
                    "--out", tmp_path]) == 4

    def test_support_cap_hit_is_numeric_error(self, workspace, tmp_path, capsys):
        """A model predicting DP(1e5, 1) everywhere needs more PMF support than
        the 65536-term cap; the run fails with exit 3 instead of truncating."""
        w = network.init_mlp(1, (), 2, 0)
        w.layers[-1][0][:] = 0.0
        w.layers[-1][1][:] = (np.log(1e5), 0.0)
        ckpt = tmp_path / "wide.ckpt"
        ckpt.write_text(network.render_checkpoint(
            w, {"family": "double_poisson", "beta": "0.0", "input_dim": "1"}))
        assert run(["eval", "--ckpt", ckpt, "--data", workspace["prefix"],
                    "--out", tmp_path]) == 3
        assert "cannot be summed within 65536 terms" in capsys.readouterr().err
        assert not (tmp_path / "reports" / "eval_metrics.json").exists()

    def test_overflowed_heads_are_numeric_errors(self, workspace, tmp_path, capsys):
        """A test row so far out (x = 1e300) that the heads overflow out of the
        family's parameter domain exits 3, as numeric overflow, naming the
        row, in eval and ensemble-eval alike, and writes no report."""
        prefix = tmp_path / "far"
        for split in ("train", "val"):
            shutil.copy(f"{workspace['prefix']}_{split}.csv", f"{prefix}_{split}.csv")
        (tmp_path / "far_test.csv").write_text("x,y\n0.5,1\n1e300,2\n")
        for argv in (["eval", "--ckpt", workspace["root"] / "ckpt" / "m_member0.ckpt"],
                     ["ensemble-eval", "--manifest", workspace["manifest"]]):
            assert run(argv + ["--data", prefix, "--out", tmp_path / "out"]) == 3
            assert "at row 1" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()


    @pytest.mark.parametrize("member", ["trained_dp", "nb_tiny_alpha"])
    def test_matches_one_member_ensemble_eval(self, workspace, tmp_path, member):
        """eval of a checkpoint writes the metrics JSON of ensemble-eval over a
        one-member manifest of it, byte for byte: both read the variances off
        the heads in log space. At log alpha = -22 the negative binomial's
        (r, p) parameters lose (1 - p)'s digits, and a variance read back from
        them is off by about 4e-8 relative."""
        if member == "trained_dp":  # member 1's median precision moved in the last bit
            ckpt = workspace["root"] / "ckpt" / "m_member1.ckpt"
            spec = LossSpec("double_poisson")
        else:
            w = network.init_mlp(1, (), 2, 0)
            w.layers[-1][0][:] = 0.0
            w.layers[-1][1][:] = (np.log(5.0), -22.0)
            ckpt = tmp_path / "nb.ckpt"
            ckpt.write_text(network.render_checkpoint(
                w, {"family": "neg_binomial", "beta": "0.0", "input_dim": "1"}))
            spec = LossSpec("neg_binomial")
        manifest = tmp_path / "one.manifest"
        manifest.write_text(network.render_manifest([ckpt], spec))
        assert run(["eval", "--ckpt", ckpt, "--data", workspace["prefix"],
                    "--tag", "single", "--out", tmp_path]) == 0
        assert run(["ensemble-eval", "--manifest", manifest, "--data", workspace["prefix"],
                    "--tag", "mixture", "--out", tmp_path]) == 0
        reports = tmp_path / "reports"
        assert ((reports / "single_metrics.json").read_bytes()
                == (reports / "mixture_metrics.json").read_bytes())


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

    def test_one_forward_pass_per_member_and_input_set(self, workspace, tmp_path,
                                                        monkeypatch):
        """ensemble-eval reads its distributions, scores and table off one
        pass of each member over the test rows; ood runs one pass of each
        member over the ID rows and one over the OOD rows."""
        members = len(ensemble.load_ensemble(workspace["manifest"]).members)
        rows = []

        def counted(weights, X):
            rows.append(len(X))
            return network.forward_batch(weights, X)

        monkeypatch.setattr(ensemble, "forward_batch", counted)
        assert run(["ensemble-eval", "--manifest", workspace["manifest"],
                    "--data", workspace["prefix"], "--out", tmp_path]) == 0
        assert rows == [6] * members
        rows.clear()
        assert run(["ood", "--manifest", workspace["manifest"], "--data", workspace["prefix"],
                    "--n-repeats", 2, "--alpha-points", 11, "--ood-n", 30,
                    "--out", tmp_path]) == 0
        assert rows == [6] * members + [30] * members

    def test_exact_series_moments_summed_once(self, workspace, tmp_path, monkeypatch):
        """With --moments-mode exact_series the series engine runs once: the
        PMF supports, the scores and the table read one pass over the
        member cells."""
        calls = []
        series = distributions._series

        def counted(*args):
            calls.append(args[0])
            return series(*args)

        monkeypatch.setattr(distributions, "_series", counted)
        assert run(["ensemble-eval", "--manifest", workspace["manifest"],
                    "--data", workspace["prefix"], "--moments-mode", "exact_series",
                    "--out", tmp_path]) == 0
        assert len(calls) == 1

    @pytest.mark.parametrize("mode", ["efron_approx", "exact_series"])
    def test_member_moments_decomposed_once(self, workspace, tmp_path, monkeypatch, mode):
        """The scores and the decomposition table read one decomposition of
        the member moments, and the table holds its bits and the mixture
        interval ends."""
        calls = []
        decompose = ensemble.decompose_variance

        def counted(*args):
            calls.append(len(args))
            return decompose(*args)

        monkeypatch.setattr(ensemble, "decompose_variance", counted)
        assert run(["ensemble-eval", "--manifest", workspace["manifest"],
                    "--data", workspace["prefix"], "--moments-mode", mode,
                    "--out", tmp_path]) == 0
        assert calls == [2]
        test_x, _ = datagen.read_dataset_csv(f"{workspace['prefix']}_test.csv")
        heads = ensemble.member_heads(ensemble.load_ensemble(workspace["manifest"]), test_x)
        dec = decompose(*heads.moments(mode))
        ends = distributions.predictive_summary(heads.batch, levels=ensemble.INTERVAL).quantiles
        rows = [",".join(map(repr, row)) for row in zip(
            test_x[:, 0].tolist(), dec.mean.tolist(), dec.aleatoric.tolist(),
            dec.epistemic.tolist(), *ends.tolist())]
        csv = (tmp_path / "reports" / "ensemble_decomposition.csv").read_text().splitlines()
        assert csv[1:] == rows

    def test_directory_in_the_way_changes_no_output(self, workspace, tmp_path, capsys):
        """An output path that is an existing directory is refused before any
        file is written: the run exits 4, the metrics written by an earlier
        run stay as they were, and no .tmp file is left."""
        reports = tmp_path / "reports"
        (reports / "ens_decomposition.csv").mkdir(parents=True)
        (reports / "ens_metrics.json").write_text("sentinel\n")
        assert run(["ensemble-eval", "--manifest", workspace["manifest"],
                    "--data", workspace["prefix"], "--tag", "ens", "--out", tmp_path]) == 4
        assert "i/o error" in capsys.readouterr().err
        assert (reports / "ens_metrics.json").read_text() == "sentinel\n"
        assert not list(tmp_path.rglob("*.tmp"))

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
        assert ensemble.member_heads(ens, [[1.85e17]]).scores()[0] == np.inf
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


class TestDatasetCells:
    @pytest.mark.parametrize("row", [" 1.5,3", "1.5 ,3", "+1.5,3", "1.5, 3", "1.5,+3",
                                     "1.5,3 ", "1.5,-0", "inf,3", "nan,3", ".5,3", "1.5,0x3"])
    def test_padded_or_signed_cell_is_format_error(self, workspace, tmp_path, capsys, row):
        """A label is ASCII digits and an input a plain decimal as repr writes
        it; float() and int() would take the spaces and signs of these rows.
        train --data and ood --ood-data both exit 4 and write nothing."""
        prefix = tmp_path / "d"
        for split in ("train", "val"):
            shutil.copy(f"{workspace['prefix']}_{split}.csv", f"{prefix}_{split}.csv")
        with open(f"{prefix}_train.csv", "a") as fh:
            fh.write(row + "\n")
        ood_csv = tmp_path / "ood.csv"
        ood_csv.write_text(f"x,y\n12.0,0\n{row}\n")
        for argv in (["train", "--data", prefix, "--epochs", 1, "--hidden", "4"],
                     ["ood", "--manifest", workspace["manifest"], "--data", workspace["prefix"],
                      "--ood-data", ood_csv, "--n-repeats", 2, "--alpha-points", 11]):
            assert run(argv + ["--out", tmp_path / "out"]) == 4
            assert "cannot parse row" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()


class TestScoringInputs:
    @staticmethod
    def scoring_argvs(workspace):
        """eval, ensemble-eval and ood of the workspace models, less --data and --out."""
        return (["eval", "--ckpt", workspace["root"] / "ckpt" / "m_member0.ckpt"],
                ["ensemble-eval", "--manifest", workspace["manifest"]],
                ["ood", "--manifest", workspace["manifest"], "--n-repeats", 2,
                 "--alpha-points", 11])

    def test_only_the_test_csv_is_read(self, workspace, tmp_path):
        """eval, ensemble-eval and ood score a prefix holding only
        <prefix>_test.csv, and write what they write for the full prefix."""
        prefix = tmp_path / "only"
        shutil.copy(f"{workspace['prefix']}_test.csv", f"{prefix}_test.csv")
        for argv in self.scoring_argvs(workspace):
            for data, out in ((prefix, "only_out"), (workspace["prefix"], "full_out")):
                assert run(argv + ["--data", data, "--tag", argv[0], "--out", tmp_path / out]) == 0
        names = sorted(os.listdir(tmp_path / "full_out" / "reports"))
        assert names == sorted(os.listdir(tmp_path / "only_out" / "reports"))
        assert len(names) == 4
        for name in names:
            assert ((tmp_path / "only_out" / "reports" / name).read_bytes()
                    == (tmp_path / "full_out" / "reports" / name).read_bytes())

    @pytest.mark.parametrize("test_csv", [None, "x,y\n"])
    def test_missing_or_empty_test_csv_exits_2(self, workspace, tmp_path, capsys, test_csv):
        prefix = tmp_path / "d"
        for split in ("train", "val"):
            shutil.copy(f"{workspace['prefix']}_{split}.csv", f"{prefix}_{split}.csv")
        if test_csv is not None:
            (tmp_path / "d_test.csv").write_text(test_csv)
        for argv in self.scoring_argvs(workspace):
            assert run(argv + ["--data", prefix, "--out", tmp_path / "out"]) == 2
            assert f"no test rows found under prefix {prefix}" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()


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

    def test_renderer_failing_mid_stream_changes_no_output(self, tmp_path, monkeypatch,
                                                          capsys):
        """A CSV renderer that raises after part of its file is written leaves
        the earlier run's output as it was and no .tmp file."""
        argv = ["moments-grid", "--mu-points", 40, "--var-points", 40, "--out", tmp_path]
        assert run(argv) == 0
        before = {p: p.read_bytes() for p in tmp_path.rglob("*") if p.is_file()}
        chunks = moments.grid_csv_chunks

        def failing(grid):
            yield from itertools.islice(chunks(grid), 2)
            raise OSError("device full")

        monkeypatch.setattr(moments, "grid_csv_chunks", failing)
        assert run(argv) == 4
        assert "device full" in capsys.readouterr().err
        assert {p: p.read_bytes() for p in tmp_path.rglob("*") if p.is_file()} == before

    def test_grid_csv_streams_to_disk(self, tmp_path, monkeypatch):
        """The 3.1 MB CSV of a 200x200 grid is never held whole: tracemalloc's
        peak while it is written stays under 3.5 MB (about 1.6 MB streamed;
        6.5 MB when its text is joined before the write)."""
        peaks = []
        write = cli._write_text

        def measured(path, chunks):
            tracemalloc.reset_peak()
            write(path, chunks)
            peaks.append(tracemalloc.get_traced_memory()[1])

        monkeypatch.setattr(cli, "_write_text", measured)
        tracemalloc.start()
        try:
            assert run(["moments-grid", "--mu-points", 200, "--var-points", 200,
                        "--out", tmp_path]) == 0
        finally:
            tracemalloc.stop()
        assert (tmp_path / "reports" / "moments_grid.csv").stat().st_size > 3e6
        assert len(peaks) == 1 and peaks[0] < 3.5e6, f"write peak {peaks[0] / 1e6:.2f} MB"

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

    @pytest.mark.parametrize("axis", ["mu", "var"])
    def test_axis_must_not_descend(self, tmp_path, capsys, axis):
        """A minimum above its maximum is refused, as ood refuses a reversed range."""
        assert run(["moments-grid", f"--{axis}-min", 10, f"--{axis}-max", 1,
                    "--mu-points", 2, "--var-points", 2, "--out", tmp_path]) == 2
        assert f"--{axis}-min must not exceed --{axis}-max" in capsys.readouterr().err
        assert not (tmp_path / "reports").exists()

    @pytest.mark.parametrize("tag", ["../../escape", "a/b", ""])
    def test_tag_names_files_inside_out(self, tmp_path, capsys, tag):
        """A tag is a file name stem: an empty one, or one holding a path
        separator, is a usage error, and no file appears inside --out or
        outside it."""
        assert run(["moments-grid", "--mu-points", 2, "--var-points", 2, "--tag", tag,
                    "--out", tmp_path / "a" / "b"]) == 2
        assert "--tag must be" in capsys.readouterr().err
        assert list(tmp_path.rglob("*")) == []


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

    def test_overflowed_probe_reads_inf(self, tmp_path):
        """Heads that overflow at a far probe are written as inf, without a
        RuntimeWarning (which pytest turns into an error)."""
        assert run(["attenuation-demo", "--n", 30, "--epochs", 1, "--hidden", "4",
                    "--probe-x", "1e308", "--out", tmp_path]) == 0
        lines = (tmp_path / "reports" / "attenuation_trace.csv").read_text().splitlines()
        assert lines[0] == "epoch,mu_at_1e+308,gamma_at_1e+308"
        assert math.inf in [float(v) for v in lines[1].split(",")]


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

    def test_explicit_out_dot_beats_config(self, tmp_path, monkeypatch):
        conf = tmp_path / "run.ini"
        conf.write_text(f"[simulate]\nprocess = misspec-nb\nn = 50\nout = {tmp_path / 'elsewhere'}\n")
        monkeypatch.chdir(tmp_path)
        assert run(["simulate", "--config", conf, "--out", "."]) == 0
        assert (tmp_path / "data" / "misspec_nb_seed0_train.csv").exists()
        assert not (tmp_path / "elsewhere").exists()

    def test_unknown_config_key(self, tmp_path):
        conf = tmp_path / "run.ini"
        conf.write_text("[simulate]\nprocess = misspec-nb\nbogus = 1\n")
        assert run(["simulate", "--config", conf, "--out", tmp_path]) == 2

    def test_unreadable_config(self, tmp_path):
        assert run(["simulate", "--process", "misspec-nb",
                    "--config", tmp_path / "ghost.ini", "--out", tmp_path]) == 2

    @pytest.mark.parametrize("text", [b"seed=3\n", b"[simulate]\nseed\n",
                                      b"[simulate]\n[simulate]\n", b"\xff\xfe[x"])
    def test_malformed_config_is_a_usage_error(self, tmp_path, text):
        conf = tmp_path / "bad.ini"
        conf.write_bytes(text)
        assert run(["simulate", "--process", "misspec-nb", "--config", conf,
                    "--out", tmp_path]) == 2
        assert not (tmp_path / "data").exists()

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


class TestNumericFlags:
    @pytest.mark.parametrize("argv", [
        ["simulate", "--process", "misspec-poisson", "--seed", -1],
        ["simulate", "--process", "misspec-poisson", "--n", -1],
        ["simulate", "--process", "beta-study", "--n", -1],
        ["train", "--seed", -1],
        ["attenuation-demo", "--n", -1],
        ["ood", "--seed", -1],
        ["ood", "--ood-n", -3],
        ["ood", "--ood-low", "nan"],
        ["ood", "--ood-low", "inf"],
        ["ood", "--ood-low", 10, "--ood-high", 1],
        ["ood", "--ood-low=-1e308", "--ood-high=1e308"],
        ["train", "--lr", "nan"],
        ["train", "--weight-decay", "inf"],
        ["train", "--gamma-bias-init", "nan"],
        ["attenuation-demo", "--lr", "nan"],
        ["attenuation-demo", "--probe-x", "nan"],
        ["attenuation-demo", "--probe-x", "1,inf"],
        ["train", "--tag", "a\nb"],
        ["train", "--tag", "a\udcffb"],  # not UTF-8 text: cannot be written
    ])
    def test_bad_values_are_usage_errors(self, workspace, tmp_path, capsys, argv):
        data = {"train": ["--data", workspace["prefix"], "--epochs", 1, "--hidden", "4"],
                "ood": ["--manifest", workspace["manifest"], "--data", workspace["prefix"]]}
        argv = argv + data.get(argv[0], []) + ["--out", tmp_path]
        assert run(argv) == 2
        assert capsys.readouterr().err.startswith("error: ")
        assert not (tmp_path / "reports").exists()

    @staticmethod
    def draw_flags(data, valid):
        """--flag=VALUE arguments: up to two flags take an edge value, the rest
        a small valid one ("=" keeps "-inf" from being read as a flag)."""
        edges = data.draw(st.sets(st.sampled_from(sorted(valid)), max_size=2), label="edges")
        argv = []
        for flag, values in valid.items():
            value = data.draw(st.sampled_from(EDGE_VALUES) if flag in edges else values,
                              label=flag)
            argv.append(f"{flag}={value}")
        return argv

    @staticmethod
    def run_flags(argv, out):
        """Exit code of the run; a failed run must leave no file under out."""
        code = run(argv + ["--out", out])
        assert code in (0, 2, 3)
        if code != 0:
            assert list(out.rglob("*")) == []
        return code

    @staticmethod
    def finite_json(text):
        def reject(constant):
            raise AssertionError(f"report holds {constant}")
        return json.loads(text, parse_constant=reject)

    @settings(max_examples=30, deadline=None)
    @given(data=st.data(), process=st.sampled_from(
        ("sine-conflation", "misspec-poisson", "misspec-nb", "beta-study")))
    def test_simulate_flags(self, tmp_path_factory, data, process):
        argv = ["simulate", "--process", process] + self.draw_flags(data, {
            flag: st.integers(1, 12) for flag in ("--seed", "--n", "--n-train", "--n-val",
                                                   "--n-test", "--isolated-repeat")})
        self.run_flags(argv, tmp_path_factory.mktemp("sim"))

    @settings(max_examples=30, deadline=None)
    @given(data=st.data())
    def test_moments_grid_flags(self, tmp_path_factory, data):
        axis_end = st.sampled_from((0.5, 1.0, 4.0))
        argv = ["moments-grid"] + self.draw_flags(data, {
            "--mu-min": axis_end, "--mu-max": axis_end, "--var-min": axis_end,
            "--var-max": axis_end, "--mu-points": st.integers(1, 3),
            "--var-points": st.integers(1, 3), "--n-terms": st.integers(2, 40)})
        out = tmp_path_factory.mktemp("grid")
        if self.run_flags(argv, out) == 0:
            lines = (out / "reports" / "moments_grid.csv").read_text().splitlines()[1:]
            assert all(math.isfinite(float(v)) for line in lines for v in line.split(","))

    @settings(max_examples=30, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(data=st.data())
    def test_ood_flags(self, workspace, tmp_path_factory, capsys, data):
        argv = ["ood", "--manifest", workspace["manifest"], "--data", workspace["prefix"]]
        argv += self.draw_flags(data, {
            "--ood-low": st.sampled_from((-5.0, 0.5, 12.0)),
            "--ood-high": st.sampled_from((1.0, 15.0, 40.0)),
            "--ood-n": st.integers(1, 20), "--holdout": st.sampled_from((0.2, 0.5)),
            "--n-repeats": st.integers(1, 3), "--alpha-points": st.integers(2, 11),
            "--seed": st.integers(0, 5)})
        capsys.readouterr()
        if self.run_flags(argv, tmp_path_factory.mktemp("ood")) == 0:
            payload = json.loads(capsys.readouterr().out)
            assert all(math.isfinite(v) for key in ("auroc", "aupr", "fpr80")
                       for v in payload[key].values())

    # flags shared by train and attenuation-demo, at tiny sizes
    TRAINING_FLAGS = {
        "--seed": st.integers(0, 5), "--beta": st.sampled_from((0.0, 0.5, 1.0)),
        "--gamma-bias-init": st.sampled_from((-1.0, 0.0, 3.0)),
        "--epochs": st.integers(1, 2), "--batch-size": st.integers(8, 64),
        "--lr": st.sampled_from((1e-3, 0.05)), "--weight-decay": st.sampled_from((0.0, 1e-5))}

    @settings(max_examples=25, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(data=st.data())
    def test_train_flags(self, workspace, tmp_path_factory, data):
        argv = ["train", "--data", workspace["prefix"], "--hidden", "4"]
        argv += self.draw_flags(data, {**self.TRAINING_FLAGS, "--members": st.integers(1, 2)})
        out = tmp_path_factory.mktemp("train")
        if self.run_flags(argv, out) == 0:
            self.finite_json((out / "reports" / "model_train.json").read_text())
            for ckpt in (out / "ckpt").glob("*.ckpt"):
                network.load_checkpoint(ckpt)  # refuses a tensor that is not finite

    @settings(max_examples=25, deadline=None)
    @given(data=st.data())
    def test_attenuation_demo_flags(self, tmp_path_factory, data):
        argv = ["attenuation-demo", "--hidden", "4"] + self.draw_flags(data, {
            **self.TRAINING_FLAGS, "--n": st.integers(10, 40),
            "--isolated-repeat": st.integers(0, 2),
            "--probe-x": st.sampled_from(("1.0", "-3.5,10.0"))})
        out = tmp_path_factory.mktemp("attenuation")
        if self.run_flags(argv, out) == 0:
            lines = (out / "reports" / "attenuation_trace.csv").read_text().splitlines()[1:]
            cells = [float(v) for line in lines for v in line.split(",")]
            # mu and gamma are exp of the heads; at a probe of 1e308 they may
            # overflow to inf, never to nan
            assert all(v >= 0.0 for v in cells)
            if "--probe-x=1e308" not in argv:
                assert all(math.isfinite(v) for v in cells)


# numeric flag values at and past the edges of every domain
EDGE_VALUES = ("0", "-1", "nan", "inf", "-inf", "1e308")


class TestOneWriter:
    def test_every_output_is_written_once_by_write_text(self, tmp_path, monkeypatch):
        """Across all seven subcommands, the files under --out are exactly
        those cli._write_text wrote, each once, and no .tmp file is left."""
        written = []
        write = cli._write_text

        def recording(path, text):
            written.append(os.path.abspath(path))
            write(path, text)

        monkeypatch.setattr(cli, "_write_text", recording)
        root = tmp_path / "run"
        _run_pipeline(str(root))
        on_disk = sorted(str(p) for p in root.rglob("*") if p.is_file())
        assert sorted(written) == on_disk
        assert len(set(written)) == len(written)
        assert not list(root.rglob("*.tmp"))

    def test_write_text_encodes_a_bounded_slice_at_a_time(self, tmp_path):
        """A 4.6 MB chunk is written byte for byte, and tracemalloc's peak
        while it is written stays under a quarter of its encoded size: the
        file object is handed cli.WRITE_SLICE characters at a time, so the
        chunk is never held beside its whole encoding (the peak was 4.6 MB
        when the chunk went to the file object whole)."""
        text = "".join(f"{i!r},{i / 7!r}\n" for i in range(200_000))
        path = str(tmp_path / "big.txt")
        tracemalloc.start()
        try:
            cli._write_text(path, ("head\n", text))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        expected = ("head\n" + text).encode()
        assert len(expected) > 4e6
        assert (tmp_path / "big.txt.tmp").read_bytes() == expected
        assert peak < len(expected) / 4, f"write peak {peak / 1e6:.2f} MB"


def run_fresh(code: str, **fmt) -> None:
    """Run code in a fresh interpreter that imports ddpnkit from this tree;
    it must exit 0."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(ddpnkit.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    done = subprocess.run([sys.executable, "-c", code.format(**fmt)], env=env,
                          capture_output=True, text=True, check=False)
    assert done.returncode == 0, done.stderr


class TestImport:
    def test_cli_import_leaves_scipy_stats_out(self):
        """scipy.stats costs most of a child's start-up and memory; the CLI
        must not import it."""
        run_fresh("import ddpnkit.cli, sys; assert 'scipy.stats' not in sys.modules")

    def test_cli_import_leaves_configparser_out(self):
        """configparser and its regex compiles load only for a run given
        --config."""
        run_fresh("import ddpnkit.cli, sys; assert 'configparser' not in sys.modules")

    def test_double_poisson_pipeline_runs_without_scipy(self, tmp_path):
        """scipy.special and multiprocessing cost every CLI child start-up
        time. Importing the CLI loads neither, and a whole Double Poisson
        (and Poisson) pipeline runs without scipy; the negative binomial and
        Gaussian paths load it on first use. A fresh interpreter, so no other
        test has imported scipy first."""
        run_fresh(PIPELINE_SCRIPT, root=str(tmp_path))

    def test_each_command_loads_only_its_modules(self, workspace, tmp_path):
        """Importing the CLI loads no package module beyond cli, errors and
        losses, --help loads no datagen, train executes network and datagen
        alone beyond those (no distributions, ensemble, metrics, ood or
        moments), simulate and moments-grid load no network, ensemble,
        metrics or ood, and eval and ood leave numpy.ma out. train runs in an
        interpreter of its own, since the others load what it must not."""
        run_fresh(MODULES_SCRIPT, root=str(tmp_path), ckpt=str(workspace["root"] / "ckpt"),
                  prefix=str(workspace["prefix"]))
        run_fresh(TRAIN_MODULES_SCRIPT, root=str(tmp_path / "train"),
                  prefix=str(workspace["prefix"]))

    def test_benchmark_tracer_sees_every_layer(self, workspace, tmp_path):
        """bench/tracer.py looks up every layer module in sys.modules right
        after ddpnkit.cli is imported, then wraps their public functions: a
        traced train still finds them all and records each checkpoint's
        render_checkpoint call and bytes."""
        bench = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                             "bench")
        run_fresh(TRACER_SCRIPT, bench=bench, prefix=str(workspace["prefix"]),
                  root=str(tmp_path))

    def test_format_errors_share_one_base(self):
        """main maps FileFormatError to exit 4; each file format's error
        derives from it and stays importable from its module."""
        for error in (network.CheckpointFormatError, network.ManifestFormatError,
                      datagen.DatasetFormatError):
            assert issubclass(error, errors.FileFormatError)
        assert issubclass(errors.FileFormatError, errors.DomainError)


class TestReadme:
    def test_library_example_runs(self):
        """The README's one python block (train a 5-member ensemble, read it
        through member_heads, evaluate) runs verbatim in a fresh interpreter."""
        readme = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                              "README.md")
        with open(readme) as fh:
            blocks = re.findall(r"^```python\n(.*?)^```$", fh.read(), re.S | re.M)
        assert len(blocks) == 1
        run_fresh("{block}", block=blocks[0])


LOADED_SCRIPT = """
import sys, types
from ddpnkit import cli

def loaded():
    # a module that cli registered lazily is a ModuleType once it has run
    return {{name.split(".")[1] for name, module in list(sys.modules.items())
            if name.startswith("ddpnkit.") and type(module) is types.ModuleType}}

assert loaded() == {{"cli", "errors", "losses"}}, loaded()
"""


TRAIN_MODULES_SCRIPT = LOADED_SCRIPT + """
assert cli.main(["train", "--data", {prefix!r}, "--epochs", "1", "--hidden", "4",
                 "--out", {root!r}]) == 0
assert loaded() == {{"cli", "errors", "losses", "network", "datagen"}}, loaded()
"""


MODULES_SCRIPT = LOADED_SCRIPT + """
try:
    cli.main(["simulate", "--help"])
except SystemExit:
    pass
assert "datagen" not in loaded(), loaded()
root = {root!r}
for argv in (["simulate", "--process", "sine-conflation", "--n-train", 20, "--n-val", 5,
              "--n-test", 5, "--out", root],
             ["moments-grid", "--mu-points", 3, "--var-points", 3, "--out", root]):
    assert cli.main([str(a) for a in argv]) == 0
assert not loaded() & {{"network", "ensemble", "metrics", "ood"}}, loaded()
assert cli.main(["eval", "--ckpt", {ckpt!r} + "/m_member0.ckpt", "--data", {prefix!r},
                 "--out", root]) == 0
assert "numpy.ma" not in sys.modules
assert cli.main(["ood", "--manifest", {ckpt!r} + "/m.manifest", "--data", {prefix!r},
                 "--out", root]) == 0
assert "numpy.ma" not in sys.modules
"""


TRACER_SCRIPT = """
import os, sys
from ddpnkit import cli
sys.path.insert(0, {bench!r})
from tracer import Tracer

tracer = Tracer()
tracer.install()
argv = ["train", "--data", {prefix!r}, "--epochs", "1", "--hidden", "4", "--members", "2",
        "--out", {root!r}]
assert tracer.wrap("cli.main", cli.main)(argv) == 0
spans = tracer.summary()
assert spans["network.render_checkpoint"]["calls"] == 2, spans.keys()
assert spans["network.train"]["calls"] == 2
ckpt = os.path.join({root!r}, "ckpt")
size = sum(os.path.getsize(os.path.join(ckpt, f"model_member{{m}}.ckpt")) for m in (0, 1))
assert tracer.counters["network.ckpt_bytes"] == size, (tracer.counters, size)
"""


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
