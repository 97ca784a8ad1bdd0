"""Mutated input files end in a typed error, never a traceback.

Valid checkpoint, manifest and dataset CSV files are cut short, get one byte
flipped, or get one cell replaced by a non-number. Each mutated file must
either load or raise its reader's typed error (an OSError too, where a
manifest's member path no longer names a file). The CLI command reading the
file must then exit 4 when the reader refused it, and never end in an
uncaught exception (exit 1) when it loaded.
"""

import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ddpnkit import cli, datagen, ensemble, network

# cell values that are not numbers, or not valid where they land
BAD_CELLS = ("", "x", "nan", "-inf", "1e999", "-3", "2.5", "0x1p3", "1,5", "\x00", "é",
             '"', "99999999999999999999")


@st.composite
def mutations(draw, data: bytes) -> bytes:
    how = draw(st.sampled_from(("truncate", "flip", "cell")))
    if how == "truncate":
        return data[:draw(st.integers(0, len(data) - 1))]
    if how == "flip":
        i = draw(st.integers(0, len(data) - 1))
        return data[:i] + bytes([data[i] ^ draw(st.integers(1, 255))]) + data[i + 1:]
    start, end = draw(st.sampled_from([m.span() for m in re.finditer(rb"[^\s,]+", data)]))
    cell = draw(st.sampled_from(BAD_CELLS) | st.text(max_size=4))
    return data[:start] + cell.encode("utf-8", "surrogatepass") + data[end:]


def run(argv):
    return cli.main([str(a) for a in argv])


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    """A small dataset, a two-member Double Poisson ensemble and the valid
    bytes of one file of each kind."""
    root = tmp_path_factory.mktemp("mut")
    assert run(["simulate", "--process", "sine-conflation", "--n-train", 40, "--n-val", 10,
                "--n-test", 20, "--out", root]) == 0
    prefix = root / "data" / "sine_conflation_seed0"
    assert run(["train", "--data", prefix, "--epochs", 1, "--hidden", "4", "--members", 2,
                "--tag", "m", "--out", root]) == 0
    return {"root": root, "prefix": prefix,
            "ckpt": (root / "ckpt" / "m_member0.ckpt").read_bytes(),
            "manifest": (root / "ckpt" / "m.manifest").read_bytes(),
            "csv": {part: (root / "data" / f"sine_conflation_seed0_{part}.csv").read_bytes()
                    for part in ("train", "val", "test")}}


def check(load, refused, argv):
    """load() either returns or raises one of ``refused``; the CLI run then
    exits 4 if it raised and with a typed exit code otherwise."""
    try:
        load()
    except refused:
        expected = (4,)
    else:
        expected = (0, 2, 3)
    assert run(argv) in expected


class TestMutatedFiles:
    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_checkpoint(self, files, data):
        path = files["root"] / "ckpt" / "mutated.ckpt"
        path.write_bytes(data.draw(mutations(files["ckpt"])))
        check(lambda: ensemble.load_member(path), network.CheckpointFormatError,
              ["eval", "--ckpt", path, "--data", files["prefix"], "--out", files["root"]])

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_manifest(self, files, data):
        path = files["root"] / "ckpt" / "mutated.manifest"
        path.write_bytes(data.draw(mutations(files["manifest"])))
        check(lambda: ensemble.load_ensemble(path),
              (network.ManifestFormatError, network.CheckpointFormatError, OSError),
              ["ensemble-eval", "--manifest", path, "--data", files["prefix"],
               "--out", files["root"]])

    @settings(max_examples=60, deadline=None)
    @given(data=st.data(), part=st.sampled_from(("train", "val", "test")))
    def test_dataset_csv(self, files, data, part):
        prefix = files["root"] / "data" / "mutated"
        for name, valid in files["csv"].items():
            mutated = data.draw(mutations(valid)) if name == part else valid
            (files["root"] / "data" / f"mutated_{name}.csv").write_bytes(mutated)
        if part == "test":  # the one file a scoring command reads
            check(lambda: datagen.read_dataset_csv(f"{prefix}_test.csv"),
                  datagen.DatasetFormatError,
                  ["eval", "--ckpt", files["root"] / "ckpt" / "m_member0.ckpt",
                   "--data", prefix, "--out", files["root"]])
        else:
            check(lambda: datagen._read_splits(prefix, ("train", "val")),  # what train reads
                  datagen.DatasetFormatError,
                  ["train", "--data", prefix, "--epochs", 1, "--hidden", "4",
                   "--tag", "t", "--out", files["root"]])

    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_ood_csv(self, files, data):
        path = files["root"] / "data" / "mutated_ood.csv"
        path.write_bytes(data.draw(mutations(files["csv"]["test"])))
        check(lambda: datagen.read_dataset_csv(path), datagen.DatasetFormatError,
              ["ood", "--manifest", files["root"] / "ckpt" / "m.manifest",
               "--data", files["prefix"], "--ood-data", path, "--n-repeats", 2,
               "--alpha-points", 11, "--out", files["root"]])
