"""Self-test of the benchmark harness at tiny sizes (about two minutes).

    python3 bench/selftest.py

Asserts that every run prints exactly the metrics BENCHMARK.json names, with
their units, that deliberately corrupted copies of each workload's outputs
trip checks (so checks_failed counts them), and that the harness refuses to
run without the ddpnkit sources.
"""

import json
import math
import os
import re
import shutil
import subprocess
import sys
import time

import run
from checks import read_csv

SEED = 3


def bench_cli(root, *argv):
    return subprocess.run([sys.executable, os.path.join(root, "bench", "run.py"), *argv],
                          capture_output=True, text=True, cwd=root, check=False)


def test_metrics_and_units(spec):
    for name in (w["name"] for w in spec["workloads"]):
        for trace, listed in ((0, spec["end_to_end"]), (1, spec["per_layer"])):
            done = bench_cli(run.ROOT, "--workload", name, "--seed", str(SEED), "--seconds", "0",
                             "--trace", str(trace), "--size", "tiny")
            assert done.returncode == 0, done.stderr
            result = json.loads(done.stdout.strip().splitlines()[-1])
            assert set(result) == {"correct", "attempted", "failed", "metrics"}, result.keys()
            assert result["correct"] is True and result["failed"] == 0, done.stderr
            assert isinstance(result["attempted"], int) and result["attempted"] >= 1
            want = {m["name"]: m["unit"] for m in listed}
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            assert got == want, (name, trace, set(got) ^ set(want))
            assert all(math.isfinite(v["value"]) for v in result["metrics"].values())
            print(f"ok: {name} --trace {trace} emits {len(want)} metrics with units")


def _corrupt(path, pattern, replacement):
    with open(path) as fh:
        text = fh.read()
    changed = re.sub(pattern, replacement, text, count=1)
    assert changed != text, (path, pattern)
    with open(path, "w") as fh:
        fh.write(changed)


def _swap_interval_columns(path):
    header, table = read_csv(path)
    i, j = header.index("q025"), header.index("q975")
    table[:, [i, j]] = table[:, [j, i]]
    with open(path, "w") as fh:
        fh.write(",".join(header) + "\n")
        fh.writelines(",".join(repr(float(v)) for v in row) + "\n" for row in table)


# workload -> (description, function(setup_dir, out) that damages the copy)
CORRUPTIONS = {
    "train": [
        ("checkpoint weight altered",
         lambda setup, out: _corrupt(os.path.join(out, "ckpt", "model_member0.ckpt"),
                                     r"(tensor hidden0\.b 1 \d+\n)\S+", r"\g<1>9.5")),
        ("member dropped from manifest",
         lambda setup, out: _corrupt(os.path.join(out, "ckpt", "model.manifest"),
                                     r"model_member1\.ckpt\n", "")),
    ],
    "score": [
        ("interval bounds swapped",
         lambda setup, out: _swap_interval_columns(
             os.path.join(out, "reports", "ensemble_decomposition.csv"))),
        ("ensemble CRPS altered",
         lambda setup, out: _corrupt(os.path.join(out, "reports", "ensemble_metrics.json"),
                                     r'"crps_mean": [^,\n]+', '"crps_mean": 0.5')),
        ("diagonal deviation at small mu0 altered",
         lambda setup, out: _corrupt(os.path.join(out, "reports", "moments_grid.csv"),
                                     r"\n0\.01,0\.01,[^\n]+", "\n0.01,0.01,0.001,0.0")),
    ],
}


def test_corruption_trips_checks():
    work = os.path.join(run.WORK_ROOT, f"selftest-{os.getpid()}")
    os.makedirs(work)
    try:
        for name, cases in CORRUPTIONS.items():
            wl = run.Workload(name, run.SIZES["tiny"][name], SEED)
            setup, out = wl.run_once(run.Runner(work, time.monotonic() + run.RUN_LIMIT_S), work)
            clean, _ = wl.check(setup, out, None)
            assert all(c.ok or c.standing for c in clean), [c for c in clean if not c.ok]
            for label, damage in cases:
                copy = out + "-corrupt"
                shutil.copytree(out, copy)
                damage(setup, copy)
                found, _ = wl.check(setup, copy, None)
                new = [c for c in found if not c.ok and not c.standing]
                assert len([c for c in found if not c.ok]) > len([c for c in clean if not c.ok])
                assert new, (name, label)
                print(f"ok: {name}: {label} trips {len(new)} check(s): {new[0].name}")
                shutil.rmtree(copy)
    finally:
        shutil.rmtree(work)


def test_refuses_without_sources():
    bare = os.path.join(run.WORK_ROOT, f"selftest-bare-{os.getpid()}")
    os.makedirs(bare)
    try:
        shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), bare)
        shutil.copytree(run.BENCH_DIR, os.path.join(bare, "bench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        done = bench_cli(bare, "--workload", "train", "--seed", "0", "--seconds", "1")
        assert done.returncode != 0 and '"metrics"' not in done.stdout, done
        print(f"ok: without src/ the harness exits {done.returncode} and prints no result")
    finally:
        shutil.rmtree(bare)


def main() -> int:
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    test_refuses_without_sources()
    test_corruption_trips_checks()
    test_metrics_and_units(spec)
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
