"""ddpnkit benchmark: drives the CLI the way users run it and checks its outputs.

    python3 bench/run.py --workload {train,score} --seed N --seconds S \
        --trace {0,1}

Run from the root of a source checkout; the CLI children import ddpnkit from
its src/ directory. One child process runs at a time with ``--jobs 1`` and
one BLAS thread, so the harness measures a single core's worth of work on a
small shared machine. Each run:

1. sets up the workload's inputs several times (``setup_s`` is the median),
2. repeats rounds of the workload's timed CLI commands, each round after a
   no-op CLI call, until about ``--seconds`` have passed (``round_s``),
3. takes from every CLI child of the run the time from its spawn until
   ``ddpnkit.cli`` is imported (``startup_s`` is the median),
4. runs a host-speed probe after every CLI child and scales ``startup_s``
   by its median (see PROBE below),
5. checks the outputs (checks.py) and that later rounds reproduce the first
   round's files byte for byte,
6. prints a line with the environment and the probe and unscaled start-up
   medians and, last, one JSON result line.

Every child runs through bench/cli_child.py. With ``--trace 0`` the result
carries the end-to-end metrics. With ``--trace 1`` rounds alternate between
untraced and traced children (cli_child.py installs the tracer; src/ is not
touched), and the result carries the per-layer metrics, the per-command
rates of the untraced rounds and ``trace.overhead_frac``. Workloads, metrics
and the layer map are described in bench/NOTES.md.
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import importlib.metadata
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time

# One BLAS thread for every child, set before numpy loads here so that the
# environment record reports the count the children run with.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import numpy as np  # noqa: E402

import checks  # noqa: E402

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
WORK_ROOT = os.path.join(ROOT, ".bench_work")
RUN_LIMIT_S = 170.0  # every run must end within 180 s
SETUP_REPS = 3
# The host-speed probe, run after every CLI child: a fresh interpreter
# importing ddpnkit's compiled dependencies and no ddpnkit code, so no change
# to the program moves it. startup_s is scaled by PROBE_REF_S / (median probe
# wall of the run): seconds at the host speed where the probe takes 0.4 s.
# See "Timing on a shared host" in NOTES.md for why, and why only startup_s.
PROBE = [sys.executable, "-c", "import numpy, scipy.special"]
PROBE_REF_S = 0.4

# name -> unit; the order is the output order
END_TO_END = {
    "setup_s": "s",
    "startup_s": "s",
    "round_s": "s",
    "peak_rss_mb": "MB",
}
PER_LAYER = {
    "train_steps_per_s": "steps/s",
    "eval_rows_per_s": "rows/s",
    "ensemble_eval_rows_per_s": "rows/s",
    "ood_s": "s",
    "grid_cells_per_s": "cells/s",
    "checks_failed": "count",
    "failed_frac": "frac",
    "trace.overhead_frac": "frac",
    "cli.import_s": "s",
    "cli.self_s": "s",
    "datagen.read_split_csvs.s": "s",
    "datagen.write_split_csvs.s": "s",
    "network.backward.calls": "count",
    "network.backward.us_p50": "us",
    "network.backward.us_p99": "us",
    "network.backward.self_s": "s",
    "network.train.self_s": "s",
    "network.optimizer_us_per_step": "us",
    "network.batch_loss.s": "s",
    "network.step_gflops": "GFLOP/s",
    "network.forward_batch.s": "s",
    "network.render_checkpoint.s": "s",
    "network.ckpt_bytes": "B",
    "network.load_checkpoint.s": "s",
    "losses.ddpn_beta_nll.calls": "count",
    "losses.ddpn_beta_nll.s": "s",
    "losses.ddpn_grads.s": "s",
    "distributions.pmf_vector.calls": "count",
    "distributions.pmf_vector.self_s": "s",
    "distributions.pmf_terms": "count",
    "distributions.pmf_builds_per_row": "ratio",
    "distributions.pmf_cap_hits": "count",
    "distributions.logsumexp.calls": "count",
    "distributions.logsumexp.s": "s",
    "distributions.dist_mode.s": "s",
    "distributions.dist_quantile.s": "s",
    "distributions.dp_log_weight.calls": "count",
    "distributions.dp_log_weight.s": "s",
    "metrics.evaluate.self_s": "s",
    "metrics.crps.calls": "count",
    "metrics.crps.self_s": "s",
    "metrics.crps_from_pmf.s": "s",
    "ensemble.mixture_predict.calls": "count",
    "ensemble.predict_table.self_s": "s",
    "ensemble.member_distributions.s": "s",
    "ensemble.variance_scores.s": "s",
    "ensemble.load_ensemble.s": "s",
    "ood.run_ood_eval.self_s": "s",
    "ood.sweep_operating_points.s": "s",
    "ood.fit_threshold.calls": "count",
    "ood.fit_threshold.s": "s",
    "moments.mdf_epsilon.calls": "count",
    "moments.mdf_epsilon.us_p50": "us",
    "moments.mdf_epsilon.us_p99": "us",
    "moments.moments_grid.self_s": "s",
    "moments.terms": "count",
}

SIZES = {
    "full": {
        # best_val_loss_max: a bound every trained member must reach, for
        # seeds without a stored reference (see checks.check_train)
        "train": {"n_train": 800, "n_val": 100, "n_test": 100, "members": 2, "epochs": 80,
                  "hidden": (128, 128, 128, 64), "best_val_loss_max": 0.0},
        "score": {"n_train": 800, "n_val": 100, "n_test": 500, "members": 5, "epochs": 10,
                  "hidden": (128, 128, 128, 64), "ood_n": 1000, "n_repeats": 20,
                  "alpha_points": 1001, "grid_points": 200, "n_terms": 100},
    },
    # the self-test's sizes: every command and layer runs, in seconds
    "tiny": {
        "train": {"n_train": 64, "n_val": 16, "n_test": 16, "members": 2, "epochs": 2,
                  "hidden": (8, 8)},
        "score": {"n_train": 64, "n_val": 16, "n_test": 40, "members": 2, "epochs": 2,
                  "hidden": (8, 8), "ood_n": 40, "n_repeats": 2, "alpha_points": 11,
                  "grid_points": 12, "n_terms": 100},
    },
}
BATCH_SIZE = 32  # the CLI default


class Workload:
    """Setup and timed commands of one workload; arguments are CLI argv lists."""

    def __init__(self, name, spec, seed):
        self.name, self.spec, self.seed = name, spec, seed

    def prefix(self, setup_dir):
        return os.path.join(setup_dir, "data", f"sine_conflation_seed{self.seed}")

    def _simulate(self, out):
        s = self.spec
        return ["simulate", "--process", "sine-conflation", "--seed", str(self.seed),
                "--n-train", str(s["n_train"]), "--n-val", str(s["n_val"]),
                "--n-test", str(s["n_test"]), "--out", out]

    def _train(self, data, out):
        s = self.spec
        return ["train", "--data", data, "--family", "double_poisson", "--beta", "0.5",
                "--hidden", ",".join(map(str, s["hidden"])), "--members", str(s["members"]),
                "--epochs", str(s["epochs"]), "--jobs", "1", "--seed", str(self.seed),
                "--out", out]

    def _grid(self, out):
        points = str(self.spec["grid_points"])
        return ["moments-grid", "--mu-points", points, "--var-points", points,
                "--n-terms", str(self.spec["n_terms"]), "--out", out]

    def setup_commands(self, setup_dir):
        if self.name == "train":
            return [self._simulate(setup_dir)]
        return [self._simulate(setup_dir), self._train(self.prefix(setup_dir), setup_dir)]

    def timed_commands(self, setup_dir, out):
        """(command label, argv, work items) for one round; the items give the
        per-command rates of the traced run."""
        s = self.spec
        if self.name == "train":
            steps = s["members"] * s["epochs"] * -(-s["n_train"] // BATCH_SIZE)
            return [("train", self._train(self.prefix(setup_dir), out), steps)]
        data = self.prefix(setup_dir)
        manifest = os.path.join(setup_dir, "ckpt", "model.manifest")
        n = s["n_test"]
        return [
            ("eval", ["eval", "--ckpt", os.path.join(setup_dir, "ckpt", "model_member0.ckpt"),
                      "--data", data, "--out", out], n),
            ("ensemble-eval", ["ensemble-eval", "--manifest", manifest, "--data", data,
                               "--out", out], n),
            ("ood", ["ood", "--manifest", manifest, "--data", data,
                     "--ood-n", str(s["ood_n"]), "--n-repeats", str(s["n_repeats"]),
                     "--alpha-points", str(s["alpha_points"]), "--seed", str(self.seed),
                     "--out", out], n),
            ("moments-grid", self._grid(out), s["grid_points"] ** 2),
        ]

    def outputs(self, setup_dir, out):
        """Deterministic output files of a round, compared across rounds."""
        if self.name == "train":
            names = [f"model_member{m}.ckpt" for m in range(self.spec["members"])]
            return [os.path.join(out, "ckpt", n) for n in names + ["model.manifest"]]
        return [os.path.join(out, "reports", n) for n in (
            "eval_metrics.json", "ensemble_metrics.json", "ensemble_decomposition.csv",
            "ood_ood.json", "moments_grid.csv")]

    def run_once(self, runner, work):
        """One untimed set-up and one round in ``work``; returns (setup_dir, out)."""
        setup_dir, out = os.path.join(work, f"{self.name}-setup"), os.path.join(work, self.name)
        for argv in self.setup_commands(setup_dir):
            runner.run(argv)
        for _, argv, _ in self.timed_commands(setup_dir, out):
            runner.run(argv)
        if any(c["rc"] for c in runner.calls):
            raise RuntimeError(f"{self.name} seed {self.seed}: a command failed")
        return setup_dir, out

    def check(self, setup_dir, out, reference):
        if self.name == "train":
            return checks.check_train(self.prefix(setup_dir), out, self.spec, reference)
        found, observed = checks.check_score(self.prefix(setup_dir), setup_dir, out, self.spec,
                                             self.seed, reference)
        found += checks.check_moments(self.outputs(setup_dir, out)[-1],
                                      self.spec["grid_points"], self.spec["n_terms"])
        return found, observed


class Runner:
    """Starts CLI children one at a time, each followed by the host-speed
    probe, and records wall time, start-up time and peak RSS."""

    def __init__(self, work, deadline):
        self.work, self.deadline = work, deadline
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = SRC + os.pathsep + self.env.get("PYTHONPATH", "")
        self.calls = []
        self.probes = []

    def _spawn(self, cmd, stdout):
        """Runs cmd to its end; returns (wall s, exit code, rusage, spawn time).
        os.wait4 blocks until the exit, so the wall time is not rounded to a
        polling interval."""
        spawned_at = time.monotonic()
        proc = subprocess.Popen(cmd, stdout=stdout, stderr=subprocess.STDOUT, env=self.env,
                                cwd=self.work)
        timer = threading.Timer(max(1.0, self.deadline - time.monotonic()), proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = time.monotonic() - spawned_at
        proc.returncode = os.waitstatus_to_exitcode(status)
        return wall, proc.returncode, usage, spawned_at

    def run(self, argv, traced=False):
        n = len(self.calls) + 1
        log = os.path.join(self.work, f"child{n}.log")
        child_record = os.path.join(self.work, f"child{n}.json")
        cmd = [sys.executable, os.path.join(BENCH_DIR, "cli_child.py"), child_record,
               str(int(traced)), "--", *argv]
        with open(log, "wb") as fh:
            wall, rc, usage, spawned_at = self._spawn(cmd, fh)
        rec = {"argv": argv, "wall_s": wall, "cpu_s": usage.ru_utime + usage.ru_stime,
               "rc": rc, "maxrss_mb": usage.ru_maxrss / 1024.0, "log": log,
               "startup_s": None, "summary": None}
        if os.path.isfile(child_record):
            with open(child_record) as fh:
                summary = json.load(fh)
            rec["startup_s"] = summary["imported_at"] - spawned_at
            rec["summary"] = summary if traced else None
        self.calls.append(rec)
        if rc != 0:
            with open(log, errors="replace") as fh:
                tail = fh.read()[-2000:]
            print(f"[bench] command failed (rc {rc}): {' '.join(argv)}\n{tail}",
                  file=sys.stderr)
        probe_wall, probe_rc, _, _ = self._spawn(PROBE, subprocess.DEVNULL)
        if probe_rc != 0:
            raise RuntimeError(f"host-speed probe failed (rc {probe_rc})")
        self.probes.append(probe_wall)
        return rec


def environment() -> dict:
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    try:
        scipy_version = importlib.metadata.version("scipy")
    except importlib.metadata.PackageNotFoundError:
        scipy_version = None
    commit = None
    if os.path.isdir(os.path.join(ROOT, ".git")):
        done = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True,
                              text=True, check=False)
        commit = done.stdout.strip() or None
    return {
        "cpu_model": cpu,
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy_version,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
        "git_commit": commit,
    }


def _blas_threads():
    """Thread count the bundled OpenBLAS reports, else the environment's."""
    libs = glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs",
                                  "*openblas*"))
    for lib in libs:
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(ctypes.CDLL(lib), sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return int(os.environ["OPENBLAS_NUM_THREADS"])


# --- per-layer aggregation ----------------------------------------------------


def _merge(summaries):
    """Sum the span summaries and counters of several traced children."""
    spans, counters, imports = {}, {}, []
    for summary in summaries:
        imports.append(summary["import_s"])
        for name, rec in summary["spans"].items():
            acc = spans.setdefault(name, {"calls": 0, "outer_calls": 0, "s": 0.0,
                                          "self_s": 0.0, "durations_s": []})
            for key in ("calls", "outer_calls", "s", "self_s"):
                acc[key] += rec[key]
            acc["durations_s"].extend(rec["durations_s"])
        for name, value in summary["counters"].items():
            counters[name] = counters.get(name, 0.0) + value
    return spans, counters, imports


def layer_metrics(summaries, rows_scored) -> dict:
    """Per-layer values of one traced round (children summed)."""
    spans, counters, imports = _merge(summaries)
    empty = {"calls": 0, "outer_calls": 0, "s": 0.0, "self_s": 0.0, "durations_s": []}
    out = {"cli.import_s": statistics.median(imports)}
    for name in PER_LAYER:
        layer, _, field = name.rpartition(".")
        if field in ("calls", "s", "self_s") and "." in layer:
            out[name] = spans.get(layer, empty)[field]
    backward = spans.get("network.backward", empty)
    train_self = spans.get("network.train", empty)["self_s"]
    out["cli.self_s"] = spans.get("cli.main", empty)["self_s"]
    out["network.optimizer_us_per_step"] = (
        1e6 * train_self / backward["calls"] if backward["calls"] else 0.0)
    flops = counters.get("network.backward_flops", 0.0)
    out["network.step_gflops"] = flops / backward["s"] / 1e9 if backward["s"] else 0.0
    for name in ("network.ckpt_bytes", "distributions.pmf_terms", "distributions.pmf_cap_hits",
                 "moments.terms"):
        out[name] = counters.get(name, 0.0)
    pmf_outer = spans.get("distributions.pmf_vector", empty)["outer_calls"]
    out["distributions.pmf_builds_per_row"] = pmf_outer / rows_scored if rows_scored else 0.0
    return out, spans


def percentile_us(durations, q):
    return float(np.percentile(durations, q)) * 1e6 if durations else 0.0


# --- the run ------------------------------------------------------------------


def run(args) -> dict:
    started = time.monotonic()
    spec = SIZES[args.size][args.workload]
    wl = Workload(args.workload, spec, args.seed)
    work = os.path.join(WORK_ROOT, f"{args.workload}-seed{args.seed}-trace{args.trace}-"
                                   f"{os.getpid()}")
    os.makedirs(work)
    try:
        return _run_in(work, args, wl, started)
    finally:
        shutil.rmtree(work)


def _run_in(work, args, wl, started) -> dict:
    runner = Runner(work, started + RUN_LIMIT_S)
    traced = args.trace == 1

    setup_walls, setup_summaries = [], []
    for k in range(SETUP_REPS):
        setup_dir = os.path.join(work, f"setup{k}")
        setup_walls.append(0.0)
        for argv in wl.setup_commands(setup_dir):
            rec = runner.run(argv, traced)
            setup_walls[-1] += rec["wall_s"]
            setup_summaries += [rec["summary"]] if traced else []
    if any(c["rc"] for c in runner.calls):
        raise RuntimeError("set-up failed")

    # At least two rounds, then rounds repeat until the next one would end
    # further past --seconds than stopping now falls short of it. Each starts
    # with a no-op call, one more start-up sample spread over the run.
    rounds = []  # {"traced", "wall_s", "per_cmd", "rss", "summaries", "digest"}
    t_measure = time.monotonic()
    while True:
        elapsed = time.monotonic() - t_measure
        if len(rounds) >= 2:
            if elapsed + elapsed / len(rounds) / 2 >= args.seconds:
                break
        if time.monotonic() - started > RUN_LIMIT_S:
            break
        trace_round = traced and len(rounds) % 2 == 1
        out = os.path.join(work, f"round{len(rounds)}")
        runner.run(["--help"])
        rnd = {"traced": trace_round, "wall_s": 0.0, "per_cmd": {}, "rss": [],
               "summaries": []}
        for label, argv, items in wl.timed_commands(setup_dir, out):
            rec = runner.run(argv, trace_round)
            rnd["wall_s"] += rec["wall_s"]
            rnd["per_cmd"][label] = (rec["wall_s"], items)
            rnd["rss"].append(rec["maxrss_mb"])
            rnd["summaries"] += [rec["summary"]] if trace_round else []
        if any(c["rc"] for c in runner.calls):
            break  # an incomplete round is not measured
        try:
            rnd["digest"] = checks.file_digest(wl.outputs(setup_dir, out))
        except OSError as exc:
            rnd["digest"] = f"missing output: {exc}"
        if rounds:
            shutil.rmtree(out)
        rounds.append(rnd)

    check_list, observed = [], {}
    if rounds:
        full = args.size == "full"
        reference = checks.load_reference(args.workload, args.seed) if full else None
        if reference is None and full:
            print(f"[bench] no stored reference for seed {args.seed}; reference checks skipped",
                  file=sys.stderr)
        check_list, observed = wl.check(setup_dir, os.path.join(work, "round0"), reference)
        check_list += [checks.Check(f"round {i} outputs match round 0",
                                    r["digest"] == rounds[0]["digest"], r["digest"][:64])
                       for i, r in enumerate(rounds[1:], 1)]
    failed_checks = [c for c in check_list if not c.ok]
    for c in failed_checks:
        tag = "standing failure" if c.standing else "FAILED"
        print(f"[bench] check {tag}: {c.name}: {c.detail}", file=sys.stderr)
    failed_calls = sum(1 for c in runner.calls if c["rc"] != 0)
    correct = failed_calls == 0 and all(c.ok or c.standing for c in check_list)

    untraced = [r for r in rounds if not r["traced"]]
    if not untraced or (traced and len(untraced) == len(rounds)):
        raise RuntimeError("no complete round to measure")
    startups = [c["startup_s"] for c in runner.calls if c["startup_s"] is not None]
    probe = None
    if traced:
        metrics = per_layer(wl, rounds, untraced, setup_summaries)
        metrics["checks_failed"] = float(len(failed_checks))
        metrics["failed_frac"] = failed_calls / len(runner.calls)
        units = PER_LAYER
    else:
        probe = {"probe_s": statistics.median(runner.probes),
                 "startup_unscaled_s": statistics.median(startups)}
        metrics = {
            "setup_s": statistics.median(setup_walls),
            "startup_s": probe["startup_unscaled_s"] * PROBE_REF_S / probe["probe_s"],
            "round_s": statistics.mean(r["wall_s"] for r in rounds),
            "peak_rss_mb": max(max(r["rss"]) for r in rounds),
        }
        units = END_TO_END
    record = {
        "calls": [{k: c[k] for k in ("argv", "wall_s", "startup_s", "cpu_s", "rc")}
                  for c in runner.calls],
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "size": args.size, "spec": wl.spec, "env": environment(),
        "run_s": time.monotonic() - started,
        "setup_walls_s": setup_walls, "probe_walls_s": runner.probes,
        "probe": probe,
        "rounds": [{k: v for k, v in r.items() if k != "summaries"} for r in rounds],
        "checks": [c.__dict__ for c in check_list], "observed": observed,
        "result": {
            "correct": correct,
            "attempted": len(runner.calls),
            "failed": failed_calls,
            "metrics": {name: {"value": float(metrics[name]), "unit": unit}
                        for name, unit in units.items()},
        },
    }
    records = os.path.join(WORK_ROOT, "records")
    os.makedirs(records, exist_ok=True)
    with open(os.path.join(records, os.path.basename(work) + ".json"), "w") as fh:
        json.dump(record, fh, indent=1)
    return record


def per_layer(wl, rounds, untraced, setup_summaries) -> dict:
    traced_rounds = [r for r in rounds if r["traced"]]
    rows_scored = wl.spec["n_test"] * 2 if wl.name == "score" else 0
    per_round, pooled = [], {}
    for r in traced_rounds:
        values, spans = layer_metrics(r["summaries"], rows_scored)
        per_round.append(values)
        r["spans"] = {name: {k: v for k, v in rec.items() if k != "durations_s"}
                      for name, rec in spans.items()}
        for name in ("network.backward", "moments.mdf_epsilon"):
            pooled.setdefault(name, []).extend(spans.get(name, {}).get("durations_s", []))
    out = {name: statistics.median(v[name] for v in per_round) for name in per_round[0]}
    for name, durations in pooled.items():
        out[f"{name}.us_p50"] = percentile_us(durations, 50)
        out[f"{name}.us_p99"] = percentile_us(durations, 99)
    setup_spans = [_merge([s])[0] for s in setup_summaries]
    out["datagen.write_split_csvs.s"] = statistics.median(
        [s.get("datagen.write_split_csvs", {}).get("s", 0.0) for s in setup_spans] or [0.0])

    def rate(label, items_per_s):
        samples = [r["per_cmd"][label] for r in untraced if label in r["per_cmd"]]
        if not samples:
            return 0.0
        wall = sum(w for w, _ in samples)
        return sum(n for _, n in samples) / wall if items_per_s else wall / len(samples)

    out["train_steps_per_s"] = rate("train", True)
    out["eval_rows_per_s"] = rate("eval", True)
    out["ensemble_eval_rows_per_s"] = rate("ensemble-eval", True)
    out["ood_s"] = rate("ood", False)
    out["grid_cells_per_s"] = rate("moments-grid", True)
    out["trace.overhead_frac"] = (statistics.mean(r["wall_s"] for r in traced_rounds)
                                  / statistics.mean(r["wall_s"] for r in untraced) - 1.0)
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=tuple(SIZES["full"]))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=tuple(SIZES), default="full",
                        help="input sizes; 'tiny' is for the harness self-test")
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "ddpnkit", "cli.py")):
        print(f"[bench] no ddpnkit sources under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    try:
        record = run(args)
    except RuntimeError as exc:
        print(f"[bench] {exc}", file=sys.stderr)
        return 1
    print(json.dumps({"env": record["env"], "probe": record["probe"]}))
    print(json.dumps(record["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
