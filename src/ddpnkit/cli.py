"""Command line front end.

Subcommands: simulate, train, eval, ensemble-eval, ood, moments-grid,
attenuation-demo. Options may come from a config file (INI-style sections
named after the subcommand, flat key=value entries); explicit flags win
over config values. Unknown config keys are rejected.

Outputs land under the --out directory in data/, ckpt/ and reports/
subfolders. A handler only computes: it returns its output files as
{path: text chunks} together with the text to print. The chunks are
rendered as the writer takes them: a CSV file in blocks of rows, so none is
held whole, and each checkpoint's text when its file is reached, so one is
held at a time. After the handler returns, execute streams every file to
path.tmp through the one writer, _write_text, then moves each onto its path
with os.replace and prints last. The writer encodes a bounded slice of text
at a time (WRITE_SLICE characters per write), so no chunk, a whole
checkpoint's text included, is held beside its whole encoding. A run that
fails, in a handler, a renderer or a write, changes no output file: a
target that is an existing directory, which os.replace could not replace,
is refused before anything is written, and a failed move removes the .tmp
files it leaves.

The package modules the handlers use are put in sys.modules when cli is
imported, but each one runs on its first attribute access
(importlib.util.LazyLoader), so a process executes only the code of its own
subcommand, and a tool that looks them up in sys.modules right after the
import (as bench/tracer.py does) finds every one. train executes cli,
errors, losses, network and datagen alone: the manifest format lives in
network beside the checkpoint format, and datagen loads distributions only
in the samplers that draw from it.

Exit codes: 0 success, 2 usage or domain errors, 3 numeric divergence or
overflow (including a PMF support that has not converged within its cap and
head outputs that over- or underflow out of their family's domain),
4 I/O problems and malformed checkpoint, manifest or dataset files
(FileFormatError).
"""

from __future__ import annotations

import argparse
import contextlib
import importlib.util
import json
import math
import os
import sys

import numpy as np

from ddpnkit.errors import (
    DdpnError,
    DomainError,
    FileFormatError,
    NumericDivergence,
    NumericOverflow,
    ShapeError,
    UsageError,
)
from ddpnkit.losses import FAMILIES, LossSpec


def _lazy_module(name: str):
    """ddpnkit.<name>, in sys.modules and bound on the package as an import
    leaves it, but executed only when one of its attributes is first read."""
    fullname = f"ddpnkit.{name}"
    if fullname not in sys.modules:
        spec = importlib.util.find_spec(fullname)
        spec.loader = importlib.util.LazyLoader(spec.loader)
        module = importlib.util.module_from_spec(spec)
        sys.modules[fullname] = module
        spec.loader.exec_module(module)
        setattr(sys.modules["ddpnkit"], name, module)
    return sys.modules[fullname]


datagen, ensemble, metrics, moments, network, ood = map(_lazy_module, (
    "datagen", "ensemble", "metrics", "moments", "network", "ood"))
_lazy_module("distributions")  # the handlers reach it only through the modules above


def _parse_bool(text: str) -> bool:
    lowered = text.strip().lower()
    if lowered in ("1", "true", "yes", "on"):
        return True
    if lowered in ("0", "false", "no", "off"):
        return False
    raise UsageError(f"cannot parse boolean value {text!r}")


def _parse_widths(text: str) -> tuple:
    stripped = text.strip()
    if stripped in ("", "none"):
        return ()
    try:
        return tuple(int(part) for part in stripped.split(","))
    except ValueError as exc:
        raise UsageError(f"cannot parse hidden widths {text!r}") from exc


def _parse_count(text: str) -> int:
    value = int(text)
    if value < 0:
        raise ValueError("expected a nonnegative integer")
    return value


def _parse_floats(text: str) -> tuple:
    values = tuple(float(part) for part in text.split(","))
    if not all(map(math.isfinite, values)):
        raise ValueError("expected finite numbers")
    return values


# the keys of datagen.PROCESSES, kept here so that --help loads no datagen
PROCESSES = ("sine-conflation", "misspec-poisson", "misspec-nb", "beta-study")

# Option tables: name -> (parser, default, help). A default of REQUIRED marks
# options that must be supplied by flag or config file.
REQUIRED = object()

_TRAIN_OPTS = {
    "data": (str, REQUIRED, "dataset prefix (expects <prefix>_train.csv etc.)"),
    "family": (str, "double_poisson", f"predictive family, one of {', '.join(FAMILIES)}"),
    "beta": (float, 0.0, "beta weighting of the likelihood, in [0, 1]"),
    "epochs": (int, 200, "training epochs"),
    "batch_size": (int, 32, "mini-batch size"),
    "lr": (float, 1e-3, "initial learning rate (cosine-decayed to 0)"),
    "weight_decay": (float, 1e-5, "decoupled weight decay"),
    "seed": (_parse_count, 0, "base rng seed"),
    "gamma_bias_init": (float, 0.0, "initial bias of the log-dispersion head"),
    "hidden": (_parse_widths, (128, 128, 128, 64), "comma-separated hidden widths"),
    "members": (int, 1, "number of ensemble members"),
    "jobs": (int, 1, "concurrent member training processes"),
    "select_unscaled": (_parse_bool, False, "select checkpoints on the unscaled NLL"),
    "tag": (str, "model", "name stem for output files"),
}

_COMMAND_OPTS = {
    "simulate": {
        "process": (str, REQUIRED, f"one of {', '.join(PROCESSES)}"),
        "seed": (_parse_count, 0, "rng seed"),
        "n": (_parse_count, 2000, "total rows for single-size processes"),
        "n_train": (_parse_count, 800, "sine-conflation train rows"),
        "n_val": (_parse_count, 100, "sine-conflation val rows"),
        "n_test": (_parse_count, 100, "sine-conflation test rows"),
        "isolated_repeat": (_parse_count, 1, "repeat count of the beta-study isolated points"),
    },
    "train": _TRAIN_OPTS,
    "eval": {
        "ckpt": (str, REQUIRED, "checkpoint path"),
        "data": (str, REQUIRED, "dataset prefix, evaluated on <prefix>_test.csv"),
        "tag": (str, "eval", "name stem for output files"),
    },
    "ensemble-eval": {
        "manifest": (str, REQUIRED, "ensemble manifest path"),
        "data": (str, REQUIRED, "dataset prefix, evaluated on <prefix>_test.csv"),
        "moments_mode": (str, "efron_approx", "member variance mode"),
        "tag": (str, "ensemble", "name stem for output files"),
    },
    "ood": {
        "manifest": (str, REQUIRED, "ensemble manifest path"),
        "data": (str, REQUIRED, "ID dataset prefix, scores <prefix>_test.csv"),
        "ood_data": (str, None, "optional CSV of OOD inputs; overrides the range"),
        "ood_low": (float, 4.0 * math.pi, "lower edge of the OOD input range"),
        "ood_high": (float, 6.0 * math.pi, "upper edge of the OOD input range"),
        "ood_n": (_parse_count, 200, "number of OOD inputs drawn from the range"),
        "holdout": (float, 0.2, "ID fraction used to fit thresholds"),
        "n_repeats": (int, 10, "holdout resampling repeats"),
        "alpha_points": (_parse_count, 101, "size of the alpha sweep grid"),
        "seed": (_parse_count, 0, "rng seed for holdout resampling and OOD draws"),
        "tag": (str, "ood", "name stem for output files"),
    },
    "moments-grid": {
        "mu_min": (float, 0.01, "smallest target mean"),
        "mu_max": (float, 100.0, "largest target mean"),
        "mu_points": (int, 25, "grid points along the mean axis"),
        "var_min": (float, 0.01, "smallest target variance"),
        "var_max": (float, 100.0, "largest target variance"),
        "var_points": (int, 25, "grid points along the variance axis"),
        "n_terms": (int, 100, "minimum support length of the series sums"),
        "tag": (str, "moments", "name stem for output files"),
    },
    "attenuation-demo": {
        "seed": (_parse_count, 0, "rng seed for data and training"),
        "beta": (float, 1.0, "beta weighting of the loss"),
        "gamma_bias_init": (float, 0.0, "initial bias of the log-dispersion head"),
        "epochs": (int, 150, "training epochs"),
        "batch_size": (int, 32, "mini-batch size"),
        "lr": (float, 1e-3, "initial learning rate"),
        "weight_decay": (float, 1e-5, "decoupled weight decay"),
        "hidden": (_parse_widths, (64, 64), "comma-separated hidden widths"),
        "n": (_parse_count, 500, "beta-study rows before isolated points"),
        "isolated_repeat": (_parse_count, 1, "repeat count of the isolated points"),
        "probe_x": (_parse_floats, (1.0, 10.0), "comma-separated probe covariates"),
        "tag": (str, "attenuation", "name stem for output files"),
    },
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ddpnkit",
        description="Heteroscedastic count regression with the Double Poisson distribution.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for command, opts in _COMMAND_OPTS.items():
        p = sub.add_parser(command)
        p.add_argument("--config", default=None, help="INI config file with a "
                       f"[{command}] section")
        p.add_argument("--out", default=None, help="output directory root (default .)")
        for name, (_, _, help_text) in opts.items():
            flag = "--" + name.replace("_", "-")
            p.add_argument(flag, default=None, help=help_text)
    return parser


def _merge_options(command: str, args: argparse.Namespace) -> dict:
    """Combine flags, config file values and defaults; flags win."""
    opts = _COMMAND_OPTS[command]
    from_config = {}
    if args.config is not None:
        # configparser and its regex compiles load only for a run that reads a config
        import configparser

        cp = configparser.ConfigParser(default_section="_no_defaults")
        try:
            found = cp.read(args.config)
        except (configparser.Error, UnicodeDecodeError) as exc:
            raise UsageError(f"cannot parse config file {args.config}: {exc}") from exc
        if not found:
            raise UsageError(f"cannot read config file {args.config}")
        if cp.has_section(command):
            for key, value in cp.items(command):
                key = key.replace("-", "_")
                if key == "out":
                    from_config[key] = value
                    continue
                if key not in opts:
                    raise UsageError(f"unknown config key {key!r} in section [{command}]")
                from_config[key] = value
    merged = {}
    for name, (parse_fn, default, _) in opts.items():
        raw = getattr(args, name)
        if raw is None:
            raw = from_config.get(name)
        if raw is None:
            if default is REQUIRED:
                raise UsageError(f"missing required option --{name.replace('_', '-')}")
            merged[name] = default
        else:
            try:
                merged[name] = parse_fn(raw) if isinstance(raw, str) else raw
            except (ValueError, TypeError) as exc:
                flag = "--" + name.replace("_", "-")
                raise UsageError(f"bad value {raw!r} for {flag}: {exc}") from exc
    if not merged.get("tag", "").isprintable():
        raise UsageError(f"--tag must be printable text, got {merged['tag']!r}")
    merged["out"] = args.out if args.out is not None else from_config.get("out", ".")
    return merged


WRITE_SLICE = 1 << 16  # characters the writer hands the file object at a time


def _write_text(path: str, chunks) -> None:
    """The one file writer: the text chunks go to path.tmp as they are
    rendered, WRITE_SLICE characters per write, so no chunk is held beside
    its whole encoding; execute moves the file onto path."""
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path + ".tmp", "w", newline="") as fh:
        for chunk in chunks:
            for start in range(0, len(chunk), WRITE_SLICE):
                fh.write(chunk[start:start + WRITE_SLICE])


def _rendered_on_write(render, *args):
    """render(*args) as one chunk, made when the writer reaches its file, so
    a command holds one such text at a time."""
    yield render(*args)


def _report_path(opts: dict, suffix: str) -> str:
    """--out/reports/<tag>_<suffix>."""
    return os.path.join(opts["out"], "reports", f"{opts['tag']}_{suffix}")


def _json(payload) -> tuple:
    return (json.dumps(payload, indent=2), "\n")


def _dataset_for(opts: dict):
    process = opts["process"]
    if process not in PROCESSES:
        raise UsageError(f"unknown process {process!r}")
    seed = opts["seed"]
    if process == "sine-conflation":
        return datagen.gen_sine_conflation(opts["n_train"], opts["n_val"], opts["n_test"], seed)
    if process == "beta-study":
        return datagen.gen_beta_study(opts["n"], seed, opts["isolated_repeat"])
    return datagen.PROCESSES[process](opts["n"], seed)


def cmd_simulate(opts: dict) -> tuple[dict, str]:
    ds, split = _dataset_for(opts)
    prefix = os.path.join(opts["out"], "data", f"{ds.process}_seed{opts['seed']}")
    files = {f"{prefix}_{name}.csv": datagen.dataset_csv_chunks(ds.xs[idx], ds.ys[idx])
             for name, idx in (("train", split.train), ("val", split.val), ("test", split.test))}
    return files, "\n".join(files)


def _member_config(opts: dict, member: int) -> network.TrainConfig:
    spec = LossSpec(opts["family"], opts["beta"])
    return network.TrainConfig(
        loss=spec,
        epochs=opts["epochs"],
        batch_size=opts["batch_size"],
        lr=opts["lr"],
        weight_decay=opts["weight_decay"],
        seed=opts["seed"] + member,
        gamma_bias_init=opts["gamma_bias_init"],
        hidden_widths=opts["hidden"],
        select_unscaled=opts["select_unscaled"],
    )


def _train_one(payload):
    member, ds, split, config = payload
    weights, report = network.train(ds, split, config)
    report.final_weights = None  # unused here; kept, or pickled back, it doubles the weights
    return member, weights, report


def cmd_train(opts: dict) -> tuple[dict, str]:
    for name in ("members", "jobs"):
        if opts[name] < 1:
            raise UsageError(f"--{name} must be at least 1, got {opts[name]}")
    ds, split = datagen.read_split_csvs(opts["data"])
    payloads = [
        (m, ds, split, _member_config(opts, m)) for m in range(opts["members"])
    ]
    if opts["jobs"] > 1 and opts["members"] > 1:
        # multiprocessing costs every other command start-up time, so it
        # loads only here
        from concurrent.futures import ProcessPoolExecutor

        # the fork context starts every worker at the first submit, so more
        # workers than members would only be forked to sit idle
        with ProcessPoolExecutor(max_workers=min(opts["jobs"], opts["members"])) as pool:
            results = sorted(pool.map(_train_one, payloads), key=lambda r: r[0])
    else:
        results = [_train_one(p) for p in payloads]

    ckpt_dir = os.path.join(opts["out"], "ckpt")
    files = {}
    report_payload = []
    for member, weights, report in results:
        meta = network.train_meta(report.config, ds.xs.shape[1])
        path = os.path.join(ckpt_dir, f"{opts['tag']}_member{member}.ckpt")
        files[path] = _rendered_on_write(network.render_checkpoint, weights, meta)
        report_payload.append({
            "member": member,
            "seed": report.seed,
            "best_epoch": report.best_epoch,
            "train_loss": report.train_loss,
            "val_loss": report.val_loss,
            "wall_time": report.wall_time,
        })
    names = [os.path.basename(p) for p in files]
    manifest_path = os.path.join(ckpt_dir, f"{opts['tag']}.manifest")
    spec = LossSpec(opts["family"], opts["beta"])
    files[manifest_path] = (network.render_manifest(names, spec),)
    files[_report_path(opts, "train.json")] = _json(
        {"family": opts["family"], "beta": opts["beta"], "members": report_payload})
    return files, manifest_path


def cmd_eval(opts: dict) -> tuple[dict, str]:
    weights, spec = ensemble.load_member(opts["ckpt"])
    ds, split = datagen.read_split_csvs(opts["data"])
    test_x, test_y = ds.xs[split.test], ds.ys[split.test]
    if test_y.size == 0:
        raise DomainError(f"no test rows found under prefix {opts['data']}")
    model = ensemble.Ensemble(((weights, spec),))
    summary = metrics.evaluate(ensemble.member_heads(model, test_x).batch(), test_y).summary()
    return {_report_path(opts, "metrics.json"): _json(summary)}, json.dumps(summary)


def cmd_ensemble_eval(opts: dict) -> tuple[dict, str]:
    ens = ensemble.load_ensemble(opts["manifest"])
    ds, split = datagen.read_split_csvs(opts["data"])
    test_x, test_y = ds.xs[split.test], ds.ys[split.test]
    if test_y.size == 0:
        raise DomainError(f"no test rows found under prefix {opts['data']}")
    mode = opts["moments_mode"]
    heads = ensemble.member_heads(ens, test_x)
    record = metrics.evaluate(heads.batch(), test_y, variances=heads.scores(mode),
                              levels=ensemble.INTERVAL)
    table = ensemble.predict_table(heads, mode, quantiles=record.quantiles)
    names = ("mean", "aleatoric", "epistemic", "q025", "q975")
    columns = [test_x[:, 0]] + [table[name] for name in names]
    decomposition = datagen.csv_chunks(",".join(("x",) + names), [
        map(repr, np.asarray(column, dtype=float).tolist()) for column in columns])
    summary = record.summary()
    return {_report_path(opts, "metrics.json"): _json(summary),
            _report_path(opts, "decomposition.csv"): decomposition}, json.dumps(summary)


def cmd_ood(opts: dict) -> tuple[dict, str]:
    ens = ensemble.load_ensemble(opts["manifest"])
    ds, split = datagen.read_split_csvs(opts["data"])
    id_x = ds.xs[split.test]
    if id_x.shape[0] == 0:
        raise DomainError(f"no test rows found under prefix {opts['data']}")
    if opts["ood_data"] is not None:
        ood_x, _ = datagen.read_dataset_csv(opts["ood_data"])
    else:
        low, high = opts["ood_low"], opts["ood_high"]
        if not (math.isfinite(high - low) and low < high):
            raise UsageError("--ood-low and --ood-high must bound a finite range with "
                             f"low < high, got {low} and {high}")
        rng = np.random.default_rng(opts["seed"])
        ood_x = rng.uniform(low, high, opts["ood_n"])[:, None]
    config = ood.OODProtocolConfig(
        holdout_fraction=opts["holdout"],
        n_repeats=opts["n_repeats"],
        alphas=tuple(np.linspace(0.0, 1.0, opts["alpha_points"])),
        seed=opts["seed"],
    )
    id_scores = ensemble.member_heads(ens, id_x).scores()
    ood_scores = ensemble.member_heads(ens, ood_x).scores()
    payload = ood.run_ood_eval(id_scores, ood_scores, config).to_json_dict()
    return {_report_path(opts, "ood.json"): _json(payload)}, json.dumps(payload)


def _log_axis(opts: dict, name: str) -> np.ndarray:
    """The --NAME-points values from --NAME-min to --NAME-max, evenly spaced in log."""
    for end in ("min", "max"):
        value = opts[f"{name}_{end}"]
        if not (math.isfinite(value) and value > 0.0):
            raise DomainError(f"--{name}-{end} must be finite and positive, got {value}")
    if opts[f"{name}_points"] < 1:
        raise DomainError(f"--{name}-points must be at least 1, got {opts[f'{name}_points']}")
    return np.logspace(math.log10(opts[f"{name}_min"]), math.log10(opts[f"{name}_max"]),
                       opts[f"{name}_points"])


def cmd_moments_grid(opts: dict) -> tuple[dict, str]:
    grid = moments.moments_grid(_log_axis(opts, "mu"), _log_axis(opts, "var"), opts["n_terms"])
    path = _report_path(opts, "grid.csv")
    return {path: moments.grid_csv_chunks(grid)}, path


def cmd_attenuation_demo(opts: dict) -> tuple[dict, str]:
    ds, split = datagen.gen_beta_study(opts["n"], opts["seed"], opts["isolated_repeat"])
    config = _member_config({**opts, "family": "double_poisson", "select_unscaled": False}, 0)
    probes = np.array(opts["probe_x"], dtype=float)[:, None]
    epochs, rows = [], []

    def record(epoch, weights):
        # (mu, gamma) per probe, in probe order; an overflow reads as inf and
        # weights that diverged in this epoch (train then fails) as nan
        with np.errstate(over="ignore", invalid="ignore"):
            rows.append(np.exp(network.forward_batch(weights, probes)).ravel())
        epochs.append(str(epoch))

    network.train(ds, split, config, epoch_hook=record)
    header = ",".join(["epoch"] + [f"{name}_at_{x:g}" for x in opts["probe_x"]
                                   for name in ("mu", "gamma")])
    path = _report_path(opts, "trace.csv")
    return {path: datagen.csv_chunks(header, [epochs] + [
        map(repr, column.tolist()) for column in np.array(rows).T])}, path


_HANDLERS = {
    "simulate": cmd_simulate,
    "train": cmd_train,
    "eval": cmd_eval,
    "ensemble-eval": cmd_ensemble_eval,
    "ood": cmd_ood,
    "moments-grid": cmd_moments_grid,
    "attenuation-demo": cmd_attenuation_demo,
}


def execute(argv=None) -> int:
    """Run one subcommand and commit its outputs (see the module docstring)."""
    parser = build_parser()
    args = parser.parse_args(argv)
    opts = _merge_options(args.command, args)
    files, printed = _HANDLERS[args.command](opts)
    for path in files:
        # os.replace cannot move a file onto a directory; refuse before any write
        if os.path.isdir(path):
            raise IsADirectoryError(f"output path {path} is a directory")
    try:
        for path, text in files.items():
            _write_text(path, text)
        for path in files:
            os.replace(path + ".tmp", path)
    except BaseException:
        for path in files:
            with contextlib.suppress(OSError):
                os.remove(path + ".tmp")
        raise
    print(printed)
    return 0


def main(argv=None) -> int:
    try:
        return execute(argv)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (NumericDivergence, NumericOverflow) as exc:
        print(f"numeric error: {exc}", file=sys.stderr)
        return 3
    except (FileFormatError, OSError) as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 4
    except (DomainError, ShapeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except DdpnError as exc:  # pragma: no cover - safety net
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
