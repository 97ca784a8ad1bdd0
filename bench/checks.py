"""Output checks for the benchmark workloads, independent of the ddpnkit code.

Every check is recomputed here with numpy and the standard library from the
files the CLI wrote: checkpoints are parsed from their text format, the
network forward pass, the Double Poisson PMF, CRPS, modes, quantiles, the
mixture variance scores and the OOD threshold sweep are re-derived, and the
Poisson-diagonal moment deviations are compared with their closed form (0).
Values that depend on a whole training run are compared with the per-seed
references in reference.json, recorded from the same commands, and the best
validation loss with a fixed bound that holds on seeds without a reference.

Each check yields a Check. ``standing`` marks a failure that is a recorded,
known defect of the program (the fixed-length partial sums of moments-grid,
see NOTES.md): it still counts in checks_failed, but it does not make the
run incorrect.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
from dataclasses import dataclass

import numpy as np

REFERENCE_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "reference.json")

CKPT_HEADER = "ddpnkit-ckpt v1"
MANIFEST_HEADER = "ddpnkit-ensemble v1"

# Tolerances against the stored per-seed references. The values come out of
# thousands of AdamW steps, so they allow for float reassociation in training
# while still catching a changed model or metric.
REF_TOL = {"best_val_loss": 2e-3, "mae": 0.02, "crps": 0.01, "auroc": 0.01}
# Tolerance of recomputed values that involve no training: the same
# arithmetic up to summation order and PMF truncation (tail mass < 1e-10).
ORACLE_RTOL = 1e-7
DIAGONAL_TOL = 1e-9


@dataclass(frozen=True)
class Check:
    name: str
    ok: bool
    detail: str = ""
    standing: bool = False

    def __post_init__(self):
        object.__setattr__(self, "ok", bool(self.ok))
        object.__setattr__(self, "standing", bool(self.standing))


def load_reference(workload: str, seed: int):
    """Stored reference values of a workload at a seed, or None."""
    with open(REFERENCE_PATH) as fh:
        return json.load(fh).get(workload, {}).get(str(seed))


# --- file readers -------------------------------------------------------------


def read_csv(path) -> tuple[list, np.ndarray]:
    with open(path) as fh:
        header = fh.readline().strip().split(",")
    rows = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    return header, rows


def read_checkpoint(path) -> tuple[dict, dict]:
    """Parse the text checkpoint: header, key=value lines, tensor blocks."""
    with open(path) as fh:
        lines = fh.read().splitlines()
    if not lines or lines[0] != CKPT_HEADER:
        raise ValueError(f"{path}: bad header")
    meta, tensors, i = {}, {}, 1
    while i < len(lines) and not lines[i].startswith("tensor "):
        key, sep, value = lines[i].partition("=")
        if not sep:
            raise ValueError(f"{path}: bad metadata line {lines[i]!r}")
        meta[key] = value
        i += 1
    while i < len(lines):
        parts = lines[i].split()
        shape = tuple(int(p) for p in parts[3:3 + int(parts[2])])
        n_lines = 1 if len(shape) == 1 else shape[0]
        block = " ".join(lines[i + 1:i + 1 + n_lines])
        tensors[parts[1]] = np.array(block.split(), dtype=float).reshape(shape)
        i += 1 + n_lines
    return meta, tensors


def read_manifest(path) -> tuple[dict, list]:
    with open(path) as fh:
        lines = [line.strip() for line in fh if line.strip()]
    if not lines or lines[0] != MANIFEST_HEADER:
        raise ValueError(f"{path}: bad header")
    meta = dict(line.split("=", 1) for line in lines[1:] if "=" in line)
    return meta, [line for line in lines[1:] if "=" not in line]


def file_digest(paths) -> str:
    h = hashlib.sha256()
    for path in sorted(paths):
        with open(path, "rb") as fh:
            h.update(fh.read())
    return h.hexdigest()


# --- numerics -----------------------------------------------------------------


def forward(tensors: dict, X: np.ndarray) -> np.ndarray:
    """Log-space head outputs (n, heads) of a parsed checkpoint."""
    a = (X - tensors["x_mean"]) / tensors["x_std"]
    j = 0
    while f"hidden{j}.W" in tensors:
        a = np.maximum(a @ tensors[f"hidden{j}.W"].T + tensors[f"hidden{j}.b"], 0.0)
        j += 1
    return a @ tensors["head.W"].T + tensors["head.b"]


def _xlogx(y):
    return np.where(y > 0, y * np.log(np.where(y > 0, y, 1.0)), 0.0)


def dp_nll(y, mu, gamma, beta):
    """Beta-scaled Double Poisson NLL with the normaliser held at 1."""
    resid = (mu - y) - (y * np.log(mu) - _xlogx(y))
    return gamma ** (-beta) * (-0.5 * np.log(gamma) + gamma * resid)


def dp_pmf(mu: np.ndarray, gamma: np.ndarray) -> np.ndarray:
    """Normalised Double Poisson PMFs, one row per (mu, gamma), shared support."""
    sd = np.sqrt(mu / gamma + 1.0)
    n = int(max(64, math.ceil(float(np.max(mu + 20.0 * sd + 32.0)))))
    y = np.arange(n, dtype=float)
    log_fact = np.array([math.lgamma(k + 1.0) for k in range(n)])
    mu, gamma = mu[:, None], gamma[:, None]
    log_w = (-y + _xlogx(y) - log_fact) + gamma * (y - mu + y * np.log(mu) - _xlogx(y))
    w = np.exp(log_w - log_w.max(axis=1, keepdims=True))
    p = w / w.sum(axis=1, keepdims=True)
    if np.any(p[:, -1] > 1e-14):
        raise ValueError("oracle support too short")
    return p


def crps_rows(pmf: np.ndarray, ys: np.ndarray) -> np.ndarray:
    cdf = np.cumsum(pmf, axis=1)
    below = np.arange(pmf.shape[1])[None, :] < ys[:, None]
    return np.sum(np.where(below, cdf**2, (cdf - 1.0) ** 2), axis=1)


def quantile_rows(pmf: np.ndarray, q: float) -> np.ndarray:
    cdf = np.cumsum(pmf, axis=1)
    return np.argmax(cdf >= q - 1e-12, axis=1).astype(float)


def close(a, b, rtol=ORACLE_RTOL, atol=1e-12) -> bool:
    return bool(np.all(np.abs(np.asarray(a) - np.asarray(b))
                       <= atol + rtol * np.abs(np.asarray(b))))


def _ref_check(name, observed, stored, tol):
    """Compare with a stored reference value; no check when none is stored."""
    if stored is None:
        return []
    return [Check(f"reference {name}", abs(observed - stored) <= tol,
                  f"{observed!r} vs stored {stored!r} (tol {tol})")]


def _guard(name, fn):
    """Run one group of checks; a reader error fails the group's check."""
    try:
        return list(fn())
    except (OSError, ValueError, KeyError, IndexError) as exc:
        return [Check(name, False, f"{type(exc).__name__}: {exc}")]


# --- train --------------------------------------------------------------------


def check_train(prefix, out_dir, spec, reference=None):
    """Checkpoints reload, the manifest lists every member, and the best
    validation loss is finite, is the reloaded weights' loss on the
    validation split, lies below the spec's ``best_val_loss_max`` and
    matches the stored reference."""
    observed = {"best_val_loss": []}
    checks = []
    manifest_path = os.path.join(out_dir, "ckpt", "model.manifest")

    def manifest():
        meta, names = read_manifest(manifest_path)
        expected = [f"model_member{m}.ckpt" for m in range(spec["members"])]
        yield Check("manifest lists all members",
                    names == expected and meta.get("family") == "double_poisson",
                    f"{names}")

    checks += _guard("manifest lists all members", manifest)
    widths = spec["hidden"]
    for m in range(spec["members"]):
        def member(m=m):
            with open(os.path.join(out_dir, "reports", "model_train.json")) as fh:
                report = json.load(fh)
            _, val = read_csv(f"{prefix}_val.csv")
            meta, t = read_checkpoint(os.path.join(out_dir, "ckpt", f"model_member{m}.ckpt"))
            shapes = [t[f"hidden{j}.W"].shape for j in range(len(widths))]
            want = [(w, fan) for w, fan in zip(widths, (1,) + tuple(widths[:-1]))]
            finite = all(np.all(np.isfinite(v)) for v in t.values())
            yield Check(f"member {m} checkpoint reloads",
                        shapes == want and t["head.W"].shape == (2, widths[-1]) and finite,
                        f"shapes {shapes}")
            rec = report["members"][m]
            losses = np.array(rec["val_loss"], dtype=float)
            best = float(losses[rec["best_epoch"] - 1])
            observed["best_val_loss"].append(best)
            yield Check(f"member {m} best validation loss finite and minimal",
                        bool(np.all(np.isfinite(losses))) and len(losses) == spec["epochs"]
                        and rec["best_epoch"] == int(np.argmin(losses)) + 1, f"best {best!r}")
            heads = forward(t, val[:, :1])
            recomputed = float(np.mean(dp_nll(val[:, 1], np.exp(heads[:, 0]),
                                              np.exp(heads[:, 1]), float(meta["beta"]))))
            yield Check(f"member {m} reloaded weights give the best validation loss",
                        close(recomputed, best, rtol=1e-9), f"{recomputed!r} vs {best!r}")
            if "best_val_loss_max" in spec:
                bound = spec["best_val_loss_max"]
                yield Check(f"member {m} best validation loss below {bound}", best < bound,
                            f"best {best!r}")
            stored = reference["best_val_loss"][m] if reference else None
            yield from _ref_check(f"member {m} best validation loss", best, stored,
                                  REF_TOL["best_val_loss"])

        checks += _guard(f"member {m} checkpoint reloads", member)
    return checks, observed


# --- score --------------------------------------------------------------------


def _ood_auroc(scores_id, scores_ood, spec, seed):
    """Mean AUROC of the quantile-threshold sweep, as the ood command runs it."""
    n_hold = int(round(0.2 * scores_id.size))
    alphas = np.linspace(0.0, 1.0, spec["alpha_points"])
    aurocs = []
    for rep in range(spec["n_repeats"]):
        perm = np.random.default_rng(seed + rep).permutation(scores_id.size)
        holdout, id_eval = scores_id[perm[:n_hold]], scores_id[perm[n_hold:]]
        tau = np.quantile(holdout, 1.0 - alphas, method="linear")
        fpr = np.sum(id_eval[None, :] > tau[:, None], axis=1) / id_eval.size
        tpr = np.sum(scores_ood[None, :] > tau[:, None], axis=1) / scores_ood.size
        order = np.lexsort((tpr, fpr))
        aurocs.append(np.trapezoid(np.concatenate([[0.0], tpr[order], [1.0]]),
                                   np.concatenate([[0.0], fpr[order], [1.0]])))
    return float(np.mean(aurocs))


def check_score(prefix, setup_dir, out_dir, spec, seed, reference=None):
    """eval, ensemble-eval and ood outputs against recomputed values and the
    stored reference; interval and decomposition sanity of the CSV."""
    observed = {}
    checks = []
    _, test = read_csv(f"{prefix}_test.csv")
    xs, ys = test[:, :1], test[:, 1]
    reports = os.path.join(out_dir, "reports")
    ckpts = [read_checkpoint(os.path.join(setup_dir, "ckpt", f"model_member{m}.ckpt"))[1]
             for m in range(spec["members"])]
    heads = np.stack([forward(t, xs) for t in ckpts])  # (M, n, 2)
    mu, gamma = np.exp(heads[..., 0]), np.exp(heads[..., 1])
    member_pmfs = [dp_pmf(mu[m], gamma[m]) for m in range(len(ckpts))]
    width = max(p.shape[1] for p in member_pmfs)
    mix = np.mean([np.pad(p, ((0, 0), (0, width - p.shape[1]))) for p in member_pmfs], axis=0)

    for tag, pmf in (("eval", member_pmfs[0]), ("ensemble", mix)):
        def scored(tag=tag, pmf=pmf):
            with open(os.path.join(reports, f"{tag}_metrics.json")) as fh:
                got = json.load(fh)
            mae = float(np.mean(np.abs(ys - np.argmax(pmf, axis=1))))
            crps = float(np.mean(crps_rows(pmf, ys)))
            observed[f"{tag}_mae"], observed[f"{tag}_crps"] = got["mae"], got["crps_mean"]
            yield Check(f"{tag} mae recomputed", close(got["mae"], mae),
                        f"{got['mae']!r} vs {mae!r}")
            yield Check(f"{tag} crps recomputed", close(got["crps_mean"], crps),
                        f"{got['crps_mean']!r} vs {crps!r}")
            ref = reference or {}
            yield from _ref_check(f"{tag} mae", got["mae"], ref.get(f"{tag}_mae"),
                                  REF_TOL["mae"])
            yield from _ref_check(f"{tag} crps", got["crps_mean"], ref.get(f"{tag}_crps"),
                                  REF_TOL["crps"])

        checks += _guard(f"{tag} metrics", scored)

    def decomposition():
        header, table = read_csv(os.path.join(reports, "ensemble_decomposition.csv"))
        col = {name: table[:, i] for i, name in enumerate(header)}
        yield Check("decomposition has one finite row per test input",
                    table.shape[0] == ys.size and bool(np.all(np.isfinite(table))),
                    f"{table.shape[0]} rows")
        yield Check("decomposition q025 <= q975", bool(np.all(col["q025"] <= col["q975"])))
        yield Check("decomposition aleatoric and epistemic >= 0",
                    bool(np.all(col["aleatoric"] >= 0.0) and np.all(col["epistemic"] >= 0.0)))
        member_var = mu / gamma
        expected = {
            "mean": mu.mean(axis=0),
            "aleatoric": member_var.mean(axis=0),
            "epistemic": np.maximum((mu**2).mean(axis=0) - mu.mean(axis=0) ** 2, 0.0),
            "q025": quantile_rows(mix, 0.025),
            "q975": quantile_rows(mix, 0.975),
        }
        for name, want in expected.items():
            yield Check(f"decomposition {name} recomputed",
                        close(col[name], want, atol=1e-9), f"max abs diff "
                        f"{float(np.max(np.abs(col[name] - want))):.3g}")

    checks += _guard("decomposition", decomposition)

    def ood():
        with open(os.path.join(reports, "ood_ood.json")) as fh:
            got = json.load(fh)["auroc"]["mean"]
        observed["auroc"] = got
        ood_x = np.random.default_rng(seed).uniform(4.0 * math.pi, 6.0 * math.pi,
                                                    spec["ood_n"])[:, None]

        def scores(X):
            h = np.stack([forward(t, X) for t in ckpts])
            with np.errstate(over="ignore"):
                m = np.exp(h[..., 0])
                v = m / np.exp(h[..., 1])
                epistemic = np.maximum((m**2).mean(axis=0) - m.mean(axis=0) ** 2, 0.0)
                return v.mean(axis=0) + epistemic

        want = _ood_auroc(scores(xs), scores(ood_x), spec, seed)
        yield Check("ood auroc recomputed", close(got, want, atol=1e-9), f"{got!r} vs {want!r}")
        yield from _ref_check("ood auroc", got, (reference or {}).get("auroc"), REF_TOL["auroc"])

    checks += _guard("ood auroc", ood)
    return checks, observed


# --- moments ------------------------------------------------------------------


def poisson_partial_deviation(mu0: float, n_terms: int) -> tuple[float, float]:
    """eps1, eps2 of an n_terms partial sum on the Poisson diagonal var0 = mu0.

    With gamma = 1 the weights are Poisson probabilities up to a constant,
    so the true deviations are 0; a fixed partial sum leaves the truncated
    Poisson mass's deviation instead.
    """
    y = np.arange(n_terms, dtype=float)
    log_w = y * math.log(mu0) - mu0 - np.array([math.lgamma(k + 1.0) for k in range(n_terms)])
    w = np.exp(log_w - log_w.max())
    s0, s1 = w.sum(), np.sum(w * (y - mu0))
    d = np.sum(w * ((y - mu0) ** 2 - y)) + s1
    return abs(s1 / s0), abs((d * s0 - s1 * s1) / (s0 * s0))


def check_moments(grid_csv, n, n_terms):
    """Grid shape and axes of an n x n grid, finite nonnegative deviations,
    and the oracle on the Poisson diagonal: eps1 and eps2 below 1e-9 where
    var0 = mu0."""
    checks = []
    header, table = read_csv(grid_csv)
    axis = np.logspace(math.log10(0.01), math.log10(100.0), n)
    checks.append(Check("grid rows and axes", header == ["mu0", "var0", "eps1", "eps2"]
                        and table.shape == (n * n, 4)
                        and close(table[:, 0], np.repeat(axis, n), rtol=1e-12)
                        and close(table[:, 1], np.tile(axis, n), rtol=1e-12),
                        f"{table.shape}"))
    checks.append(Check("deviations finite and nonnegative",
                        bool(np.all(np.isfinite(table[:, 2:])) and np.all(table[:, 2:] >= 0.0))))
    if not checks[0].ok:
        return checks
    eps = table[:, 2:].reshape(n, n, 2)
    for i, mu0 in enumerate(axis):
        e1, e2 = eps[i, i]
        ok = e1 < DIAGONAL_TOL and e2 < DIAGONAL_TOL
        standing = False
        if not ok:
            # the recorded truncation defect: the program returns exactly the
            # n_terms partial sum, which misses Poisson mass past n_terms
            t1, t2 = poisson_partial_deviation(float(mu0), n_terms)
            standing = close([e1, e2], [t1, t2], rtol=1e-6, atol=1e-12)
        checks.append(Check(f"Poisson diagonal mu0=var0={mu0:.6g}", ok,
                            f"eps1 {e1:.3g}, eps2 {e2:.3g}", standing))
    return checks
