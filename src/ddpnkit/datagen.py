"""Synthetic count regression processes, all deterministic per seed.

Four processes at desk scale:

* sine conflation: x ~ U(0, 2pi), a latent count drawn from the conflation
  of five identical Poisson(10 sin x + 10) laws (PMF proportional to the
  fifth power, normalized over 0..60), then flipped as y = 30 - y0. The
  flip makes high counts under-dispersed and low counts over-dispersed,
  which no Poisson or negative binomial head can represent.
* misspec poisson: y ~ Poisson(exp(x/2)), equi-dispersed.
* misspec nb: y ~ NegBinomial(r = x^2, p = 1/2) drawn through its
  gamma-Poisson mixture, over-dispersed with variance twice the mean.
* beta study: y ~ DoublePoisson(ceil(x sin x + 15), 6 - 0.03 x^2) on
  x ~ U(3, 8), plus isolated training points (x=1, y=16) and (x=10, y=10)
  that sit far from the bulk, for studying mean-fit speed under beta
  scaling of the loss.

Datasets are exchanged as CSV with header "x,y"; floats are written with
repr so a write/read round trip is bit-exact.

The sine conflation and beta study samplers import distributions when they
run, so the CSV reader and writer, all that the train command uses here,
execute none of it.
"""

from __future__ import annotations

import csv
import math
import os
from dataclasses import dataclass, field
from itertools import islice

import numpy as np

from ddpnkit.errors import DomainError, FileFormatError, ShapeError

CONFLATION_SUPPORT = 60
CONFLATION_POWER = 5
CONFLATION_SHIFT = 30


@dataclass(frozen=True)
class SplitIndices:
    """Row indices of a dataset assigned to the train/val/test roles."""

    train: np.ndarray
    val: np.ndarray
    test: np.ndarray = field(default_factory=lambda: np.zeros(0, dtype=np.int64))


@dataclass(frozen=True)
class SyntheticDataset:
    """Feature matrix (n, d), nonnegative integer labels, generator name and seed."""

    xs: np.ndarray
    ys: np.ndarray
    process: str
    seed: int

    def __post_init__(self):
        xs = np.atleast_2d(np.asarray(self.xs, dtype=float))
        if xs.shape[0] == 1 and np.asarray(self.ys).size != 1:
            xs = xs.T
        ys = np.asarray(self.ys)
        object.__setattr__(self, "xs", xs)
        object.__setattr__(self, "ys", np.asarray(ys, dtype=np.int64))
        if xs.shape[0] != ys.size:
            raise ShapeError(f"{xs.shape[0]} inputs for {ys.size} labels")
        if not np.all(np.isfinite(xs)):
            raise DomainError("inputs must be finite")
        if np.any(np.asarray(ys) < 0):
            raise DomainError("labels must be nonnegative counts")

    @property
    def n(self) -> int:
        return int(self.ys.size)


def split_indices(n: int, counts=None, fractions=(0.8, 0.1, 0.1)) -> SplitIndices:
    """Contiguous train/val/test blocks; rows are i.i.d. so order carries no signal."""
    if counts is None:
        n_train = int(round(fractions[0] * n))
        n_val = int(round(fractions[1] * n))
        counts = (n_train, n_val, n - n_train - n_val)
    if sum(counts) != n or any(c < 0 for c in counts):
        raise DomainError(f"split counts {counts} do not partition {n} rows")
    edges = np.cumsum((0,) + tuple(counts))
    idx = np.arange(n, dtype=np.int64)
    return SplitIndices(idx[: edges[1]], idx[edges[1] : edges[2]], idx[edges[2] :])


# --- sine conflation ----------------------------------------------------------


def _conflation_log_pmf(lams: np.ndarray) -> np.ndarray:
    """Log PMFs over 0..60 at rates lams, less each row's largest: CONFLATION_POWER times
    the Poisson log PMF (-lam at y = 0, log h(y) - bd0(y, lam) above; lam = 0 is a point mass)."""
    from ddpnkit.distributions import _bd0, _log_h

    bad = ~(np.isfinite(lams) & (lams >= 0.0))
    if bad.any():
        raise DomainError(f"rate must be finite and nonnegative, got {lams[bad][0]}")
    ys = np.arange(1.0, CONFLATION_SUPPORT + 1.0)
    log_p = CONFLATION_POWER * np.column_stack((-lams, _log_h(ys) - _bd0(ys, lams[:, None])))
    return log_p - np.max(log_p, axis=1, keepdims=True)


def sine_conflation_pmf(lam: float) -> np.ndarray:
    """Normalized PMF of the 5-fold Poisson conflation over 0..60."""
    p = np.exp(_conflation_log_pmf(np.array([float(lam)]))[0])
    return p / p.sum()


def sine_conflation_true_moments(x: float) -> tuple[float, float]:
    """Mean and variance of the emitted label y = 30 - y0 at a finite covariate x."""
    if not math.isfinite(x):
        raise DomainError(f"covariate must be finite, got {x}")
    p = sine_conflation_pmf(10.0 * math.sin(x) + 10.0)
    ys = np.arange(p.size)
    m0 = float(np.sum(p * ys))
    v0 = float(np.sum(p * (ys - m0) ** 2))
    return CONFLATION_SHIFT - m0, v0


def _sample_conflation(rng: np.random.Generator, lams: np.ndarray) -> np.ndarray:
    p = np.exp(_conflation_log_pmf(lams))
    cdf = np.cumsum(p, axis=1)
    cdf /= cdf[:, -1:]
    u = rng.random(lams.size)
    return (u[:, None] > cdf).sum(axis=1)


def gen_sine_conflation(
    n_train: int = 800, n_val: int = 100, n_test: int = 100, seed: int = 0
):
    """Sine conflation dataset with its canonical split."""
    n = n_train + n_val + n_test
    rng = np.random.default_rng(seed)
    xs = rng.uniform(0.0, 2.0 * math.pi, n)
    y0 = _sample_conflation(rng, 10.0 * np.sin(xs) + 10.0)
    # mass above the shift point is below 1e-6; redraw the astronomically rare hit
    while np.any(y0 > CONFLATION_SHIFT):
        bad = y0 > CONFLATION_SHIFT
        y0[bad] = _sample_conflation(rng, 10.0 * np.sin(xs[bad]) + 10.0)
    ds = SyntheticDataset(xs[:, None], CONFLATION_SHIFT - y0, "sine_conflation", seed)
    return ds, split_indices(n, counts=(n_train, n_val, n_test))


# --- misspecification processes ----------------------------------------------


def gen_misspec_poisson(n: int = 2000, seed: int = 0, x_low: float = 0.5, x_high: float = 5.0):
    """y ~ Poisson(exp(x/2)); a Poisson head is correctly specified here."""
    rng = np.random.default_rng(seed)
    xs = rng.uniform(x_low, x_high, n)
    ys = rng.poisson(np.exp(xs / 2.0))
    ds = SyntheticDataset(xs[:, None], ys, "misspec_poisson", seed)
    return ds, split_indices(n)


def gen_misspec_nb(n: int = 2000, seed: int = 0, x_low: float = 0.5, x_high: float = 5.0):
    """y ~ NegBinomial(r = x^2, p = 1/2) via its gamma-Poisson composition.

    Mean x^2 and variance 2 x^2. Rows with x = 0 are redrawn since r must
    stay positive.
    """
    rng = np.random.default_rng(seed)
    xs = rng.uniform(x_low, x_high, n)
    while np.any(xs == 0.0):
        xs[xs == 0.0] = rng.uniform(x_low, x_high, int(np.sum(xs == 0.0)))
    lam = rng.gamma(shape=xs**2, scale=1.0)  # scale (1-p)/p = 1 at p = 1/2
    ys = rng.poisson(lam)
    ds = SyntheticDataset(xs[:, None], ys, "misspec_nb", seed)
    return ds, split_indices(n)


# --- beta study ---------------------------------------------------------------


def beta_study_params(x: float) -> tuple[float, float]:
    """Ground-truth (mu, gamma) of the beta-study process at covariate x."""
    return float(math.ceil(x * math.sin(x) + 15.0)), 6.0 - 0.03 * x * x


ISOLATED_POINTS = ((1.0, 16), (10.0, 10))


def gen_beta_study(n: int = 500, seed: int = 0, isolated_repeat: int = 1):
    """Double Poisson draws on x ~ U(3, 8) plus fixed isolated train points.

    The isolated points land in the training block so mean-fit speed at
    x = 1 and x = 10 can be probed during training.
    """
    from ddpnkit.distributions import DOUBLE_POISSON, PredictiveBatch, _inverse_cdf

    if isolated_repeat < 0:
        raise DomainError(f"isolated_repeat must be nonnegative, got {isolated_repeat}")
    rng = np.random.default_rng(seed)
    xs = rng.uniform(3.0, 8.0, n)
    mu, gamma = np.array([beta_study_params(x) for x in xs.tolist()]).reshape(n, 2).T
    # one uniform draw per row, inverted through that row's CDF
    ys = _inverse_cdf(PredictiveBatch(DOUBLE_POISSON, (mu, gamma)), rng.random((n, 1)))[:, 0]
    n_train = int(round(0.8 * n))
    n_val = int(round(0.1 * n))
    iso_x = np.repeat([p[0] for p in ISOLATED_POINTS], isolated_repeat)
    iso_y = np.repeat([p[1] for p in ISOLATED_POINTS], isolated_repeat)
    all_x = np.concatenate([xs[:n_train], iso_x, xs[n_train:]])
    all_y = np.concatenate([ys[:n_train], iso_y, ys[n_train:]])
    ds = SyntheticDataset(all_x[:, None], all_y, "beta_study", seed)
    counts = (n_train + iso_x.size, n_val, n - n_train - n_val)
    return ds, split_indices(ds.n, counts=counts)


# --- CSV I/O ------------------------------------------------------------------

PROCESSES = {
    "sine-conflation": gen_sine_conflation,
    "misspec-poisson": gen_misspec_poisson,
    "misspec-nb": gen_misspec_nb,
    "beta-study": gen_beta_study,
}


def csv_chunks(header: str, columns):
    """CSV text in chunks: the header line, then one line per row of the text
    columns, 1024 rows to a chunk.

    Cells hold no comma, quote or line break; every line ends with "\\n".
    """
    yield header + "\n"
    rows = map(",".join, zip(*columns))
    while block := list(islice(rows, 1024)):
        block.append("")
        yield "\n".join(block)


def dataset_csv_chunks(xs: np.ndarray, ys: np.ndarray):
    """x,y CSV text of a single-feature dataset, floats written with repr (csv_chunks)."""
    xs = np.atleast_2d(np.asarray(xs, dtype=float))
    if xs.shape[1] != 1:
        raise ShapeError("CSV datasets carry a single feature column")
    return csv_chunks("x,y", [map(repr, xs[:, 0].tolist()),
                              map(str, np.asarray(ys, dtype=np.int64).tolist())])


def render_dataset_csv(xs: np.ndarray, ys: np.ndarray) -> str:
    """The text of dataset_csv_chunks as one string."""
    return "".join(dataset_csv_chunks(xs, ys))


class DatasetFormatError(FileFormatError):
    """A dataset CSV does not follow the x,y layout."""


def read_dataset_csv(path) -> tuple[np.ndarray, np.ndarray]:
    """Read an x,y CSV of finite inputs and nonnegative integer labels.

    Raises DatasetFormatError for a bad header or row, or a file that is not
    CSV text.
    """
    xs, ys = [], []
    try:
        with open(path, newline="") as fh:
            reader = csv.reader(fh)
            header = next(reader, None)
            if header != ["x", "y"]:
                raise DatasetFormatError(f"{path}: expected header x,y, got {header}")
            for row in reader:
                if len(row) != 2:
                    raise DatasetFormatError(f"{path}: malformed row {row}")
                try:
                    x, y = float(row[0]), int(row[1])
                except ValueError as exc:
                    raise DatasetFormatError(f"{path}: cannot parse row {row} as a float "
                                             "input and an integer label") from exc
                if not (math.isfinite(x) and 0 <= y < 2**63):
                    raise DatasetFormatError(f"{path}: row {row} needs a finite input and a "
                                             "nonnegative 64-bit label")
                xs.append(x)
                ys.append(y)
    except (csv.Error, UnicodeDecodeError) as exc:
        raise DatasetFormatError(f"{path}: not CSV text ({exc})") from exc
    return np.array(xs)[:, None], np.array(ys, dtype=np.int64)


def read_split_csvs(prefix) -> tuple[SyntheticDataset, SplitIndices]:
    """Rebuild a dataset and contiguous split from the three suffixed CSVs."""
    parts = []
    counts = []
    for name in ("train", "val", "test"):
        path = f"{prefix}_{name}.csv"
        if os.path.exists(path):
            xs, ys = read_dataset_csv(path)
            parts.append((xs, ys))
            counts.append(ys.size)
        elif name == "test":
            counts.append(0)
        else:
            raise DomainError(f"missing dataset file {path}")
    xs = np.concatenate([p[0] for p in parts])
    ys = np.concatenate([p[1] for p in parts])
    ds = SyntheticDataset(xs, ys, os.path.basename(str(prefix)), -1)
    return ds, split_indices(ds.n, counts=tuple(counts))
