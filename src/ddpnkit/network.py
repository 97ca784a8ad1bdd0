"""Small fully connected networks trained from scratch with numpy.

The regression model is an MLP with ReLU hidden layers and an affine head,
one output per predicted parameter. MLPWeights.layers holds every layer's
[W, b] pair, the hidden layers first and the head last. Heads live in log
space (log mu, and log gamma / log dispersion / log variance depending on
the family). losses.head_nll takes the heads as they are and returns the
loss with its gradients with respect to them, so backpropagation starts
from the heads for every family.

Training uses mini-batch AdamW with decoupled weight decay, a cosine decay
of the learning rate over epochs, and keeps the weights from the epoch with
the best validation loss. The parameters, the gradient and the two Adam
moments each live in one flat vector. The moments are kept undamped (running
sums of g and g*g, without the (1 - beta) factors), so two scalars per step
absorb both bias corrections and eps, and the spent gradient vector is the
update's only scratch. train checks its train and val labels once, up front;
batch_loss checks the labels it is given. Features
are standardized with statistics of the training split; the standardizer is
stored with the weights so checkpoints are self-contained. An empty
hidden_widths tuple degrades the model to a log-linear GLM, which is handy
for sanity checks.

forward_batch(weights, X) is the one forward pass. For inference it runs
the hidden layers over row blocks of INFER_BLOCK rows once a batch holds
two blocks, and the head over all rows at once, so its working set does not
grow with one full-batch activation array per layer and its outputs are
bit for bit the unblocked pass's. Training calls forward_batch(weights, X,
acts) with a list that receives every layer's activations for backprop;
that pass is not blocked. init_mlp(input_dim, hidden_widths, head_count,
seed, gamma_bias_init) draws the starting weights.

Checkpoints are text files; render_checkpoint and load_checkpoint are their
format. The ensemble manifest, which lists a run's checkpoints, has its
format here too (render_manifest and load_manifest), so the train
command executes only cli, errors, losses, network and datagen.

Everything is deterministic for a fixed seed.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, fields

import numpy as np

from ddpnkit.datagen import SplitIndices
from ddpnkit.errors import DomainError, FileFormatError, NumericDivergence, ShapeError
from ddpnkit.losses import LossSpec, _check_labels, head_nll

ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8

CKPT_HEADER = "ddpnkit-ckpt v1"
INFER_BLOCK = 128  # rows per hidden-layer block of an inference pass


@dataclass
class MLPWeights:
    """Layer parameters and the input standardizer.

    layers holds [W, b] pairs with W of shape (out, in): the ReLU hidden
    layers, then the affine head, whose row 0 is the log-mu head and row 1
    (if present) the log-dispersion head.
    """

    layers: list
    x_mean: np.ndarray
    x_std: np.ndarray

    @property
    def head_count(self) -> int:
        return int(self.layers[-1][1].size)


@dataclass(frozen=True)
class TrainConfig:
    loss: LossSpec
    epochs: int = 200
    batch_size: int = 32
    lr: float = 1e-3
    weight_decay: float = 1e-5
    seed: int = 0
    gamma_bias_init: float = 0.0
    hidden_widths: tuple = (128, 128, 128, 64)
    select_unscaled: bool = False

    def __post_init__(self):
        if self.epochs < 1:
            raise DomainError(f"epochs must be positive, got {self.epochs}")
        if self.batch_size < 1:
            raise DomainError(f"batch_size must be positive, got {self.batch_size}")
        if not (math.isfinite(self.lr) and self.lr > 0.0):
            raise DomainError(f"lr must be finite and positive, got {self.lr}")
        if not (math.isfinite(self.weight_decay) and self.weight_decay >= 0.0):
            raise DomainError(f"weight_decay must be finite and >= 0, got {self.weight_decay}")
        if not math.isfinite(self.gamma_bias_init):
            raise DomainError(f"gamma_bias_init must be finite, got {self.gamma_bias_init}")
        object.__setattr__(self, "hidden_widths", tuple(int(w) for w in self.hidden_widths))


@dataclass
class TrainReport:
    train_loss: list
    val_loss: list
    best_epoch: int
    wall_time: float
    config: TrainConfig
    final_weights: MLPWeights | None = None


def cosine_lr(epoch: int, total_epochs: int, lr0: float) -> float:
    """Cosine decay from lr0 at epoch 0 toward 0 at epoch total_epochs."""
    return lr0 * 0.5 * (1.0 + math.cos(math.pi * epoch / total_epochs))


def init_mlp(input_dim: int, hidden_widths, head_count: int, seed: int,
             gamma_bias_init: float = 0.0) -> MLPWeights:
    """Fan-in scaled uniform initialization, U(-1/sqrt(fan_in), 1/sqrt(fan_in)).

    The second head's bias is set to gamma_bias_init so the network starts
    from a chosen dispersion level (initial predicted log gamma equals
    gamma_bias_init at the origin of standardized feature space). Raises
    DomainError for an input_dim or hidden width below 1, or a head_count
    other than 1 or 2.
    """
    if input_dim < 1:
        raise DomainError(f"input_dim must be positive, got {input_dim}")
    if head_count not in (1, 2):
        raise DomainError(f"head_count must be 1 or 2, got {head_count}")
    if any(w < 1 for w in hidden_widths):
        raise DomainError(f"hidden widths must be positive, got {hidden_widths}")
    rng = np.random.default_rng(seed)
    layers = []
    fan_in = input_dim
    for width in (*hidden_widths, head_count):
        bound = 1.0 / math.sqrt(fan_in)
        layers.append([
            rng.uniform(-bound, bound, size=(width, fan_in)),
            rng.uniform(-bound, bound, size=width),
        ])
        fan_in = width
    if head_count == 2:
        layers[-1][1][1] = gamma_bias_init
    return MLPWeights(layers, x_mean=np.zeros(input_dim), x_std=np.ones(input_dim))


def _hidden_pass(weights: MLPWeights, X: np.ndarray, acts: list | None = None) -> np.ndarray:
    """The standardized input run through the hidden layers: the last hidden
    layer's output. Only the current layer's activations are held, unless
    acts is a list: it then receives every layer's input for backprop,
    acts[0] the standardized input and acts[-1] the last hidden layer's
    output."""
    a = (X - weights.x_mean) / weights.x_std
    for W, b in weights.layers[:-1]:
        if acts is not None:
            acts.append(a)
        a = a @ W.T
        a += b
        np.maximum(a, 0.0, out=a)
    if acts is not None:
        acts.append(a)
    return a


def forward_batch(weights: MLPWeights, X: np.ndarray, acts: list | None = None) -> np.ndarray:
    """The one forward pass: head outputs, shape (n, head_count), still in log
    space.

    acts is as in _hidden_pass; a pass with acts is not blocked. Without
    acts, 2 * INFER_BLOCK rows or more go through the hidden layers in blocks
    of INFER_BLOCK rows, the last block taking the remainder, so the working
    set is one block's activations plus the (n, last width) output of the
    last hidden layer. The head runs over all rows at once: on OpenBLAS a
    hidden product gives the same bits in any row block of 32 rows or more,
    but a product with 2 to 8 output columns, such as the head's, does not.
    So the result is the same to the bit as one pass over all rows.
    """
    X = np.atleast_2d(np.asarray(X, dtype=float))
    if X.shape[1] != weights.x_mean.size:
        raise ShapeError(f"expected {weights.x_mean.size} features, got {X.shape[1]}")
    n = X.shape[0]
    head_w, head_b = weights.layers[-1]
    if acts is not None or n < 2 * INFER_BLOCK:
        a = _hidden_pass(weights, X, acts)
    else:
        a = np.empty((n, head_w.shape[1]))
        edges = [*range(0, n - INFER_BLOCK + 1, INFER_BLOCK), n]
        for start, stop in zip(edges[:-1], edges[1:]):
            a[start:stop] = _hidden_pass(weights, X[start:stop])
    heads = a @ head_w.T
    heads += head_b
    return heads


def batch_loss(weights: MLPWeights, X: np.ndarray, ys: np.ndarray, spec: LossSpec) -> float:
    """Mean per-example loss of the batch, inf if the model has blown up
    (any mean that is not finite, nan included).

    Returning inf rather than raising keeps validation evaluation usable
    while the training batches themselves are still finite. Raises
    DomainError for labels that are not finite and nonnegative.
    """
    ys = np.asarray(ys, dtype=float)
    _check_labels(ys)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        heads = forward_batch(weights, X)
        try:
            values, _ = head_nll(spec, ys, heads)
        except NumericDivergence:
            return math.inf
        loss = float(np.mean(values))
    return loss if math.isfinite(loss) else math.inf


def _backward(weights: MLPWeights, X: np.ndarray, ys: np.ndarray, spec: LossSpec,
              out: list) -> float:
    """Mean-over-batch gradients of every layer's [W, b], written into out, a
    list of pairs shaped as weights.layers (see _flat_views).

    Returns the mean loss. Raises ShapeError if ys and X differ in rows and
    NumericDivergence if the batch loss is not finite. The labels are taken
    as checked and the error state as set: train does both once, and passes
    views of its flat gradient vector as out.
    """
    acts = []
    heads = forward_batch(weights, X, acts)
    if ys.size != heads.shape[0]:
        raise ShapeError(f"batch has {heads.shape[0]} inputs but {ys.size} labels")
    values, delta = head_nll(spec, ys, heads)  # delta: the gradient at layer i's affine output
    mean_loss = float(np.mean(values))
    if not math.isfinite(mean_loss):
        raise NumericDivergence("non-finite batch loss")
    delta /= float(ys.size)
    for i in reversed(range(len(out))):
        grad_w, grad_b = out[i]
        np.matmul(delta.T, acts[i], out=grad_w)
        delta.sum(axis=0, out=grad_b)
        if i:  # the input needs no gradient
            delta = delta @ weights.layers[i][0]
            delta *= acts[i] > 0.0
    return mean_loss


def _flat_views(flat: np.ndarray, layers: list) -> list:
    """[W, b] pairs shaped as those of layers, as views of flat."""
    views, start = [], 0
    for W, b in layers:
        stop = start + W.size
        views.append([flat[start:stop].reshape(W.shape), flat[stop:stop + b.size]])
        start = stop + b.size
    return views


def _adamw_update(p, g, m, v, lr, weight_decay, bias1, bias2):
    """One AdamW step in place on flat vectors; g is used up as the scratch.

    m and v hold the undamped moment sums m~ = b1*m~ + g and v~ = b2*v~ + g*g,
    the textbook moments m, v over (1-b1) and (1-b2). With
    s = sqrt((1-b2)/bias2), the textbook step
        lr * ((m/bias1) / (sqrt(v/bias2) + eps) + weight_decay*p)
    (Kingma & Ba 2015, sec. 2; Loshchilov & Hutter 2019) becomes
        p *= 1 - lr*weight_decay;  p -= c * m~ / (sqrt(v~) + eps/s),
    where c = lr*(1-b1)/(bias1*s) absorbs bias1 and bias2, and eps/s takes
    eps to the scale of sqrt(v~). Every element goes through these operations
    in this order, so the result is the same to the bit as that arithmetic
    on each weight array separately: 11 passes over 4 vectors. A step that
    overflows (a huge lr or weight_decay) leaves weights that are not finite,
    which the next loss reports as NumericDivergence (train ignores the warning).
    """
    s = math.sqrt((1.0 - ADAM_BETA2) / bias2)
    m *= ADAM_BETA1
    m += g
    v *= ADAM_BETA2
    np.multiply(g, g, out=g)
    v += g
    np.sqrt(v, out=g)
    g += ADAM_EPS / s
    np.divide(m, g, out=g)
    g *= lr * (1.0 - ADAM_BETA1) / (bias1 * s)
    p *= 1.0 - lr * weight_decay
    p -= g


def train(dataset, split: SplitIndices, config: TrainConfig, epoch_hook=None):
    """Fit an MLP on the dataset's train rows, selecting on validation loss.

    dataset needs xs of shape (n, d) and ys of shape (n,). The returned
    weights are the best-validation copy; the report also carries the final
    weights, loss curves and timing. epoch_hook, if given, is called as
    epoch_hook(epoch, weights) after each epoch with 1-based epoch numbers.

    Raises DomainError before the first step if a train or val label is not
    finite and nonnegative (test rows are never read), and NumericDivergence
    (with the partial report attached) if a batch loss becomes non-finite or
    no epoch reaches a finite validation loss.
    """
    t0 = time.perf_counter()
    xs = np.atleast_2d(np.asarray(dataset.xs, dtype=float))
    ys = np.asarray(dataset.ys, dtype=float)
    if xs.shape[0] != ys.size:
        raise ShapeError(f"dataset has {xs.shape[0]} inputs but {ys.size} labels")
    if split.train.size == 0 or split.val.size == 0:
        raise DomainError("train and val splits must be nonempty")
    train_x, train_y = xs[split.train], ys[split.train]
    val_x, val_y = xs[split.val], ys[split.val]
    # the only label check of the training loop, which calls _backward
    _check_labels(train_y)
    _check_labels(val_y)

    weights = init_mlp(xs.shape[1], config.hidden_widths, config.loss.head_count, config.seed,
                       config.gamma_bias_init)
    std = train_x.std(axis=0)
    std[std < 1e-12] = 1.0
    weights.x_mean = train_x.mean(axis=0)
    weights.x_std = std
    val_spec = LossSpec(config.loss.family, 0.0) if config.select_unscaled else config.loss

    # parameters, gradients and both Adam moments each live in one contiguous
    # vector, so the update is a few whole-vector ufunc calls; the weights and
    # gradients handed to _backward are views of them, and the best weights
    # are a snapshot of the parameter vector
    params = np.concatenate([arr.ravel() for pair in weights.layers for arr in pair])
    weights.layers = _flat_views(params, weights.layers)
    grad = np.zeros_like(params)
    grads = _flat_views(grad, weights.layers)
    m_state, v_state = np.zeros_like(params), np.zeros_like(params)
    best_params = np.empty_like(params)
    step = 0
    shuffle_rng = np.random.default_rng(config.seed + 1)

    report = TrainReport(
        train_loss=[], val_loss=[], best_epoch=0, wall_time=0.0, config=config,
    )
    best_val = math.inf

    caller = np.geterr()  # for the hook; a step's overflow is read off its loss
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        for epoch in range(config.epochs):
            lr = cosine_lr(epoch, config.epochs, config.lr)
            order = shuffle_rng.permutation(split.train.size)
            epoch_loss = 0.0
            for start in range(0, order.size, config.batch_size):
                rows = order[start : start + config.batch_size]
                try:
                    loss_value = _backward(weights, train_x[rows], train_y[rows], config.loss,
                                           grads)
                except NumericDivergence:
                    report.wall_time = time.perf_counter() - t0
                    report.final_weights = weights
                    at = f"epoch {epoch + 1}, batch {start // config.batch_size}"
                    raise NumericDivergence(f"training diverged at {at}", report=report) from None
                epoch_loss += loss_value * rows.size
                step += 1
                _adamw_update(params, grad, m_state, v_state, lr, config.weight_decay,
                              1.0 - ADAM_BETA1**step, 1.0 - ADAM_BETA2**step)
            report.train_loss.append(epoch_loss / split.train.size)
            val_loss = batch_loss(weights, val_x, val_y, val_spec)
            report.val_loss.append(val_loss)
            if math.isfinite(val_loss) and val_loss < best_val:
                best_val = val_loss
                np.copyto(best_params, params)
                report.best_epoch = epoch + 1
            if epoch_hook is not None:
                with np.errstate(**caller):  # the hook runs in the caller's state
                    epoch_hook(epoch + 1, weights)

    report.wall_time = time.perf_counter() - t0
    report.final_weights = weights
    if report.best_epoch == 0:
        raise NumericDivergence(f"no epoch of {config.epochs} reached a finite validation loss",
                                report=report)
    return MLPWeights(_flat_views(best_params, weights.layers), x_mean=weights.x_mean.copy(),
                      x_std=weights.x_std.copy()), report


# --- checkpoint I/O -----------------------------------------------------------


def _tensor_lines(name: str, arr: np.ndarray):
    arr = np.asarray(arr, dtype=float)
    if arr.ndim not in (1, 2):
        raise ShapeError(f"cannot serialize tensor of rank {arr.ndim}")
    yield f"tensor {name} {arr.ndim} {' '.join(map(str, arr.shape))}\n"
    # tolist gives Python floats, whose repr is the shortest round-trip text;
    # a row at a time, so the whole tensor is never held as floats
    for row in np.atleast_2d(arr):
        yield " ".join(map(repr, row.tolist())) + "\n"


def _checkpoint_lines(weights: MLPWeights, meta: dict):
    """The lines of render_checkpoint's text."""
    yield CKPT_HEADER + "\n"
    for key, value in meta.items():
        yield f"{key}={value}\n"
    yield from _tensor_lines("x_mean", weights.x_mean)
    yield from _tensor_lines("x_std", weights.x_std)
    for i, (W, b) in enumerate(weights.layers):
        layer = "head" if i == len(weights.layers) - 1 else f"hidden{i}"
        yield from _tensor_lines(f"{layer}.W", W)
        yield from _tensor_lines(f"{layer}.b", b)


def render_checkpoint(weights: MLPWeights, meta: dict) -> str:
    """Checkpoint text: header, key=value metadata echo, then each tensor as
    a dimension-prefixed block of decimal floats. repr round-trips doubles
    exactly, so save/load is bit-identical."""
    return "".join(_checkpoint_lines(weights, meta))


class CheckpointFormatError(FileFormatError):
    """The checkpoint file does not follow the expected layout."""


def load_checkpoint(path):
    """Read a checkpoint in the render_checkpoint layout.

    Returns (MLPWeights, meta dict with string values). Raises
    CheckpointFormatError for a file that is not such a checkpoint: a bad
    header, line or number, a value that is not finite, a cut-off or missing
    tensor, an input scale that is not positive, tensor shapes that do not
    chain from the input standardizer through the hidden layers to the head,
    a tensor given twice, or a tensor that is not part of that chain (an
    unknown name, or a hidden layer after a missing one).

    Each tensor block is one call of numpy's text reader, which, unlike
    float(), takes no digit separators (1_0) and no non-ASCII digits.
    """
    try:
        with open(path) as fh:
            lines = fh.read().splitlines()
    except UnicodeDecodeError as exc:
        raise CheckpointFormatError(f"{path}: not a text file ({exc})") from exc
    if not lines or lines[0] != CKPT_HEADER:
        raise CheckpointFormatError(f"{path}: missing header {CKPT_HEADER!r}")
    meta = {}
    i = 1
    while i < len(lines) and not lines[i].startswith("tensor "):
        if "=" not in lines[i]:
            raise CheckpointFormatError(f"{path}: bad metadata line {lines[i]!r}")
        key, _, value = lines[i].partition("=")
        meta[key] = value
        i += 1
    tensors = {}
    while i < len(lines):
        parts = lines[i].split()
        # dimensions are ASCII digits: int() would also take "+", "_" and other scripts' digits
        if (len(parts) < 4 or parts[0] != "tensor" or parts[2] not in ("1", "2")
                or len(parts) != 3 + int(parts[2])
                or not all(v.isascii() and v.isdigit() for v in parts[3:])):
            raise CheckpointFormatError(f"{path}: bad tensor line {lines[i]!r}")
        name, shape = parts[1], tuple(int(v) for v in parts[3:])
        if name in tensors:
            raise CheckpointFormatError(f"{path}: tensor {name} appears twice")
        n_rows = 1 if len(shape) == 1 else shape[0]
        block = lines[i + 1:i + 1 + n_rows]
        if len(block) != n_rows:
            raise CheckpointFormatError(f"{path}: tensor {name} is cut short")
        text = " ".join(block).strip()
        try:  # loadtxt skips blank rows, and warns when every row is blank
            arr = np.loadtxt(block, ndmin=2, comments=None) if text else np.empty((n_rows, 0))
            if arr.shape[0] != n_rows:
                raise ValueError(f"{arr.shape[0]} rows that are not blank")
            tensors[name] = arr.reshape(shape)  # fails on a wrong width or a too large dimension
        except ValueError as exc:
            what = f"expected shape {shape}"
            if text:  # unequal rows fail too; read as one row, only a non-number does
                try:
                    np.loadtxt([text], comments=None)
                except ValueError:
                    what = "holds a value that is not a number"
            raise CheckpointFormatError(f"{path}: tensor {name} {what}") from exc
        if not np.all(np.isfinite(tensors[name])):
            raise CheckpointFormatError(f"{path}: tensor {name} holds a value that is not "
                                        "finite")
        i += 1 + n_rows
    for required in ("x_mean", "x_std"):
        if required not in tensors:
            raise CheckpointFormatError(f"{path}: missing tensor {required}")
    x_mean, x_std = tensors.pop("x_mean"), tensors.pop("x_std")
    width = x_mean.shape
    if len(width) != 1 or x_std.shape != width:
        raise CheckpointFormatError(f"{path}: x_mean and x_std must be equal-length vectors")
    if not np.all(x_std > 0.0):
        raise CheckpointFormatError(f"{path}: x_std must be positive")
    n_hidden = 0
    while f"hidden{n_hidden}.W" in tensors or f"hidden{n_hidden}.b" in tensors:
        n_hidden += 1
    layers = []  # [W, b] of each hidden layer, then of the head
    for layer in [f"hidden{j}" for j in range(n_hidden)] + ["head"]:
        W, b = tensors.pop(f"{layer}.W", None), tensors.pop(f"{layer}.b", None)
        if W is None or b is None or W.shape[1:] != width or b.shape != W.shape[:1]:
            raise CheckpointFormatError(f"{path}: tensors {layer}.W and {layer}.b are "
                                        f"missing or do not fit width {width[0]}")
        width = W.shape[:1]
        layers.append([W, b])
    if tensors:  # a name outside the chain: unknown, or a layer past a missing one
        raise CheckpointFormatError(f"{path}: unexpected tensor {next(iter(tensors))} in a "
                                    f"network of {n_hidden} hidden layers")
    return MLPWeights(layers, x_mean, x_std), meta


def train_meta(config: TrainConfig, input_dim: int) -> dict:
    """Checkpoint metadata echo of a training configuration."""
    meta = {"family": config.loss.family, "beta": repr(config.loss.beta),
            "input_dim": str(input_dim)}
    for f in fields(TrainConfig):
        if f.name == "loss":
            continue
        value = getattr(config, f.name)
        if f.name == "hidden_widths":
            value = ",".join(str(w) for w in value)
        meta[f.name] = repr(value) if isinstance(value, float) else str(value)
    return meta


# --- manifest I/O -------------------------------------------------------------

MANIFEST_HEADER = "ddpnkit-ensemble v1"


class ManifestFormatError(FileFormatError):
    """The ensemble manifest does not follow the expected layout."""


def render_manifest(paths, spec: LossSpec) -> str:
    """Manifest text: header, family and beta tags, one member path per line."""
    lines = [MANIFEST_HEADER, f"family={spec.family}", f"beta={spec.beta!r}"]
    lines.extend(str(p) for p in paths)
    return "\n".join(lines) + "\n"


def load_manifest(path) -> tuple[list, LossSpec]:
    """Read a manifest; returns (checkpoint paths, loss spec)."""
    try:
        with open(path) as fh:
            lines = [line.rstrip("\n") for line in fh]
    except UnicodeDecodeError as exc:
        raise ManifestFormatError(f"{path}: not a text file ({exc})") from exc
    if not lines or lines[0] != MANIFEST_HEADER:
        raise ManifestFormatError(f"{path}: missing header {MANIFEST_HEADER!r}")
    # the family and beta tags, once each, follow the header; every later
    # line names a member, whatever characters it holds
    meta = {}
    i = 1
    while i < len(lines):
        key, sep, value = lines[i].partition("=")
        if not sep or key not in ("family", "beta") or key in meta:
            break
        meta[key] = value
        i += 1
    if "family" not in meta:
        raise ManifestFormatError(f"{path}: missing family tag")
    try:
        spec = LossSpec(meta["family"], float(meta.get("beta", 0.0)))
    except (ValueError, DomainError) as exc:
        raise ManifestFormatError(f"{path}: bad family or beta: {exc}") from exc
    paths = [line for line in lines[i:] if line.strip()]
    if not paths:
        raise ManifestFormatError(f"{path}: no member checkpoints listed")
    if any("\0" in p for p in paths):
        raise ManifestFormatError(f"{path}: a member path holds a NUL character")
    return paths, spec
