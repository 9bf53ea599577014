"""Invariant networks and their trainable multiplication gadgets.

The model is the composition: equivariant layers and entrywise
activations on index tensors, one invariant summation, then an MLP
head.  The constructive path approximates one invariant-basis element
by preparing, per index tuple of its class, the factors of its monomial
as feature channels (order-1 -> order-k equivariant layer), multiplying
them with a feature-wise gadget, and summing the resulting tensor.
Weighted mixtures of such terms are realized as a single network by
lifting every term to a common tensor order, concatenating features,
and finishing with a weighted-sum head (build_term_network,
build_unified).

That layer is a 0/1 selection, so a term equals its gadget summed over
the class members plus (n^k - |class|) * gadget(0).  Every gadget sorts
each input row by value before its network or column product sees it
(rows.value_sorted), so it is a function of the multiset of its inputs,
the canonical-ordering form of Janossy pooling.  A polynomial class holds
every ordering of each of its multisets, so approximate_polynomial
evaluates each term once per multiset, weighted by the multiset's
multinomial multiplicity (ClassSumStage), instead of on all n^d lifted
tuples; the lifted unified network is the reference form the tests
check it against.

Tensors flow through stages flattened: (batch, n^order, features).

MLP.forward, which runs every gadget, the head and the trainer's grid
checks, takes its rows in blocks of _ROW_BLOCK (the last block also
takes the remainder), and runs each block through all layers with the
bias and activation applied in place, so its (rows, width) activations
stay in cache however many rows a class-sum stage sends.  Per row the
arithmetic is that of one call over all rows (see _row_blocks).
A class-sum stage sends its rows as ClassRows (rows.py), a view that
gathers a range of rows on demand, value-sorted, not as a (points *
(multisets + 1), k) array: MLP.forward gathers each block's rows, with a
take over the block's point range and an in-place sort, into an input
buffer inside _forward_blocks, so the gather runs in the pool threads
too, and ExactProduct gathers and multiplies one block at a time.  Each
block sees the rows it saw in the gathered array, in the same calls, so
the outputs keep their bits.  TreeProduct gathers the view whole: its
pair gadgets must each see all rows in one call, since the row count
sets the blocks and so the bits.
The biases are added from contiguous (tallest block, width) tiles, built
once per call, which is faster than a row-by-row broadcast add.
A sigmoid net's hidden layers run only matmul, bias add, tanh and +1:
MLP.forward folds the sigmoid's two halvings, 0.5 * (1 + tanh(0.5 * z)),
into copies of the weights and biases (see _fold_halvings).  In binary
floating point a power-of-two scaling commutes with every product, sum
and rounding, so the outputs keep their bits, unless a scaled value
falls into the subnormal range (weights or activations near 1e-308),
where a halving can round.
A call with more than one block (2 * _ROW_BLOCK rows or more, such as
the class sums of approximate_polynomial) splits its blocks into one
contiguous run per worker and evaluates the runs at once in a shared
thread pool; numpy's matmul and ufuncs release the GIL.  There are
cores // (BLAS threads) workers (_worker_count), so pool and BLAS
threads together do not oversubscribe the cores.  A one-block call (the
verifiers, grad checks, single inputs) stays on the calling thread and
never starts the pool.  Every block goes through the same numpy calls
on either path, so the output does not depend on the worker count.
The caller allocates the output and every run's buffers, because
allocations in the pool threads come from per-thread malloc arenas and
raise peak memory.
Training keeps whole-batch arrays (_forward_cached), because the
gradients need every activation; it too adds the bias and applies the
activation in place (_layer_outputs), with the bits of the allocating
forms.  The closed-form output fit keeps only the last hidden layer.

The MLP is deliberately minimal: full-batch gradient descent with a
constant step on mean squared error, seeded splitmix64 initialization,
no adaptive optimizers.  Runs are bitwise reproducible for a fixed
seed.
"""

from __future__ import annotations

import itertools
import math
import os
import threading
from dataclasses import dataclass, replace
from typing import Callable, Mapping, Sequence

import numpy as np

from .equivlayers import EquivariantLayer, layer_space, monomial_factors_layer, zero_layer
from .orbits import POLYNOMIAL, OrbitPartition, _check_memory, multiplicities, poly_classes
from .permgroup import PermGroup
from .polybasis import Polynomial, expand_in_basis, homogeneous_decompose
from .rng import SplitMix64
from .rows import ClassRows, value_sorted


class TrainingDivergedError(RuntimeError):
    """Loss became non-finite during gradient descent."""

    def __init__(self, epoch: int):
        super().__init__(f"training diverged at epoch {epoch}")
        self.epoch = epoch


class TargetNotReachedError(RuntimeError):
    """The gadget did not reach its accuracy target within budget."""

    def __init__(self, target: float, best: float):
        super().__init__(f"accuracy target {target:g} not reached; best {best:g}")
        self.target = target
        self.best = best


# --------------------------------------------------------------------- MLP

def _sigmoid(z):
    return 0.5 * (1.0 + np.tanh(0.5 * z))


def _dsigmoid(s):
    return s * (1.0 - s)


def _sigmoid_inplace(z):
    """_sigmoid written into z, in _sigmoid's operation order (same bits)."""
    z *= 0.5
    np.tanh(z, out=z)
    z += 1.0
    z *= 0.5


def _tanh_plus_one_inplace(z):
    """tanh(z) + 1 written into z: MLP.forward's sigmoid step, with the
    halvings folded into the weights (see _fold_halvings).  Private to the
    kernel; ACTIVATIONS keeps the whole sigmoid."""
    np.tanh(z, out=z)
    z += 1.0


def _relu(z):
    return np.maximum(z, 0.0)


def _drelu(s):
    return s > 0.0


def _relu_inplace(z):
    np.maximum(z, 0.0, out=z)


# name -> (activation, its derivative as a function of the activation's
# output, the activation applied in place)
ACTIVATIONS: dict[str, tuple[Callable, Callable, Callable]] = {
    "sigmoid": (_sigmoid, _dsigmoid, _sigmoid_inplace),
    "relu": (_relu, _drelu, _relu_inplace),
}

# rows per block of MLP.forward: a block's (rows, width) activations stay
# in cache (1024 x 64 floats = 512 KiB), while the BLAS calls keep enough
# rows to take their batched path
_ROW_BLOCK = 1024


def _row_blocks(rows: int) -> list[tuple[int, int]]:
    """max(1, rows // _ROW_BLOCK) (start, stop) blocks covering rows:
    _ROW_BLOCK rows each, the last one also taking the remainder.

    BLAS can round a row differently in a call with few rows (a small
    matrix product, or the matrix-vector path of a one-output layer), so
    there is no small tail block.  The matrix-vector kernel also sums
    the last few rows of a call (fewer than its unroll width) by another
    path, so every block but the last starts and ends on a multiple of
    _ROW_BLOCK, a power of two.  With one BLAS thread each row then takes
    the path it takes in one call over all rows, and the outputs are
    bit-identical to that call's (OpenBLAS 0.3.31, Haswell kernels).

    The cuts depend on rows alone.  MLP.forward hands contiguous runs of
    these blocks to its pool threads, and each block is evaluated by the
    same calls whichever thread takes it, so the output is the same for
    any number of workers.
    """
    count = max(1, rows // _ROW_BLOCK)
    cuts = [i * _ROW_BLOCK for i in range(count)] + [rows]
    return list(zip(cuts[:-1], cuts[1:]))


def _cpu_count() -> int:
    """Cores this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


# OpenBLAS reads its thread count from the first of these that holds a
# positive integer
_BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")


def _worker_count(cores: int, env: Mapping[str, str]) -> int:
    """max(1, cores // blas_threads) pool workers, so that workers times
    the BLAS threads each of their matmuls may start stay within the
    cores (oversubscribed, the pooled forward ran slower than the serial
    one).  blas_threads is the first of _BLAS_THREAD_VARS that parses to
    an integer >= 1; with none, BLAS uses every core, leaving one worker."""
    blas_threads = cores
    for name in _BLAS_THREAD_VARS:
        try:
            value = int(env.get(name, ""))
        except ValueError:
            continue
        if value >= 1:
            blas_threads = value
            break
    return max(1, cores // blas_threads)


# contiguous runs of row blocks that MLP.forward evaluates at once
_WORKERS = _worker_count(_cpu_count(), os.environ)
_POOL = None   # MLP.forward's ThreadPoolExecutor, created on first use
_POOL_LOCK = threading.Lock()


def _run_in_pool(jobs: list[tuple]) -> None:
    """_forward_blocks(*job) for every job, at once on the pool; the
    first error is raised once every job has finished."""
    global _POOL
    # imported here, not at the top: runs that never start the pool
    # (every verifier) skip its import, logging included, at start-up
    from concurrent.futures import ThreadPoolExecutor, wait
    with _POOL_LOCK:
        if _POOL is None:
            _POOL = ThreadPoolExecutor(max_workers=_WORKERS,
                                       thread_name_prefix="ginet-mlp")
        pool = _POOL
    futures = [pool.submit(_forward_blocks, *job) for job in jobs]
    wait(futures)
    for future in futures:
        future.result()


def _forget_pool() -> None:
    """In a forked child: the parent's pool threads do not exist here, so
    drop the pool (and a lock another thread may have held at the fork);
    the next threaded forward creates a new one."""
    global _POOL, _POOL_LOCK
    _POOL = None
    _POOL_LOCK = threading.Lock()


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_forget_pool)


class MLP:
    """Fully connected net; activation between layers, none after the last."""

    __slots__ = ("weights", "biases", "activation")

    def __init__(self, weights: Sequence[np.ndarray], biases: Sequence[np.ndarray],
                 activation: str = "sigmoid"):
        if activation not in ACTIVATIONS:
            raise ValueError(f"unknown activation {activation!r}")
        self.weights = [np.array(W, dtype=np.float64) for W in weights]
        self.biases = [np.array(b, dtype=np.float64) for b in biases]
        self.activation = activation
        widths = self.widths
        for i, (W, b) in enumerate(zip(self.weights, self.biases)):
            if W.shape != (widths[i + 1], widths[i]) or b.shape != (widths[i + 1],):
                raise ValueError(f"layer {i} has inconsistent shapes")

    @property
    def widths(self) -> list[int]:
        return [self.weights[0].shape[1]] + [W.shape[0] for W in self.weights]

    def copy(self) -> "MLP":
        return MLP([W.copy() for W in self.weights],
                   [b.copy() for b in self.biases], self.activation)

    def forward(self, Y) -> np.ndarray:
        """Evaluate on one input (1-D), a batch of rows (2-D), or the
        ClassRows of a class-sum term.

        The rows run through all layers one row block at a time (see
        _row_blocks), each layer writing into a per-layer buffer that is
        reused across blocks, with bias and activation applied in place.
        ClassRows are gathered, value-sorted, one block at a time into an
        input buffer, in the thread that runs the block, so no call holds
        them all.
        With more than one block and more than one worker, the blocks are
        split into _WORKERS contiguous runs that the shared thread pool
        evaluates at once (numpy's matmul and ufuncs release the GIL).
        Each block goes through the same calls on either path, so the
        output does not depend on the number of workers.  The output and
        every run's buffers are allocated here, in the calling thread:
        buffers allocated in the pool threads would come from per-thread
        malloc arenas and raise peak memory.

        Once per call, a sigmoid net's weights and biases are copied with
        the sigmoid's halvings folded in (_fold_halvings), so its hidden
        layers compute tanh(z) + 1, twice the sigmoid, with z half the
        pre-activation, and each bias is tiled to the tallest block's
        height.  Scaling by a power of two is exact and commutes with the
        matmul's products and sums and with the bias add, so the output
        has the bits of 0.5 * (1 + tanh(0.5 * z)) applied layer by layer,
        barring subnormal weights or activations.
        """
        gathered = isinstance(Y, ClassRows)
        if gathered:
            X, single = Y, False
        else:
            Y = np.asarray(Y, dtype=np.float64)
            single = Y.ndim == 1
            X = Y.reshape(1, -1) if single else Y
        widths = self.widths
        if X.shape[1] != widths[0]:
            raise ValueError(f"input width {X.shape[1]} != {widths[0]}")
        if self.activation == "sigmoid":
            weights, biases = _fold_halvings(self.weights, self.biases)
            act = _tanh_plus_one_inplace
        else:
            weights, biases = self.weights, self.biases
            act = ACTIVATIONS[self.activation][2]
        blocks = _row_blocks(X.shape[0])
        tallest = max(stop - start for start, stop in blocks)
        tiles = [np.tile(b, (tallest, 1)) for b in biases]
        out = np.empty((X.shape[0], widths[-1]))
        jobs = []
        for run in _split_runs(blocks, min(_WORKERS, len(blocks))):
            height = max(stop - start for start, stop in run)
            buffers = [np.empty((height, w)) for w in widths[1:-1]]
            source = (np.empty((height, widths[0])), np.empty(height)) if gathered else None
            jobs.append((weights, tiles, act, X, source, out, buffers, run))
        if len(jobs) == 1:
            _forward_blocks(*jobs[0])
        else:
            _run_in_pool(jobs)
        return out[0] if single else out


def _forward_blocks(weights, tiles, act, X, source, out, buffers, blocks) -> None:
    """MLP.forward's per-block loop: the rows of each (start, stop) block
    of X through all layers, hidden layers into buffers (one per hidden
    width, at least as tall as the tallest block), the last into out.
    ClassRows X are first gathered into source, a pair of buffers as tall
    (the rows, and the spare column their sort needs); an array X (source
    None) is read in place.
    Each layer is a matmul, its bias added from its tile (the bias in
    every row, at least as tall as the tallest block), then act in place
    on hidden layers.  The weights, tiles and act are the ones MLP.forward
    prepared: for a sigmoid net, halvings folded into the weights and
    biases and act tanh(z) + 1.  Calls only numpy and act, so it can run
    in a pool thread."""
    last = len(weights) - 1
    for start, stop in blocks:
        rows = stop - start
        if source is None:
            A = X[start:stop]
        else:
            A = source[0][:rows]
            X.gather(start, stop, A, source[1])
        for i, (W, tile) in enumerate(zip(weights, tiles)):
            Z = out[start:stop] if i == last else buffers[i][:rows]
            np.matmul(A, W.T, out=Z)
            Z += tile[:rows]
            if i < last:
                act(Z)
            A = Z


def _fold_halvings(weights, biases) -> tuple[list, list]:
    """Copies of a sigmoid net's weights and biases for the kernel's
    tanh(z) + 1 step.  sigmoid(z) = 0.5 * (1 + tanh(0.5 * z)): the inner
    halving goes into every hidden layer's weights and bias, and the
    outer one, on the activation that feeds the next layer, into that
    layer's weights.  A one-layer net has neither and is copied as is."""
    last = len(weights) - 1
    return ([W * ((0.5 if i > 0 else 1.0) * (0.5 if i < last else 1.0))
             for i, W in enumerate(weights)],
            [b * 0.5 if i < last else b for i, b in enumerate(biases)])


def _split_runs(blocks: list, count: int) -> list[list]:
    """blocks cut into count contiguous runs whose lengths differ by at most 1."""
    size, extra = divmod(len(blocks), count)
    cuts = [r * size + min(r, extra) for r in range(count + 1)]
    return [blocks[a:b] for a, b in zip(cuts[:-1], cuts[1:])]


def mlp_init(widths: Sequence[int], activation: str, rng: SplitMix64,
             zero_last: bool = True) -> MLP:
    """Uniform Xavier init; the last layer starts at zero so the net
    begins as the zero function (the product's mean over a symmetric box)."""
    weights, biases = [], []
    for i in range(len(widths) - 1):
        fan_in, fan_out = widths[i], widths[i + 1]
        s = math.sqrt(6.0 / (fan_in + fan_out))
        W = rng.uniforms(-s, s, fan_out, fan_in)
        if zero_last and i == len(widths) - 2:
            W = np.zeros((fan_out, fan_in))
        weights.append(W)
        biases.append(np.zeros(fan_out))
    return MLP(weights, biases, activation)


def _layer_outputs(m: MLP, X: np.ndarray):
    """Each layer's output in turn, the net's output last.  The bias and
    the activation are applied in place (ACTIVATIONS[...][2]), with the
    bits of act(A @ W.T + b)."""
    act = ACTIVATIONS[m.activation][2]
    last = len(m.weights) - 1
    A = X
    for i, (W, b) in enumerate(zip(m.weights, m.biases)):
        A = A @ W.T
        A += b
        if i < last:
            act(A)
        yield A


def _forward_cached(m: MLP, X: np.ndarray) -> list[np.ndarray]:
    """Every layer's output, the input first and the net's output last."""
    return [X, *_layer_outputs(m, X)]


def _backward(m: MLP, As, T: np.ndarray):
    """Gradients of mean squared error wrt every weight and bias; each
    hidden layer's activation derivative comes from its cached output."""
    dact = ACTIVATIONS[m.activation][1]
    last = len(m.weights) - 1
    diff = As[-1] - T
    G = (2.0 / diff.size) * diff
    gWs = [None] * len(m.weights)
    gbs = [None] * len(m.weights)
    for i in range(last, -1, -1):
        dZ = G if i == last else G * dact(As[i + 1])
        gWs[i] = dZ.T @ As[i]
        gbs[i] = dZ.sum(axis=0)
        if i:
            G = dZ @ m.weights[i]
    return gWs, gbs


@dataclass
class TrainConfig:
    """Knobs for the deterministic full-batch trainer.

    The step default is deliberately small: logistic-sigmoid nets
    collapse into saturation when the descent step exceeds the output
    layer's curvature bound (about 2 / feature-Gram top eigenvalue,
    measured near 0.05 at width 64), and the refinement phase starts
    from an already-good fit worth protecting.
    """

    seed: int = 0
    epochs: int = 5000
    step: float = 0.002
    target_max_error: float | None = None
    check_every: int = 250

    def __post_init__(self):
        if min(self.epochs, self.check_every) < 1:
            raise ValueError("epochs, check_every must be positive")
        if self.step <= 0:
            raise ValueError(f"step must be positive, got {self.step}")


@dataclass
class TrainResult:
    mlp: MLP
    loss_history: list[tuple[int, float]]
    final_max_error: float
    epochs_run: int
    reached_target: bool


def mlp_train(m: MLP, samples: np.ndarray, targets: np.ndarray,
              cfg: TrainConfig) -> TrainResult:
    """Full-batch constant-step gradient descent on mean squared error.

    Stops early once the max absolute error over the samples drops to
    cfg.target_max_error (checked every cfg.check_every epochs).
    """
    X = np.asarray(samples, dtype=np.float64)
    T = np.asarray(targets, dtype=np.float64)
    if T.ndim == 1:
        T = T.reshape(-1, 1)
    if X.shape[0] != T.shape[0]:
        raise ValueError("samples and targets disagree on batch size")
    net = m.copy()
    history: list[tuple[int, float]] = []
    epochs_run = 0
    reached = False
    for epoch in range(cfg.epochs):
        with np.errstate(over="ignore", invalid="ignore"):
            As = _forward_cached(net, X)
            diff = As[-1] - T
            loss = float(np.mean(diff * diff))
        if not np.isfinite(loss):
            raise TrainingDivergedError(epoch)
        if epoch % cfg.check_every == 0:
            history.append((epoch, loss))
            if cfg.target_max_error is not None:
                if float(np.max(np.abs(diff))) <= cfg.target_max_error:
                    reached = True
                    break
        gWs, gbs = _backward(net, As, T)
        for i in range(len(net.weights)):
            net.weights[i] -= cfg.step * gWs[i]
            net.biases[i] -= cfg.step * gbs[i]
        epochs_run = epoch + 1
    final_err = float(np.max(np.abs(net.forward(X) - T)))
    if cfg.target_max_error is not None and final_err <= cfg.target_max_error:
        reached = True
    return TrainResult(mlp=net, loss_history=history, final_max_error=final_err,
                       epochs_run=epochs_run, reached_target=reached)


@dataclass
class GradCheckReport:
    max_rel_error: float
    nonsmooth: bool  # a rectifier kink sat on the probe point; check skipped


def grad_check(m: MLP, y: np.ndarray, target: np.ndarray,
               step: float = 1e-5) -> GradCheckReport:
    """Backprop vs central finite differences on every parameter.

    For rectifier nets a pre-activation within the difference step of a
    kink makes the comparison meaningless; such probes are flagged and
    skipped rather than reported as failures.
    """
    X = np.asarray(y, dtype=np.float64).reshape(1, -1)
    T = np.asarray(target, dtype=np.float64).reshape(1, -1)
    As = _forward_cached(m, X)
    if m.activation == "relu" and any(np.min(np.abs(A @ W.T + b)) < 10 * step
                                      for A, W, b in zip(As, m.weights[:-1], m.biases[:-1])):
        return GradCheckReport(max_rel_error=float("nan"), nonsmooth=True)
    gWs, gbs = _backward(m, As, T)

    def loss_of(net):
        d = net.forward(X) - T
        return float(np.mean(d * d))

    worst = 0.0
    probe = m.copy()
    for arrays, grads in ((probe.weights, gWs), (probe.biases, gbs)):
        for arr, g in zip(arrays, grads):
            flat = arr.reshape(-1)
            gflat = g.reshape(-1)
            for idx in range(flat.size):
                orig = flat[idx]
                flat[idx] = orig + step
                up = loss_of(probe)
                flat[idx] = orig - step
                down = loss_of(probe)
                flat[idx] = orig
                fd = (up - down) / (2 * step)
                scale = max(abs(fd), abs(gflat[idx]), 1e-8)
                worst = max(worst, abs(fd - gflat[idx]) / scale)
    return GradCheckReport(max_rel_error=worst, nonsmooth=False)


# ----------------------------------------------------------- product gadgets

# rows per block of ExactProduct on ClassRows: (rows, k) floats that stay
# in cache, with few enough numpy calls per row
_EXACT_BLOCK = 8 * _ROW_BLOCK


def _column_product(Y: np.ndarray, out: np.ndarray) -> np.ndarray:
    """out = the product of Y's columns, left to right."""
    np.copyto(out, Y[:, 0])
    for j in range(1, Y.shape[1]):
        out *= Y[:, j]
    return out


class ExactProduct:
    """Multiplies its k inputs exactly; the structural-test stand-in."""

    def __init__(self, k: int):
        self.k = k
        self.max_error = 0.0

    def __call__(self, Y) -> np.ndarray:
        """The products of the value-sorted rows, columns multiplied left
        to right: the bits of np.prod(np.sort(Y), axis=1) (the tests
        compare them for k = 1..8), several times faster on (rows, k)
        arrays, and the same for any column order.  ClassRows are
        gathered and multiplied _EXACT_BLOCK rows at a time."""
        if not isinstance(Y, ClassRows):
            Y = value_sorted(Y)
            return _column_product(Y, np.empty(Y.shape[0]))
        rows = Y.shape[0]
        out = np.empty(rows)
        source = np.empty((min(rows, _EXACT_BLOCK), Y.shape[1]))
        spare = np.empty(source.shape[0])
        for start in range(0, rows, _EXACT_BLOCK):
            stop = min(start + _EXACT_BLOCK, rows)
            block = source[:stop - start]
            Y.gather(start, stop, block, spare)
            _column_product(block, out[start:stop])
        return out

    def describe(self) -> dict:
        return {"kind": "exact", "k": self.k, "max_error": 0.0}


class IdentityProduct:
    """k=1 gadget: the exact one-layer identity network (one input, so
    nothing to sort)."""

    def __init__(self):
        self.k = 1
        self.max_error = 0.0
        self.mlp = MLP([np.array([[1.0]])], [np.zeros(1)], "sigmoid")

    def __call__(self, Y: np.ndarray) -> np.ndarray:
        return self.mlp.forward(Y)[:, 0]

    def describe(self) -> dict:
        return {"kind": "identity", "k": 1, "max_error": 0.0}


class MLPProduct:
    """A trained k-input multiplication MLP, valid on [-box, box]^k.  It
    sees each row value-sorted, the region it was trained on."""

    def __init__(self, mlp: MLP, k: int, box: float, max_error: float,
                 epochs_trained: int):
        self.mlp = mlp
        self.k = k
        self.box = box
        self.max_error = max_error
        self.epochs_trained = epochs_trained

    def __call__(self, Y) -> np.ndarray:
        return self.mlp.forward(value_sorted(Y))[:, 0]

    def describe(self) -> dict:
        return {"kind": "mlp", "k": self.k, "box": self.box,
                "max_error": self.max_error, "epochs": self.epochs_trained,
                "hidden": self.mlp.widths[1:-1], "activation": self.mlp.activation}


class TreeProduct:
    """Balanced pairing tree of two-input gadgets for k > 3 factors.  It
    sorts its k inputs once, before the tree; each pair gadget then sorts
    its own pair."""

    def __init__(self, k: int, levels: list, box: float, max_error: float):
        self.k = k
        self.levels = levels  # per level: list of ("pair", gadget) / ("pass",)
        self.box = box
        self.max_error = max_error

    def __call__(self, Y) -> np.ndarray:
        # ClassRows are gathered whole: each pair gadget must see all the
        # rows in one call, whose row blocks (and so bits) depend on the
        # row count (see _row_blocks)
        Y = np.asarray(value_sorted(Y))
        cols = [Y[:, i] for i in range(Y.shape[1])]
        for level in self.levels:
            nxt = []
            i = 0
            for op in level:
                if op[0] == "pair":
                    pair = np.stack([cols[i], cols[i + 1]], axis=1)
                    nxt.append(op[1](pair))
                    i += 2
                else:
                    nxt.append(cols[i])
                    i += 1
            cols = nxt
        return cols[0]

    def describe(self) -> dict:
        return {"kind": "tree", "k": self.k, "box": self.box,
                "max_error": self.max_error,
                "levels": [[op[0] for op in level] for level in self.levels]}


def _product_grid(k: int, lo: float, hi: float) -> np.ndarray:
    per_axis = {1: 201, 2: 41, 3: 17}.get(k, 9)
    axis = np.linspace(lo, hi, per_axis)
    mesh = np.meshgrid(*([axis] * k), indexing="ij")
    return np.stack([m.reshape(-1) for m in mesh], axis=1)


# hidden-layer init spreads per input arity (first-layer weight, first
# bias, later-layer weight, later bias); smaller weights keep the
# features smooth, which is what makes the output fit accurate
_PRODUCT_SPREADS = {1: (2.0, 2.0, 0.5, 1.0),
                    2: (1.5, 2.0, 0.35, 1.0),
                    3: (0.8, 2.0, 0.25, 1.0)}
# a product net's hidden widths, and its seeded training samples
_PRODUCT_HIDDEN = (64, 64)
_PRODUCT_SAMPLES = 4096

_RIDGE_REL = 1e-14


def _product_net_init(k: int, rng: SplitMix64) -> MLP:
    """Seeded smooth hidden features; output layer starts at zero."""
    w1, b1, w2, b2 = _PRODUCT_SPREADS.get(k, _PRODUCT_SPREADS[3])
    widths = [k, *_PRODUCT_HIDDEN, 1]
    weights, biases = [], []
    for i in range(len(widths) - 1):
        fan_out, fan_in = widths[i + 1], widths[i]
        if i == len(widths) - 2:
            weights.append(np.zeros((fan_out, fan_in)))
            biases.append(np.zeros(fan_out))
        elif i == 0:
            weights.append(rng.uniforms(-w1, w1, fan_out, fan_in))
            biases.append(rng.uniforms(-b1, b1, fan_out))
        else:
            weights.append(rng.uniforms(-w2, w2, fan_out, fan_in))
            biases.append(rng.uniforms(-b2, b2, fan_out))
    return MLP(weights, biases, "sigmoid")


def _fit_output_layer(net: MLP, X: np.ndarray, y: np.ndarray) -> None:
    """Ridge least squares for the last layer on the hidden features.

    This is the exact minimizer of the training objective restricted to
    the output layer (the same objective the descent steps follow), with
    a tiny ridge term for numerical conditioning.  Deterministic.
    """
    F = X
    # one hidden layer alive at a time: the fit needs only the last
    for F in itertools.islice(_layer_outputs(net, X), len(net.weights) - 1):
        pass
    Fb = np.hstack([F, np.ones((F.shape[0], 1))])
    G = Fb.T @ Fb
    lam = _RIDGE_REL * np.trace(G)
    w = np.linalg.solve(G + lam * np.eye(G.shape[0]), Fb.T @ y)
    net.weights[-1] = w[:-1].reshape(1, -1)
    net.biases[-1] = w[-1:].copy()


def _train_pair_core(target: float, cfg: TrainConfig, rng: SplitMix64,
                     k: int) -> tuple[MLP, float, int]:
    """Fit a k-input product net on the normalized box [-1,1]^k, on
    value-sorted samples and grid: the gadgets sort their rows, so the
    net only ever sees the region x_1 <= ... <= x_k.

    The output layer is first solved in closed form on the seeded
    samples; gradient descent then refines all layers, with the
    best-on-grid parameters kept (descent can only improve the result).
    Stops as soon as the held-out grid error meets the target.
    """
    X = value_sorted(rng.uniforms(-1.0, 1.0, _PRODUCT_SAMPLES, k))
    T = np.prod(X, axis=1).reshape(-1, 1)
    net = _product_net_init(k, rng)
    _fit_output_layer(net, X, T[:, 0])
    grid = value_sorted(_product_grid(k, -1.0, 1.0))
    grid_t = np.prod(grid, axis=1).reshape(-1, 1)

    best = net.copy()
    best_err = float(np.max(np.abs(net.forward(grid) - grid_t)))
    epochs_done = 0
    while epochs_done < cfg.epochs and best_err > target:
        chunk = min(cfg.check_every, cfg.epochs - epochs_done)
        try:
            result = mlp_train(net, X, T, replace(
                cfg, epochs=chunk, target_max_error=None, check_every=chunk))
        except TrainingDivergedError:
            break  # keep the best checkpoint
        net = result.mlp
        epochs_done += chunk
        err = float(np.max(np.abs(net.forward(grid) - grid_t)))
        if err < best_err:
            best_err = err
            best = net.copy()
    return best, best_err, epochs_done


def train_product_mlp(k: int, c: float, target: float,
                      cfg: TrainConfig | None = None):
    """Produce a gadget computing the k-way product on [-c,c]^k to the
    requested max-error target; raises TargetNotReachedError otherwise.

    k=1 is the exact identity.  k=2,3 train directly (on the normalized
    box, then fold the scaling into the first/last layers).  Larger k
    composes trained two-input gadgets in a balanced tree, with the
    error budget split evenly across the k-1 multiply nodes.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    if c <= 0 or target <= 0:
        raise ValueError("c and target must be positive")
    cfg = cfg or TrainConfig()
    if k == 1:
        return IdentityProduct()
    rng = SplitMix64(cfg.seed).spawn(f"product-{k}")
    if k <= 3:
        core_target = target / c**k
        core, core_err, epochs = _train_pair_core(core_target, cfg, rng, k)
        if core_err > core_target:
            raise TargetNotReachedError(target, core_err * c**k)
        scaled = core.copy()
        scaled.weights[0] /= c
        scaled.weights[-1] *= c**k
        scaled.biases[-1] *= c**k
        return MLPProduct(mlp=scaled, k=k, box=c, max_error=core_err * c**k,
                          epochs_trained=epochs)

    # balanced tree: each node's error reaches the output through at most
    # the product of the remaining factor bounds
    nodes = k - 1
    amplification = max(1.0, c) ** (k - 2)
    node_target = target / (nodes * amplification)
    levels = []
    sizes = k
    boxes = [c] * k
    pair_cache: dict[float, MLPProduct] = {}
    level_tag = 0
    while sizes > 1:
        ops = []
        new_boxes = []
        i = 0
        while i < sizes:
            if i + 1 < sizes:
                box = max(boxes[i], boxes[i + 1])
                pair_box = box * box + node_target
                if pair_box not in pair_cache:
                    sub = replace(cfg, seed=SplitMix64(cfg.seed).spawn(
                        f"tree-{k}-{level_tag}").next_u64() & 0x7FFFFFFF)
                    pair_cache[pair_box] = train_product_mlp(
                        2, box, node_target, sub)
                ops.append(("pair", pair_cache[pair_box]))
                new_boxes.append(pair_box)
                i += 2
            else:
                ops.append(("pass",))
                new_boxes.append(boxes[i])
                i += 1
        levels.append(ops)
        boxes = new_boxes
        sizes = len(new_boxes)
        level_tag += 1
    tree = TreeProduct(k=k, levels=levels, box=c, max_error=float("nan"))
    # measure on seeded sample points; the grid blows up for large k
    eval_rng = SplitMix64(cfg.seed).spawn(f"tree-eval-{k}")
    pts = eval_rng.uniforms(-c, c, 4096, k)
    err = float(np.max(np.abs(tree(pts) - np.prod(pts, axis=1))))
    tree.max_error = err
    if err > target:
        raise TargetNotReachedError(target, err)
    return tree


# ----------------------------------------------------------------- stages

class EquivStage:
    kind = "equivariant"

    def __init__(self, layer: EquivariantLayer):
        self.layer = layer

    @property
    def group(self):
        return self.layer.space.group

    def forward(self, T: np.ndarray) -> np.ndarray:
        return self.layer.apply_flat(T)


class ActivationStage:
    kind = "activation"

    def __init__(self, name: str):
        if name not in ACTIVATIONS:
            raise ValueError(f"unknown activation {name!r}")
        self.name = name

    def forward(self, T: np.ndarray) -> np.ndarray:
        return ACTIVATIONS[self.name][0](T)


class FeatureMapStage:
    """Apply gadgets to feature-slices, pointwise across index tuples."""

    kind = "feature_map"

    def __init__(self, blocks: Sequence[tuple[int, int, object]]):
        self.blocks = list(blocks)

    def forward(self, T: np.ndarray) -> np.ndarray:
        B, N, _ = T.shape
        out = np.empty((B, N, len(self.blocks)))
        for j, (start, stop, gadget) in enumerate(self.blocks):
            rows = T[:, :, start:stop].reshape(B * N, stop - start)
            out[:, :, j] = np.asarray(gadget(rows)).reshape(B, N)
        return out


class ConcatLiftStage:
    """Per-term order-1 layers, each lifted to the common order and
    feature-concatenated."""

    kind = "concat_lift"

    def __init__(self, entries: Sequence[tuple[EquivariantLayer, int]],
                 d: int, n: int):
        self.entries = []
        self.d = d
        self.n = n
        for layer, k in entries:
            if k > d:
                raise ValueError("term order exceeds the declared maximum")
            idx = np.arange(n**d) // n ** (d - k)
            self.entries.append((layer, k, idx))

    def forward(self, X: np.ndarray) -> np.ndarray:
        B = X.shape[0]
        outs = []
        for layer, _k, idx in self.entries:
            Y = layer.apply_flat(X)
            outs.append(Y[:, idx, :])
        if not outs:
            return np.zeros((B, self.n**self.d, 0))
        return np.concatenate(outs, axis=2)


class SumStage:
    """The invariant head: sum over all index tuples, scaled per feature."""

    kind = "invariant_sum"

    def __init__(self, scales):
        self.scales = np.asarray(scales, dtype=np.float64)

    def forward(self, T: np.ndarray) -> np.ndarray:
        return T.sum(axis=1) * self.scales


class ClassSumStage:
    """Basis terms evaluated once per multiset of their classes.

    The factor layer of a term network is a 0/1 selection: at a tuple t
    of the term's class it yields the factors x_t, elsewhere the zero
    vector.  The term therefore equals the gadget summed over the class
    members plus (n^k - |class|) * gadget(0), exactly, for any gadget;
    build_unified over build_term_network terms is the lifted reference
    form of the same outputs.  One output feature per
    (partition, class_index, gadget) term.

    A polynomial class holds every ordering of each of its multisets, and
    every gadget is a function of the multiset of its inputs (it sorts
    each row by value), so the stage keeps one digit row per multiset,
    the nondecreasing one from the partition's rows (no array of the n^k
    tuples), with its multinomial multiplicity, and each
    point reduces to sum(mult * value) + (n^k - |class|) * gadget(0).  A
    layer partition is not closed under reordering and is rejected.

    Each gadget gets its rows as ClassRows, a view that gathers them on
    demand, value-sorted, not as a (points * (multisets + 1), k) array:
    MLP.forward gathers each row block in the thread that runs it, and
    ExactProduct gathers and multiplies a block at a time, so the stage
    holds the gadget's outputs but never all of its inputs.  TreeProduct
    gathers the view whole: each of its pair gadgets must see every row
    in one call to keep the bits of that call (see _row_blocks).
    """

    kind = "invariant_sum"

    def __init__(self, terms: Sequence[tuple[OrbitPartition, int, object]]):
        self.terms = []
        for partition, class_index, gadget in terms:
            n, k = partition.n, partition.k
            if k < 1:
                raise ValueError("term networks need degree >= 1; constants are a bias")
            if partition.kind != POLYNOMIAL:
                raise ValueError(f"class sums need polynomial classes, not {partition.kind} ones")
            if getattr(gadget, "k", None) != k:
                raise ValueError(f"product gadget arity {getattr(gadget, 'k', None)} != {k}")
            digits = partition.rows[partition.labels == class_index]
            mult = multiplicities(digits)
            # the last row is the zero tuple, read from the zero column n
            # that forward appends, so gadget(0) comes from the same batched
            # call as the members: a one-row call can round differently (a
            # BLAS matrix-vector path, about 1e-13 off for trained gadgets),
            # and the n^k - |class| multiplier would amplify that gap
            digits = np.vstack([digits, np.full((1, k), n)])
            self.terms.append((digits, mult.astype(np.float64), gadget,
                               n**k - sum(mult.tolist())))

    def forward(self, T: np.ndarray) -> np.ndarray:
        B = T.shape[0]
        X = np.concatenate([T[:, :, 0], np.zeros((B, 1))], axis=1)
        out = np.empty((B, len(self.terms)))
        for j, (digits, mult, gadget, outside) in enumerate(self.terms):
            values = np.asarray(gadget(ClassRows(X, digits))).reshape(B, len(digits))
            weighted = values[:, :-1]
            weighted *= mult     # in place: the gadget's output is the stage's own
            out[:, j] = weighted.sum(axis=1) + outside * values[:, -1]
        return out


def _class_sum_bytes(sizes, points: int, exact_mul: bool) -> int:
    """An estimate of ClassSumStage.forward's peak bytes on points points,
    for terms given as (degree k, multisets m): every term's digit table
    and multiplicities, then the largest term's points * (m + 1) gadget
    outputs and its run buffers.  Those are ExactProduct's block, or
    MLP.forward's per-worker blocks through a k->64->64->1 net plus, for
    a trained tree (k > 3), its rows gathered whole with a pair and its
    product, k + 3 floats per row."""
    def peak(k, rows):
        if exact_mul:
            return rows + min(rows, _EXACT_BLOCK) * (k + 1)
        blocks = _WORKERS * 2 * _ROW_BLOCK * (k + 1 + sum(_PRODUCT_HIDDEN))
        return rows * (1 + (k + 3) * (k > 3)) + blocks
    return 8 * (sum((m + 1) * (k + 1) for k, m in sizes)
                + max((peak(k, points * (m + 1)) for k, m in sizes), default=0))


class MLPStage:
    kind = "mlp"

    def __init__(self, mlp: MLP):
        self.mlp = mlp

    def forward(self, V: np.ndarray) -> np.ndarray:
        return self.mlp.forward(V)


class GInvariantNetwork:
    """Stage pipeline: tensor stages, one invariant stage, MLP stages."""

    def __init__(self, group: PermGroup, stages: Sequence[object], order: int):
        self.group = group
        self.stages = list(stages)
        self.order = order
        self.n = group.n
        sums = [i for i, s in enumerate(self.stages) if s.kind == "invariant_sum"]
        if len(sums) != 1:
            raise ValueError("network needs exactly one invariant stage")
        for s in self.stages[sums[0] + 1:]:
            if s.kind != "mlp":
                raise ValueError("only MLP stages may follow the invariant stage")
        for s in self.stages:
            if s.kind == "equivariant" and s.group != group:
                raise ValueError("stage group differs from network group")

    def forward(self, x: np.ndarray) -> float | np.ndarray:
        x = np.asarray(x, dtype=np.float64)
        single = x.ndim == 1
        X = x.reshape(1, -1) if single else x
        if X.shape[1] != self.n:
            raise ValueError(f"input width {X.shape[1]} != n={self.n}")
        T = X[:, :, None]
        for stage in self.stages:
            T = stage.forward(T)
        out = T
        if out.ndim == 2 and out.shape[1] == 1:
            out = out[:, 0]
        return float(out[0]) if single else out

    def forward_many(self, X: np.ndarray, chunk: int = 2048) -> np.ndarray:
        if chunk < 1:
            raise ValueError(f"chunk must be >= 1, got {chunk}")
        X = np.asarray(X, dtype=np.float64)
        # an empty batch still makes one (empty) forward call, which checks
        # its width and gives the output its shape
        parts = [np.atleast_1d(self.forward(X[s:s + chunk]))
                 for s in range(0, max(1, X.shape[0]), chunk)]
        return np.concatenate(parts)

    def max_invariance_deviation(self, rng: SplitMix64, trials: int = 20,
                                 lo: float = -1.0, hi: float = 1.0) -> float:
        worst = 0.0
        for _ in range(trials):
            x = rng.uniforms(lo, hi, self.n)
            base = self.forward(x)
            for g in self.group.generators:
                worst = max(worst, abs(self.forward(g.apply_vector(x)) - base))
        return worst


# ----------------------------------------------------------- constructions

def build_term_network(G: PermGroup, partition: OrbitPartition, class_index: int,
                       product) -> GInvariantNetwork:
    """Network computing (approximately) one basis element: prepare the
    monomial factors on the class, multiply feature-wise, sum."""
    k = partition.k
    if k < 1:
        raise ValueError("term networks need degree >= 1; constants are a bias")
    if getattr(product, "k", None) != k:
        raise ValueError(f"product gadget arity {getattr(product, 'k', None)} != {k}")
    layer = monomial_factors_layer(G, partition, class_index)
    stages = [EquivStage(layer),
              FeatureMapStage([(0, k, product)]),
              SumStage(np.ones(1))]
    return GInvariantNetwork(G, stages, order=k)


def build_unified(terms: Sequence[tuple[float, GInvariantNetwork]],
                  constant: float = 0.0) -> GInvariantNetwork:
    """One network computing sum_t alpha_t * term_t(x) + constant.

    Every term is lifted to the maximum tensor order (broadcast over the
    new axes), features are concatenated, each term's invariant sum is
    scaled by n^(k-d) to undo the broadcast multiplicity, and the head
    applies the weights.
    """
    if not terms:
        raise ValueError("build_unified needs at least one term; "
                         "constant-only targets go through constant_network")
    group = terms[0][1].group
    n = group.n
    for _, net in terms:
        if net.group != group:
            raise ValueError("terms disagree on the group")
        kinds = [s.kind for s in net.stages]
        if kinds != ["equivariant", "feature_map", "invariant_sum"]:
            raise ValueError("terms must be basis-term networks")
    d = max(net.order for _, net in terms)

    entries = []
    blocks = []
    scales = []
    offset = 0
    for _alpha, net in terms:
        k = net.order
        layer = net.stages[0].layer
        gadget = net.stages[1].blocks[0][2]
        entries.append((layer, k))
        blocks.append((offset, offset + k, gadget))
        scales.append(float(n) ** (k - d))
        offset += k
    alphas = np.array([[a for a, _ in terms]])
    head = MLP([alphas], [np.array([constant])], "sigmoid")
    stages = [ConcatLiftStage(entries, d, n),
              FeatureMapStage(blocks),
              SumStage(np.array(scales)),
              MLPStage(head)]
    return GInvariantNetwork(group, stages, order=d)


def constant_network(G: PermGroup, value: float) -> GInvariantNetwork:
    """Bias-only network: zero linear head on the invariant sum."""
    head = MLP([np.zeros((1, 1))], [np.array([value])], "sigmoid")
    stages = [EquivStage(zero_layer(layer_space(G, 1, 1))), SumStage(np.ones(1)),
              MLPStage(head)]
    return GInvariantNetwork(G, stages, order=1)


@dataclass
class ApproximationReport:
    epsilon: float
    box: tuple[float, float]
    c: float
    exact_mul: bool
    alpha_l1: float
    constant_term: float
    terms: list[dict]
    theoretical_bound: float
    achieved_max_error: float
    eval_points: int
    seed: int


def approximate_polynomial(G: PermGroup, p: Polynomial, epsilon: float,
                           box: tuple[float, float] = (-1.0, 1.0),
                           cfg: TrainConfig | None = None,
                           exact_mul: bool = False,
                           eval_points: int = 10_000,
                           ) -> tuple[GInvariantNetwork, ApproximationReport]:
    """Expand an invariant polynomial over the class basis, approximate
    every term with a product gadget, and return one network that sums
    each term over the multisets of its class and weights the sums.
    Before any gadget trains, the class sums' estimated peak for one
    forward_many chunk goes to the memory check (CapExceededError).

    Each degree-k gadget trains to the n^-k * epsilon / |alpha|_1 target
    so the term-by-term error chain keeps the total below epsilon.
    """
    if not (math.isfinite(epsilon) and epsilon > 0):
        raise ValueError(f"epsilon must be positive and finite, got {epsilon}")
    if eval_points < 0:
        raise ValueError(f"eval_points must be >= 0, got {eval_points}")
    cfg = cfg or TrainConfig()
    lo, hi = float(box[0]), float(box[1])
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise ValueError(f"box ends must be finite, got [{lo}, {hi}]")
    if lo >= hi:
        raise ValueError("box must satisfy lo < hi")
    c = max(abs(lo), abs(hi))
    n = G.n

    partitions = {k: poly_classes(G, k) for k in homogeneous_decompose(p)}
    coeffs = expand_in_basis(p, G, partitions=partitions)
    l1 = sum(abs(a) for a in coeffs.values())
    constant = coeffs.get((0, 0), 0.0)
    degrees = sorted({k for (k, _ci) in coeffs if k >= 1})

    # fail fast, before any gadget trains: the class sums of one
    # forward_many chunk must fit in memory
    chunk = min(eval_points, 2048)
    counts = {k: np.bincount(partitions[k].labels).tolist() for k in degrees}
    sizes = [(k, counts[k][ci]) for k, ci in coeffs if k]
    _check_memory(_class_sum_bytes(sizes, chunk, exact_mul),
                  f"the class sums of {len(sizes)} terms on {chunk} points")

    gadgets: dict[int, object] = {}
    for k in degrees:
        if exact_mul:
            gadgets[k] = ExactProduct(k)
        else:
            target = epsilon / (l1 * n**k)
            sub = replace(cfg, seed=SplitMix64(cfg.seed).spawn(
                f"degree-{k}").next_u64() & 0x7FFFFFFF)
            gadgets[k] = train_product_mlp(k, c, target, sub)

    terms = []
    alphas = []
    term_rows = []
    for (k, ci), alpha in sorted(coeffs.items()):
        if k == 0:
            continue
        partition = partitions[k]
        terms.append((partition, ci, gadgets[k]))
        alphas.append(alpha)
        err = gadgets[k].max_error
        term_rows.append({
            "degree": k,
            "class_index": ci,
            "representative": [d + 1 for d in partition.representative(ci)],
            "alpha": alpha,
            "training_error": err,
            "error_budget": abs(alpha) * n**k * err,
            "gadget": gadgets[k].describe(),
        })

    head = MLP([np.array([alphas])], [np.array([constant])], "sigmoid")
    network = GInvariantNetwork(G, [ClassSumStage(terms), MLPStage(head)],
                                order=max(degrees, default=1))

    eval_rng = SplitMix64(cfg.seed).spawn("approx-eval")
    X = eval_rng.uniforms(lo, hi, eval_points, n)
    achieved = float(np.max(np.abs(network.forward_many(X) - p.evaluate_many(X)))) \
        if eval_points else 0.0
    report = ApproximationReport(
        epsilon=epsilon, box=(lo, hi), c=c, exact_mul=exact_mul,
        alpha_l1=l1, constant_term=constant, terms=term_rows,
        theoretical_bound=sum(r["error_budget"] for r in term_rows),
        achieved_max_error=achieved, eval_points=eval_points, seed=cfg.seed)
    return network, report
