import collections
import functools
import itertools
import math
import multiprocessing
import os
import subprocess
import sys
import threading
import tracemalloc
from dataclasses import asdict
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import ginet.net
from ginet.net import (
    ACTIVATIONS,
    ClassSumStage,
    ExactProduct,
    GInvariantNetwork,
    IdentityProduct,
    MLP,
    MLPProduct,
    MLPStage,
    SumStage,
    TrainConfig,
    TreeProduct,
    TrainingDivergedError,
    approximate_polynomial,
    build_term_network,
    build_unified,
    constant_network,
    grad_check,
    mlp_init,
    mlp_train,
    train_product_mlp,
    _ROW_BLOCK,
)
from ginet.orbits import CapExceededError, layer_classes, poly_classes
from ginet.permgroup import PermGroup, Permutation, cyclic, dihedral, symmetric
from ginet.polybasis import Polynomial, basis_polynomials, vandermonde
from ginet.rng import SplitMix64


def naive_mlp_eval(m, y):
    """Independent forward pass: explicit loops, no matrix ops."""
    import math
    a = [float(v) for v in y]
    last = len(m.weights) - 1
    for i, (W, b) in enumerate(zip(m.weights, m.biases)):
        z = [sum(W[r][c] * a[c] for c in range(len(a))) + b[r]
             for r in range(W.shape[0])]
        if i < last:
            if m.activation == "sigmoid":
                a = [1.0 / (1.0 + math.exp(-v)) for v in z]
            else:
                a = [max(v, 0.0) for v in z]
        else:
            a = z
    return np.array(a)


# ------------------------------------------------------------------- MLP

def test_mlp_zero_weights_constant_bias():
    m = MLP([np.zeros((2, 3))], [np.array([1.5, -2.0])])
    out = m.forward(np.array([1.0, 2.0, 3.0]))
    assert np.allclose(out, [1.5, -2.0])


def test_mlp_single_linear_layer_is_matrix_product():
    rng = SplitMix64(1)
    W = rng.uniforms(-1, 1, 3, 4)
    b = rng.uniforms(-1, 1, 3)
    m = MLP([W], [b])
    y = rng.uniforms(-1, 1, 4)
    assert np.allclose(m.forward(y), W @ y + b)


def with_random_biases(m, rng):
    """m with every bias drawn from [-1, 1]; mlp_init starts them at zero,
    which would leave the bias add untested."""
    m.biases = [rng.uniforms(-1, 1, b.shape[0]) for b in m.biases]
    return m


def test_mlp_forward_matches_naive_evaluator():
    rng = SplitMix64(2)
    for trial in range(20):
        widths = [3, 1 + rng.randint(5), 1 + rng.randint(5), 2]
        act = "sigmoid" if rng.randint(2) else "relu"
        m = with_random_biases(mlp_init(widths, act, rng, zero_last=False), rng)
        y = rng.uniforms(-2, 2, 3)
        assert np.allclose(m.forward(y), naive_mlp_eval(m, y), atol=1e-12)


def test_mlp_batch_matches_single():
    rng = SplitMix64(3)
    m = with_random_biases(mlp_init([2, 8, 1], "sigmoid", rng, zero_last=False), rng)
    Y = rng.uniforms(-1, 1, 5, 2)
    batch = m.forward(Y)
    for i in range(5):
        assert np.allclose(batch[i], m.forward(Y[i]))


def one_call_forward(m, Y):
    """The whole batch through each layer in one call, with the
    out-of-place activations: the reference for the blocked MLP.forward."""
    Y = np.asarray(Y, dtype=np.float64)
    single = Y.ndim == 1
    A = Y.reshape(1, -1) if single else Y
    act = ACTIVATIONS[m.activation][0]
    last = len(m.weights) - 1
    for i, (W, b) in enumerate(zip(m.weights, m.biases)):
        A = A @ W.T + b
        if i < last:
            A = act(A)
    return A[0] if single else A


def _oracle_nets():
    nets = [train_product_mlp(k, 1.0, 0.1, TrainConfig(seed=k)).mlp for k in (1, 2, 3)]
    assert [len(m.weights) for m in nets] == [1, 3, 3]
    rng = SplitMix64(40)
    nets.append(with_random_biases(mlp_init([3, 16, 8, 2], "relu", rng, zero_last=False), rng))
    nets.append(with_random_biases(mlp_init([4, 3], "sigmoid", rng, zero_last=False), rng))
    return nets


def test_mlp_forward_blocked_matches_one_call(monkeypatch):
    blocks_seen = []

    def recorded(rows):
        blocks = row_blocks(rows)
        blocks_seen.append((rows, blocks))
        return blocks

    row_blocks = ginet.net._row_blocks
    monkeypatch.setattr(ginet.net, "_row_blocks", recorded)
    B = _ROW_BLOCK
    rng = SplitMix64(41)
    for m in _oracle_nets():
        y = rng.uniforms(-1.2, 1.2, m.widths[0])
        assert np.array_equal(m.forward(y), one_call_forward(m, y))
        assert m.forward(y).shape == (m.widths[-1],)
        for rows in (0, 1, 2, B - 1, B, B + 1, B + 2, 2 * B + 1):
            Y = rng.uniforms(-1.2, 1.2, rows, m.widths[0])
            got, want = m.forward(Y), one_call_forward(m, Y)
            assert got.shape == want.shape == (rows, m.widths[-1])
            if rows < 2 * B:   # one block
                assert np.array_equal(got, want)
            else:
                assert np.all(np.abs(got - want) <= 1e-14 * np.maximum(1.0, np.abs(want)))
    assert blocks_seen
    for rows, blocks in blocks_seen:
        assert blocks[0][0] == 0 and blocks[-1][1] == rows
        assert all(a[1] == b[0] for a, b in zip(blocks, blocks[1:]))
        assert len(blocks) == max(1, rows // B)
        if rows >= B // 2:
            assert min(stop - start for start, stop in blocks) >= B // 2


def test_mlp_forward_same_bits_for_any_worker_count(monkeypatch):
    runs_seen = []

    def recorded(*job):
        runs_seen.append((threading.current_thread().name, len(job[-1])))
        forward_blocks(*job)

    forward_blocks = ginet.net._forward_blocks
    monkeypatch.setattr(ginet.net, "_forward_blocks", recorded)
    B = _ROW_BLOCK
    rng = SplitMix64(44)
    for m in _oracle_nets():
        inputs = [rng.uniforms(-1.2, 1.2, m.widths[0])]
        inputs += [rng.uniforms(-1.2, 1.2, rows, m.widths[0])
                   for rows in (0, 1, 2 * B - 1, 2 * B, 2 * B + 1, 3 * B, 5 * B + 7, 100_000)]
        monkeypatch.setattr(ginet.net, "_WORKERS", 1)
        runs_seen.clear()
        serial = [m.forward(Y) for Y in inputs]
        assert len(runs_seen) == len(inputs)
        assert all(name == threading.current_thread().name for name, _ in runs_seen)
        for workers in (2, 3, 4):
            monkeypatch.setattr(ginet.net, "_WORKERS", workers)
            for Y, want in zip(inputs, serial):
                runs_seen.clear()
                got = m.forward(Y)
                assert got.shape == want.shape and np.array_equal(got, want)
                blocks = max(1, len(Y) // B) if Y.ndim == 2 else 1
                assert len(runs_seen) == min(workers, blocks)
                assert sum(count for _, count in runs_seen) == blocks
                if blocks > 1:   # only multi-block calls go to the pool
                    assert all(name.startswith("ginet-mlp") for name, _ in runs_seen)
                else:
                    assert runs_seen[0][0] == threading.current_thread().name


@pytest.mark.parametrize("activation", ["sigmoid", "relu"])
@pytest.mark.parametrize("hidden", [0, 1, 2, 3, 4])
def test_mlp_forward_kernel_bit_equal_to_one_call_per_block(monkeypatch, activation, hidden):
    # every block of the kernel, whose sigmoid runs on weights with the
    # halvings folded in, against the whole block through the out-of-place
    # ACTIVATIONS; hidden = 0 is the one-layer net, which is not scaled
    rng = SplitMix64(48 + hidden)
    B = _ROW_BLOCK
    nets = [mlp_init([1, *[65] * hidden, 1], activation, rng, zero_last=False),
            mlp_init([65, *[1] * hidden, 65], activation, rng, zero_last=False),
            mlp_init([1 + rng.randint(65) for _ in range(hidden + 2)], activation, rng,
                     zero_last=False)]
    for m in nets:
        m.biases = [rng.uniforms(-1, 1, b.size) for b in m.biases]
        for rows in (0, 1, 2 * B - 1, 2 * B, 2 * B + 1):
            Y = rng.uniforms(-3, 3, rows, m.widths[0])
            blocks = ginet.net._row_blocks(rows)
            want = [one_call_forward(m, Y[start:stop]) for start, stop in blocks]
            for workers in (1, 2, 3, 4):
                monkeypatch.setattr(ginet.net, "_WORKERS", workers)
                got = m.forward(Y)
                assert got.shape == (rows, m.widths[-1])
                for (start, stop), block in zip(blocks, want):
                    assert np.array_equal(got[start:stop], block)


@pytest.mark.parametrize("activation", ["sigmoid", "relu"])
def test_inplace_activations_bit_equal_to_out_of_place(activation):
    # analysis applies the in-place entries to plain pre-activations, so
    # they must stay the whole activation, not the kernel's folded step
    act, _dact, act_inplace = ACTIVATIONS[activation]
    Z = np.concatenate([SplitMix64(49).uniforms(-8, 8, 4096),
                        [800.0, -800.0, 0.0, -0.0]])
    for z in (Z, Z.reshape(4, -1)):
        got = z.copy()
        act_inplace(got)
        want = act(z)
        assert np.array_equal(got, want)
        assert np.array_equal(np.signbit(got), np.signbit(want))


@pytest.mark.parametrize("cores, env, workers", [
    (2, {}, 1),                                         # BLAS takes every core
    (8, {}, 1),
    (2, {"OPENBLAS_NUM_THREADS": "1"}, 2),              # the benchmark's setting
    (8, {"OPENBLAS_NUM_THREADS": "2"}, 4),
    (8, {"OPENBLAS_NUM_THREADS": "3"}, 2),
    (2, {"OPENBLAS_NUM_THREADS": "4"}, 1),              # more BLAS threads than cores
    (1, {"OPENBLAS_NUM_THREADS": "1"}, 1),
    (4, {"GOTO_NUM_THREADS": "2"}, 2),
    (4, {"OMP_NUM_THREADS": "1"}, 4),
    (8, {"OPENBLAS_NUM_THREADS": "2", "GOTO_NUM_THREADS": "1",
         "OMP_NUM_THREADS": "1"}, 4),                   # OpenBLAS's order
    (8, {"GOTO_NUM_THREADS": "4", "OMP_NUM_THREADS": "1"}, 2),
    (4, {"OPENBLAS_NUM_THREADS": " 1 "}, 4),
    (4, {"OPENBLAS_NUM_THREADS": "0", "OMP_NUM_THREADS": "2"}, 2),   # 0 is unset
    (4, {"OPENBLAS_NUM_THREADS": "-1"}, 1),
    (4, {"OPENBLAS_NUM_THREADS": "two"}, 1),
    (4, {"OPENBLAS_NUM_THREADS": "1.5", "GOTO_NUM_THREADS": "", "OMP_NUM_THREADS": "4"}, 1),
    (4, {"MKL_NUM_THREADS": "1"}, 1),                   # not read by OpenBLAS
])
def test_worker_count_from_blas_threads(cores, env, workers):
    assert ginet.net._worker_count(cores, env) == workers


def test_mlp_forward_concurrent_callers(monkeypatch):
    m = _oracle_nets()[1]
    X = SplitMix64(45).uniforms(-1, 1, 5 * _ROW_BLOCK + 7, 2)
    monkeypatch.setattr(ginet.net, "_WORKERS", 1)
    want = m.forward(X)
    # more runs than cores, and frequent thread switches
    monkeypatch.setattr(ginet.net, "_WORKERS", 4)
    results = [[], [], []]

    def caller(i):
        for _ in range(5):
            results[i].append(m.forward(X))

    threads = [threading.Thread(target=caller, args=(i,)) for i in range(3)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert [len(r) for r in results] == [5, 5, 5]
    assert all(np.array_equal(got, want) for r in results for got in r)


def test_mlp_forward_worker_error_reaches_caller(monkeypatch):
    def failing(z):
        raise FloatingPointError("in a worker")

    m = mlp_init([2, 8, 1], "relu", SplitMix64(46), zero_last=False)
    monkeypatch.setattr(ginet.net, "_WORKERS", 2)
    monkeypatch.setitem(ACTIVATIONS, "relu", (*ACTIVATIONS["relu"][:2], failing))
    with pytest.raises(FloatingPointError, match="in a worker"):
        m.forward(np.zeros((3 * _ROW_BLOCK, 2)))


def _forward_in_child(m, X, conn):
    conn.send(m.forward(X))
    conn.close()


def test_mlp_forward_in_forked_child(monkeypatch):
    # the child inherits the parent's pool object but none of its threads
    m = _oracle_nets()[1]
    X = SplitMix64(47).uniforms(-1, 1, 3 * _ROW_BLOCK, 2)
    monkeypatch.setattr(ginet.net, "_WORKERS", 2)
    want = m.forward(X)
    assert ginet.net._POOL is not None
    ctx = multiprocessing.get_context("fork")
    recv, send = ctx.Pipe(duplex=False)
    child = ctx.Process(target=_forward_in_child, args=(m, X, send))
    child.start()
    send.close()
    try:
        assert recv.poll(60), "forward in the forked child did not finish"
        assert np.array_equal(recv.recv(), want)
    finally:
        child.join(10)
        if child.is_alive():
            child.kill()
            child.join()
    assert child.exitcode == 0


def test_verifiers_never_start_the_pool(tmp_path):
    # verify and closure send MLP.forward one block at a time, so they
    # stay on the calling thread
    grp = tmp_path / "c5.grp"
    grp.write_text("name = cyclic\nn = 5\n")
    script = (
        "import threading, ginet.net\n"
        "from ginet.cli import main\n"
        f"assert main(['verify', 'necessary', '--group', {str(grp)!r}]) == 0\n"
        f"assert main(['closure', '--group', {str(grp)!r}]) == 0\n"
        "assert main(['verify', 'vandermonde', '--n', '5', '--max-order', '1',"
        " '--trials', '5']) == 0\n"
        "print('threads', threading.active_count(), ginet.net._POOL is None)\n")
    src = str(Path(ginet.net.__file__).resolve().parent.parent)
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": src}, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip().splitlines()[-1] == "threads 1 True"


def test_mlp_width_mismatch():
    m = MLP([np.zeros((2, 3))], [np.zeros(2)])
    with pytest.raises(ValueError):
        m.forward(np.zeros(4))


# ------------------------------------------------------------------- training

def test_train_perfect_net_stays_put():
    # a net already matching the targets keeps ~zero loss
    W = np.array([[2.0, -1.0]])
    m = MLP([W], [np.zeros(1)])
    rng = SplitMix64(4)
    X = rng.uniforms(-1, 1, 64, 2)
    T = X @ W.T
    res = mlp_train(m, X, T, TrainConfig(epochs=50, step=0.5, check_every=10))
    assert res.final_max_error < 1e-12
    assert all(loss < 1e-25 for _, loss in res.loss_history)


def test_train_linear_target_with_linear_net():
    rng = SplitMix64(5)
    X = rng.uniforms(-1, 1, 256, 3)
    T = X @ np.array([[1.0], [-2.0], [0.5]])
    m = MLP([np.zeros((1, 3))], [np.zeros(1)])
    res = mlp_train(m, X, T, TrainConfig(epochs=20000, step=0.5,
                                         target_max_error=1e-6, check_every=100))
    assert res.reached_target
    assert res.final_max_error < 1e-6


def test_train_divergence_reports_epoch():
    rng = SplitMix64(6)
    X = rng.uniforms(-1, 1, 32, 2)
    T = np.ones((32, 1))
    m = mlp_init([2, 8, 1], "sigmoid", rng, zero_last=False)
    with pytest.raises(TrainingDivergedError) as err:
        mlp_train(m, X, T, TrainConfig(epochs=10000, step=1e9))
    assert err.value.epoch >= 0


def test_training_deterministic():
    def run():
        rng = SplitMix64(7)
        X = rng.uniforms(-1, 1, 128, 2)
        T = np.prod(X, axis=1).reshape(-1, 1)
        m = mlp_init([2, 8, 1], "sigmoid", SplitMix64(99))
        return mlp_train(m, X, T, TrainConfig(epochs=500, step=1.0))
    a, b = run(), run()
    for Wa, Wb in zip(a.mlp.weights, b.mlp.weights):
        assert np.array_equal(Wa, Wb)
    assert a.loss_history == b.loss_history


# ------------------------------------------------------------------- grad check

def test_grad_check_linear_net_exact():
    rng = SplitMix64(8)
    m = MLP([rng.uniforms(-1, 1, 1, 3)], [rng.uniforms(-1, 1, 1)])
    rep = grad_check(m, rng.uniforms(-1, 1, 3), np.array([0.3]))
    assert rep.max_rel_error < 1e-9
    assert not rep.nonsmooth


def test_grad_check_two_hidden_sigmoid():
    rng = SplitMix64(9)
    for _ in range(5):
        m = mlp_init([3, 6, 6, 2], "sigmoid", rng, zero_last=False)
        rep = grad_check(m, rng.uniforms(-1, 1, 3), rng.uniforms(-1, 1, 2))
        assert rep.max_rel_error <= 1e-4


def backward_from_preactivations(m, As, T):
    """Oracle: the gradients with each activation derivative recomputed
    from the pre-activations, the sigmoid's as s(z) * (1 - s(z))."""
    def derivative(z):
        if m.activation == "relu":
            return (z > 0.0).astype(np.float64)
        s = ACTIVATIONS["sigmoid"][0](z)
        return s * (1.0 - s)

    last = len(m.weights) - 1
    diff = As[-1] - T
    G = (2.0 / diff.size) * diff
    gWs, gbs = [None] * len(m.weights), [None] * len(m.weights)
    for i in range(last, -1, -1):
        dZ = G if i == last else G * derivative(As[i] @ m.weights[i].T + m.biases[i])
        gWs[i] = dZ.T @ As[i]
        gbs[i] = dZ.sum(axis=0)
        if i:
            G = dZ @ m.weights[i]
    return gWs, gbs


def test_backward_bit_equal_to_derivative_of_preactivations():
    rng = SplitMix64(49)
    nets = _oracle_nets()
    assert {m.activation for m in nets if len(m.weights) > 1} == {"sigmoid", "relu"}
    for m in nets:
        X = rng.uniforms(-1.5, 1.5, 300, m.widths[0])
        X[:7] = 0.0                     # rows whose pre-activations are the biases
        T = rng.uniforms(-1, 1, 300, m.widths[-1])
        As = ginet.net._forward_cached(m, X)
        got = ginet.net._backward(m, As, T)
        want = backward_from_preactivations(m, As, T)
        for g, w in zip(got[0] + got[1], want[0] + want[1]):
            assert g.dtype == w.dtype and np.array_equal(g, w)


def test_grad_check_relu_kink_flagged():
    m = MLP([np.eye(2), np.ones((1, 2))],
            [np.zeros(2), np.zeros(1)], activation="relu")
    rep = grad_check(m, np.zeros(2), np.array([1.0]))
    assert rep.nonsmooth


# ------------------------------------------------------------------- gadgets

def test_identity_product_exact():
    g = train_product_mlp(1, 1.0, 1e-12)
    assert isinstance(g, IdentityProduct)
    assert g.max_error == 0.0
    Y = np.array([[0.3], [-1.1]])
    assert np.array_equal(g(Y), np.array([0.3, -1.1]))


def test_exact_product():
    g = ExactProduct(3)
    Y = np.array([[1.0, 2.0, 3.0], [0.5, -2.0, 4.0]])
    assert np.allclose(g(Y), [6.0, -4.0])


@pytest.mark.parametrize("k", range(1, 9))
def test_exact_product_bit_equal_to_np_prod(k):
    rng = SplitMix64(50 + k)
    Y = rng.uniforms(-2, 2, 600, k)
    Y[::7, rng.randint(k)] = -0.0
    Y[::11, 0] = 0.0
    Y[::13, k - 1] = -0.0
    for rows in (Y, Y[:0]):
        got = ExactProduct(k)(rows)
        want = np.prod(np.sort(rows, axis=1), axis=1)
        assert got.shape == want.shape == (len(rows),)
        assert np.array_equal(got, want)
        assert np.array_equal(np.signbit(got), np.signbit(want))
    assert np.signbit(ExactProduct(k)(Y)).any()


def test_product_mlp_default_regression():
    # regression baseline: the default config comfortably beats 0.02 on
    # the held-out value-sorted grid (fit quality frozen at ~6.0e-4 for
    # seed 0; 6.1e-4 when the fit and grid were unsorted)
    g = train_product_mlp(2, 1.0, 0.02, TrainConfig(seed=0))
    assert g.max_error <= 0.02
    assert g.max_error <= 0.002
    rng = SplitMix64(20)
    Y = rng.uniforms(-1, 1, 200, 2)
    assert np.max(np.abs(g(Y) - np.prod(Y, axis=1))) <= 0.02


def test_product_mlp_zero_times_anything():
    g = train_product_mlp(2, 1.0, 0.01, TrainConfig(seed=0))
    ys = np.linspace(-1, 1, 21)
    Y = np.stack([np.zeros(21), ys], axis=1)
    assert np.max(np.abs(g(Y))) <= g.max_error + 1e-12


def test_product_mlp_box_scaling():
    g = train_product_mlp(2, 2.0, 0.05, TrainConfig(seed=0))
    rng = SplitMix64(21)
    Y = rng.uniforms(-2, 2, 200, 2)
    assert np.max(np.abs(g(Y) - np.prod(Y, axis=1))) <= 0.05


def test_product_mlp_deterministic():
    a = train_product_mlp(2, 1.0, 0.01, TrainConfig(seed=5))
    b = train_product_mlp(2, 1.0, 0.01, TrainConfig(seed=5))
    for Wa, Wb in zip(a.mlp.weights, b.mlp.weights):
        assert np.array_equal(Wa, Wb)
    assert a.max_error == b.max_error


def test_product_mlp_target_not_reached():
    from ginet.net import TargetNotReachedError
    with pytest.raises(TargetNotReachedError) as err:
        train_product_mlp(3, 1.0, 1e-9, TrainConfig(seed=0, epochs=1, check_every=1))
    assert 0 < err.value.best < 1.0


def test_sorted_pair_fit_meets_s7_target_for_seeds_0_to_49():
    # the approx benchmark's S7 degree-2 target at epsilon 0.05, 0.05 / 7^2,
    # met by the closed-form output fit alone on value-sorted samples
    target = 0.05 / 49
    for seed in range(50):
        g = train_product_mlp(2, 1.0, target, TrainConfig(seed=seed))
        assert g.epochs_trained == 0 and g.max_error <= target, seed


def test_product_tree_k4():
    g = train_product_mlp(4, 1.0, 0.05, TrainConfig(seed=0))
    rng = SplitMix64(22)
    Y = rng.uniforms(-1, 1, 300, 4)
    assert np.max(np.abs(g(Y) - np.prod(Y, axis=1))) <= 0.05


# ------------------------------------------------------------------- networks

def test_term_network_with_exact_gadget_matches_basis_polynomial():
    for G, k in [(cyclic(4), 2), (symmetric(3), 2), (cyclic(4), 1)]:
        P = poly_classes(G, k)
        basis = basis_polynomials(G, k, partition=P)
        rng = SplitMix64(10)
        for b in basis:
            net = build_term_network(G, P, b.class_index, ExactProduct(k))
            for _ in range(10):
                x = rng.uniforms(-1, 1, G.n)
                assert net.forward(x) == pytest.approx(
                    b.polynomial.evaluate(x), abs=1e-12)


def test_term_network_invariance():
    G = cyclic(4)
    P = poly_classes(G, 2)
    net = build_term_network(G, P, 1, ExactProduct(2))
    rng = SplitMix64(11)
    assert net.max_invariance_deviation(rng, trials=25) <= 1e-12


def test_unified_single_term_identity():
    G = cyclic(4)
    P = poly_classes(G, 2)
    term = build_term_network(G, P, 1, ExactProduct(2))
    unified = build_unified([(1.0, term)])
    rng = SplitMix64(12)
    for _ in range(20):
        x = rng.uniforms(-1, 1, 4)
        assert unified.forward(x) == pytest.approx(term.forward(x), abs=1e-12)


def test_unified_two_orders_matches_sum():
    G = cyclic(4)
    P1, P2 = poly_classes(G, 1), poly_classes(G, 2)
    t1 = build_term_network(G, P1, 0, ExactProduct(1))
    t2 = build_term_network(G, P2, 1, ExactProduct(2))
    unified = build_unified([(0.7, t1), (-1.3, t2)], constant=0.25)
    assert unified.order == 2
    rng = SplitMix64(13)
    for _ in range(100):
        x = rng.uniforms(-1, 1, 4)
        expected = 0.7 * t1.forward(x) - 1.3 * t2.forward(x) + 0.25
        assert unified.forward(x) == pytest.approx(expected, abs=1e-9)


def test_unified_zero_alphas_zero_output():
    G = cyclic(4)
    P = poly_classes(G, 2)
    t = build_term_network(G, P, 0, ExactProduct(2))
    unified = build_unified([(0.0, t)])
    rng = SplitMix64(14)
    for _ in range(10):
        assert unified.forward(rng.uniforms(-1, 1, 4)) == 0.0


def test_constant_network():
    net = constant_network(symmetric(3), 2.5)
    rng = SplitMix64(15)
    for _ in range(5):
        assert net.forward(rng.uniforms(-1, 1, 3)) == 2.5


def test_network_stage_validation():
    from ginet.net import ActivationStage
    G = cyclic(3)
    head = MLP([np.ones((1, 1))], [np.zeros(1)])
    with pytest.raises(ValueError, match="invariant"):
        GInvariantNetwork(G, [MLPStage(head)], order=1)
    with pytest.raises(ValueError, match="MLP"):
        GInvariantNetwork(G, [SumStage(np.ones(1)), ActivationStage("sigmoid")],
                          order=1)


def test_network_stage_group_compared_by_value():
    from ginet.equivlayers import layer_space, random_layer
    from ginet.net import EquivStage
    G = cyclic(4)
    # C4 again, as a distinct object generated by the inverse rotation
    same = PermGroup.generate(4, [Permutation.from_cycles(4, [(1, 4, 3, 2)])])
    # the Klein four-group: also order 4, but another group
    klein = PermGroup.generate(4, [Permutation.from_cycles(4, [(1, 2), (3, 4)]),
                                   Permutation.from_cycles(4, [(1, 3), (2, 4)])])
    assert same is not G and same.generators != G.generators
    rng = SplitMix64(16)
    x = rng.uniforms(-1, 1, 4)
    stages = [EquivStage(random_layer(layer_space(same, 1, 1), rng)), SumStage(np.ones(1))]
    net = GInvariantNetwork(G, stages, order=1)
    assert net.forward(x) == pytest.approx(net.forward(G.elements[1].apply_vector(x)))
    stages[0] = EquivStage(random_layer(layer_space(klein, 1, 1), rng))
    with pytest.raises(ValueError, match="stage group differs"):
        GInvariantNetwork(G, stages, order=1)


# ------------------------------------------------------------------- approximate (exact gadgets)

def test_approximate_polynomial_exact_gadgets():
    # exact multiplication makes the construction exact, training-free
    G = cyclic(4)
    p = Polynomial(4, {(1, 1, 0, 0): 1.0, (0, 1, 1, 0): 1.0,
                       (0, 0, 1, 1): 1.0, (1, 0, 0, 1): 1.0})
    net, report = approximate_polynomial(G, p, 0.05, exact_mul=True,
                                         eval_points=500)
    assert report.achieved_max_error <= 1e-10
    assert report.alpha_l1 == pytest.approx(0.5)
    rng = SplitMix64(16)
    assert net.max_invariance_deviation(rng, trials=20) <= 1e-9


@pytest.mark.parametrize("epsilon, box", [
    (float("nan"), (-1.0, 1.0)), (float("inf"), (-1.0, 1.0)),
    (0.1, (float("nan"), 1.0)), (0.1, (-1.0, float("nan"))),
    (0.1, (float("-inf"), 1.0)), (0.1, (-1.0, float("inf"))),
])
def test_approximate_rejects_non_finite(epsilon, box):
    G = cyclic(4)
    p = Polynomial(4, {(1, 1, 0, 0): 1.0, (0, 1, 1, 0): 1.0,
                       (0, 0, 1, 1): 1.0, (1, 0, 0, 1): 1.0})
    with pytest.raises(ValueError, match="finite"):
        approximate_polynomial(G, p, epsilon, box, eval_points=10)


def test_approximate_rejects_negative_eval_points_before_training(monkeypatch):
    def no_training(*args, **kwargs):
        raise AssertionError("a gadget trained before eval_points was checked")

    monkeypatch.setattr(ginet.net, "train_product_mlp", no_training)
    G = symmetric(3)
    p = Polynomial(3, {(2, 0, 0): 1.0, (0, 2, 0): 1.0, (0, 0, 2): 1.0})
    with pytest.raises(ValueError, match="eval_points must be >= 0, got -3"):
        approximate_polynomial(G, p, 0.1, eval_points=-3)


def test_approximate_constant_polynomial():
    G = symmetric(3)
    p = Polynomial.constant(3, 4.25)
    net, report = approximate_polynomial(G, p, 0.01, exact_mul=True,
                                         eval_points=100)
    assert report.achieved_max_error == 0.0
    assert net.forward(np.array([0.1, 0.2, 0.3])) == 4.25


def test_approximate_rejects_non_invariant():
    from ginet.polybasis import NotInvariantError
    G = cyclic(3)
    with pytest.raises(NotInvariantError):
        approximate_polynomial(G, Polynomial.variable(3, 0), 0.1, exact_mul=True)


def test_approximate_exact_s3_power_sum():
    G = symmetric(3)
    p = Polynomial(3, {(2, 0, 0): 1.0, (0, 2, 0): 1.0, (0, 0, 2): 1.0})
    net, report = approximate_polynomial(G, p, 0.05, exact_mul=True,
                                         eval_points=500)
    assert report.achieved_max_error <= 1e-10
    assert report.alpha_l1 == pytest.approx(1.0)


def test_term_network_trained_error_bound():
    # |term(x) - basis_poly(x)| <= n^k * gadget max error over the box
    G = cyclic(4)
    P = poly_classes(G, 2)
    gadget = train_product_mlp(2, 1.0, 0.01, TrainConfig(seed=0))
    from ginet.polybasis import basis_polynomials
    basis = basis_polynomials(G, 2, partition=P)
    rng = SplitMix64(17)
    bound = 4**2 * gadget.max_error
    for b in basis:
        net = build_term_network(G, P, b.class_index, gadget)
        for _ in range(50):
            x = rng.uniforms(-1, 1, 4)
            assert abs(net.forward(x) - b.polynomial.evaluate(x)) <= bound


def test_approximate_trained_budget_and_invariance():
    # the measured error never exceeds the logged per-term budget total,
    # and the network is invariant under its group
    G = symmetric(3)
    p = Polynomial(3, {(2, 0, 0): 1.0, (0, 2, 0): 1.0, (0, 0, 2): 1.0,
                       (0, 0, 0): 0.5})
    net, report = approximate_polynomial(G, p, 0.05, cfg=TrainConfig(seed=0),
                                         eval_points=2000)
    assert report.achieved_max_error <= 0.05
    assert report.achieved_max_error <= report.theoretical_bound + 1e-12
    assert report.theoretical_bound <= 0.05 + 1e-12
    for term in report.terms:
        assert term["error_budget"] == pytest.approx(
            abs(term["alpha"]) * 3**term["degree"] * term["training_error"])
    rng = SplitMix64(18)
    assert net.max_invariance_deviation(rng, trials=50) <= 1e-9


def test_approximate_deterministic_reports():
    G = cyclic(4)
    p = Polynomial(4, {(1, 1, 0, 0): 1.0, (0, 1, 1, 0): 1.0,
                       (0, 0, 1, 1): 1.0, (1, 0, 0, 1): 1.0})
    runs = [asdict(approximate_polynomial(G, p, 0.05, cfg=TrainConfig(seed=4),
                                          eval_points=500)[1])
            for _ in range(2)]
    assert runs[0] == runs[1]


def test_approximate_exact_three_orders_mixed():
    # degrees 0..3 together: lifts from every lower order to d=3
    G = cyclic(3)
    cubes = {tuple(3 if j == i else 0 for j in range(3)): 1.0 for i in range(3)}
    ring = {(1, 1, 0): 2.0, (0, 1, 1): 2.0, (1, 0, 1): 2.0}
    linear = {tuple(1 if j == i else 0 for j in range(3)): 0.5 for i in range(3)}
    p = Polynomial(3, {**cubes, **ring, **linear, (0, 0, 0): 3.0})
    net, report = approximate_polynomial(G, p, 0.05, exact_mul=True,
                                         eval_points=500)
    assert net.order == 3
    assert report.achieved_max_error <= 1e-10
    rng = SplitMix64(23)
    assert net.max_invariance_deviation(rng, trials=30) <= 1e-9
    X = rng.uniforms(-1, 1, 50, 3)
    assert np.allclose(net.forward_many(X), p.evaluate_many(X), atol=1e-10)


def test_approximate_computes_each_partition_once_per_degree(monkeypatch):
    import ginet.net
    from ginet.permgroup import dihedral
    G = dihedral(7)
    terms = [b for k in (1, 2, 3) for b in basis_polynomials(G, k)[:3]]
    p = Polynomial.zero(7)
    for b in terms:
        p = p + b.polynomial
    calls = []

    def counted(G, k, *args, **kwargs):
        calls.append(k)
        return poly_classes(G, k, *args, **kwargs)

    monkeypatch.setattr(ginet.net, "poly_classes", counted)
    monkeypatch.setattr(ginet.polybasis, "poly_classes", counted)
    _net, report = approximate_polynomial(G, p, 0.05, exact_mul=True, eval_points=50)
    assert len(report.terms) == len(terms) == 7
    assert sorted(calls) == [1, 2, 3]
    assert report.achieved_max_error <= 1e-10


def test_approximate_builds_multisets_once_per_degree(monkeypatch):
    # the expansion, the memory check and every class-sum term read the
    # rows that poly_classes built, so each degree builds them once
    import ginet.orbits
    from ginet.permgroup import dihedral
    G = dihedral(7)
    p = Polynomial.zero(7)
    for k in (1, 2, 3):
        for b in basis_polynomials(G, k):
            p = p + b.polynomial
    rows = ginet.orbits._nondecreasing_rows
    calls = []

    def counted(n, k):
        calls.append(k)
        return rows(n, k)

    monkeypatch.setattr(ginet.orbits, "_nondecreasing_rows", counted)
    _net, report = approximate_polynomial(G, p, 0.05, exact_mul=True, eval_points=50)
    assert len(report.terms) == 13
    assert sorted(calls) == [1, 2, 3]


def test_approximate_builds_no_tuple_view():
    # the expansion, the memory check and the class sums read each
    # partition's rows and labels
    from ginet.permgroup import alternating, dihedral

    G = dihedral(7)
    p = Polynomial.zero(7)
    for k in (1, 2, 3):
        for b in basis_polynomials(G, k):
            p = p + b.polynomial
    _net, report = approximate_polynomial(G, p, 0.05, exact_mul=True, eval_points=50)
    assert len(report.terms) == 13 and report.achieved_max_error <= 1e-10
    _net, report = approximate_polynomial(alternating(5), vandermonde(5), 1e-6,
                                          exact_mul=True, eval_points=50)
    assert len(report.terms) == 2 and report.achieved_max_error <= 1e-10


def test_approximate_builds_no_layer_partition(monkeypatch):
    # the class-sum network needs no order-1 -> order-k layer, so no
    # layer_classes call for any term, nor for a constant-only target
    import ginet.equivlayers
    from ginet.permgroup import dihedral
    G = dihedral(7)
    p = Polynomial.constant(7, 0.5)
    for k in (1, 2, 3):
        for b in basis_polynomials(G, k)[:2]:
            p = p + b.polynomial
    calls = []

    def counted(G, k, *args, **kwargs):
        calls.append(k)
        return layer_classes(G, k, *args, **kwargs)

    monkeypatch.setattr(ginet.equivlayers, "layer_classes", counted)
    for target in (p, Polynomial.constant(7, 2.0)):
        net, report = approximate_polynomial(G, target, 0.05, exact_mul=True,
                                             eval_points=50)
        assert report.achieved_max_error <= 1e-10
    assert calls == []


# ------------------------------------------------------------------- class sums vs the layered reference

def _assert_matches_reference(network, G, spec, constant, points=40, seed=31):
    """network must equal build_unified over spec's term networks within
    1e-12 * max(1, |output|); spec holds (alpha, partition, class, gadget)."""
    reference = build_unified([(alpha, build_term_network(G, P, ci, gadget))
                               for alpha, P, ci, gadget in spec], constant=constant)
    assert network.order == reference.order
    X = SplitMix64(seed).uniforms(-1, 1, points, G.n)
    want = reference.forward_many(X)
    got = network.forward_many(X)
    assert np.all(np.abs(got - want) <= 1e-12 * np.maximum(1.0, np.abs(want)))
    return want


def _class_sum_network(G, spec, constant):
    head = MLP([np.array([[alpha for alpha, *_ in spec]])], [np.array([constant])])
    return GInvariantNetwork(G, [ClassSumStage([(P, ci, g) for _a, P, ci, g in spec]),
                                 MLPStage(head)],
                             order=max(P.k for _a, P, _ci, _g in spec))


def test_class_sums_match_reference_exact_d7():
    from ginet.permgroup import dihedral
    G = dihedral(7)
    rng = SplitMix64(32)
    p = Polynomial.constant(7, -0.75)
    for k in (1, 2, 3):
        for b in basis_polynomials(G, k):
            p = p + b.polynomial.scale(rng.uniform(-1, 1))
    net, report = approximate_polynomial(G, p, 0.05, exact_mul=True, eval_points=50)
    partitions = {k: poly_classes(G, k) for k in (1, 2, 3)}
    spec = [(t["alpha"], partitions[t["degree"]], t["class_index"],
             ExactProduct(t["degree"])) for t in report.terms]
    assert {t["degree"] for t in report.terms} == {1, 2, 3}
    _assert_matches_reference(net, G, spec, report.constant_term)


def test_class_sums_match_reference_trained_s5():
    # trained gadgets have gadget(0) != 0, so the off-class constant matters
    G = symmetric(5)
    rng = SplitMix64(33)
    spec = []
    for k, target in ((1, 0.05), (2, 0.05), (3, 0.1)):
        gadget = train_product_mlp(k, 1.0, target, TrainConfig(seed=k))
        P = poly_classes(G, k)
        spec += [(rng.uniform(-2, 2), P, ci, gadget) for ci in range(P.num_classes)]
    assert any(abs(float(g(np.zeros((1, g.k)))[0])) > 0 for *_x, g in spec)
    out = _assert_matches_reference(_class_sum_network(G, spec, 0.3), G, spec, 0.3)
    assert np.max(np.abs(out)) > 1.0


def test_class_sums_match_reference_tree_c6():
    from ginet.net import TreeProduct
    G = cyclic(6)
    rng = SplitMix64(34)
    tree = train_product_mlp(4, 1.0, 0.05, TrainConfig(seed=0))
    assert isinstance(tree, TreeProduct)
    P2, P4 = poly_classes(G, 2), poly_classes(G, 4)
    spec = [(rng.uniform(-1, 1), P2, 1, ExactProduct(2))]
    spec += [(rng.uniform(-2, 2), P4, ci, tree) for ci in (0, 5, 17, P4.num_classes - 1)]
    _assert_matches_reference(_class_sum_network(G, spec, -1.0), G, spec, -1.0)


def test_class_sum_stage_validation():
    P = poly_classes(cyclic(4), 2)
    with pytest.raises(ValueError, match="arity"):
        ClassSumStage([(P, 0, ExactProduct(3))])
    with pytest.raises(ValueError, match="degree"):
        ClassSumStage([(poly_classes(cyclic(4), 0), 0, ExactProduct(0))])
    # a layer class is not closed under reordering, so it has no multiset sum
    with pytest.raises(ValueError, match="polynomial classes, not layer ones"):
        ClassSumStage([(layer_classes(cyclic(4), 2), 1, ExactProduct(2))])


def test_forward_many_empty_batch():
    G = cyclic(4)
    P = poly_classes(G, 2)
    term = build_term_network(G, P, 1, ExactProduct(2))
    approx, _ = approximate_polynomial(
        G, basis_polynomials(G, 2, partition=P)[1].polynomial, 0.05, exact_mul=True)
    for net in (term, build_unified([(0.5, term)], 1.0), constant_network(G, 2.0), approx):
        out = net.forward_many(np.zeros((0, 4)))
        assert out.shape == net.forward(np.zeros((0, 4))).shape == (0,)
        assert out.dtype == np.float64
    with pytest.raises(ValueError, match="width"):
        approx.forward_many(np.zeros((0, 3)))


@pytest.mark.parametrize("chunk", [0, -1, -2048])
def test_forward_many_rejects_chunk_below_1(chunk):
    net = constant_network(cyclic(4), 2.0)
    with pytest.raises(ValueError, match=rf"chunk must be >= 1, got {chunk}$"):
        net.forward_many(np.zeros((3, 4)), chunk=chunk)


@st.composite
def _groups(draw):
    n = draw(st.integers(1, 6))
    gens = draw(st.lists(st.permutations(range(n)), max_size=2))
    return PermGroup.generate(n, [Permutation(g) for g in gens])


class _RecordingProduct(ExactProduct):
    """ExactProduct that keeps every batch of rows it gets, gathered."""

    def __init__(self, k):
        super().__init__(k)
        self.seen = []

    def __call__(self, Y):
        self.seen.append(np.asarray(Y))
        return super().__call__(Y)


@settings(max_examples=30, deadline=None)
@given(_groups(), st.integers(1, 4), st.sampled_from([0, 1, 2048]), st.integers(0, 2**32 - 1))
def test_class_sum_gather_matches_fancy_index(G, k, B, seed):
    # ClassSumStage hands its gadgets ClassRows, one row per multiset of
    # the class and the zero tuple last; the reference is the fancy-indexed
    # X[:, digits] sorted along each row, and the multiplicity-weighted
    # rest of the stage over its rows
    P = poly_classes(G, k)
    classes = sorted({0, P.num_classes // 2, P.num_classes - 1})
    gadget = _RecordingProduct(k)
    stage = ClassSumStage([(P, ci, gadget) for ci in classes])
    T = SplitMix64(seed).uniforms(-1, 1, B, G.n)[:, :, None]
    out = stage.forward(T)
    assert out.shape == (B, len(classes))
    X = np.concatenate([T[:, :, 0], np.zeros((B, 1))], axis=1)
    assert len(gadget.seen) == len(stage.terms)
    for ci, (digits, mult, _g, outside), rows, col in zip(classes, stage.terms,
                                                          gadget.seen, out.T):
        size = P.sizes()[ci]
        assert mult.sum() == size and outside == G.n**k - size
        assert np.all(np.diff(digits, axis=1) >= 0)
        want = np.sort(X[:, digits].reshape(-1, k), axis=1)
        assert rows.shape == want.shape and np.array_equal(rows, want)
        values = np.prod(want, axis=1).reshape(B, len(digits))
        weighted = (values[:, :-1] * mult).sum(axis=1)
        assert np.array_equal(col, weighted + outside * values[:, -1])


def _materialised_class_sums(stage, T):
    """ClassSumStage.forward with every gadget's rows gathered into one
    (points * rows per point, k) array first and sorted with np.sort: the
    oracle for ClassRows."""
    B = T.shape[0]
    X = np.concatenate([T[:, :, 0], np.zeros((B, 1))], axis=1)
    out = np.empty((B, len(stage.terms)))
    for j, (digits, mult, gadget, outside) in enumerate(stage.terms):
        rows = np.sort(X.take(digits.reshape(-1), axis=1).reshape(-1, digits.shape[1]), axis=1)
        values = np.asarray(gadget(rows)).reshape(B, len(digits))
        out[:, j] = (values[:, :-1] * mult).sum(axis=1) + outside * values[:, -1]
    return out


def _tuple_class_sums(terms, T):
    """The class sums the tuple way: each gadget on every member tuple of
    its class, in its digit order, summed, plus (n^k - |class|) times the
    gadget at the zero tuple from the same call; the oracle for the
    multiset sums of ClassSumStage."""
    B = T.shape[0]
    X = np.concatenate([T[:, :, 0], np.zeros((B, 1))], axis=1)
    out = np.empty((B, len(terms)))
    for j, (P, ci, gadget) in enumerate(terms):
        n, k = P.n, P.k
        codes = P.members(ci)
        digits = np.vstack([codes[:, None] // n ** np.arange(k - 1, -1, -1) % n,
                            np.full((1, k), n)])
        values = np.asarray(gadget(X[:, digits].reshape(-1, k))).reshape(B, len(digits))
        out[:, j] = values[:, :-1].sum(axis=1) + (n**k - codes.size) * values[:, -1]
    return out


def _assert_close_to_tuple_sums(terms, B, n, seed):
    stage = ClassSumStage(terms)
    T = SplitMix64(seed).uniforms(-1, 1, B, n)[:, :, None]
    got, want = stage.forward(T), _tuple_class_sums(terms, T)
    assert got.shape == want.shape == (B, len(terms))
    assert np.all(np.abs(got - want) <= 1e-12 * np.maximum(1.0, np.abs(want)))


def _random_product_net(k, seed):
    # random weights and biases: the bits, not the accuracy, are checked
    m = mlp_init([k, 8, 8, 1], "sigmoid", SplitMix64(seed), zero_last=False)
    return MLPProduct(with_random_biases(m, SplitMix64(seed + 1)), k, 1.0, 0.0, 0)


def _gather_gadgets():
    pair = _random_product_net(2, 70)
    tree = TreeProduct(4, [[("pair", pair), ("pair", _random_product_net(2, 72))],
                           [("pair", pair)]], 1.0, 0.0)
    return {"mlp-2": pair, "mlp-3": _random_product_net(3, 74),
            "identity": IdentityProduct(), "tree-4": tree,
            **{f"exact-{k}": ExactProduct(k) for k in (1, 2, 3, 4)}}


def _cycle_group(n, length):
    """The cyclic group of a length-cycle on the points 0..length-1 of n."""
    images = [(i + 1) % length if i < length else i for i in range(n)]
    return PermGroup.generate(n, [Permutation(images)])


@functools.cache
def _gather_classes(k):
    """(partition, class) pairs over one n: 8 rows per point (multisets and
    the zero tuple; 8 divides _ROW_BLOCK, so 128 points make exactly one
    block), 6 or 31 (blocks cut points), and more than _ROW_BLOCK (blocks
    inside one point)."""
    n, cut = {1: (1030, 30), 2: (47, 30), 3: (20, 5), 4: (15, 5)}[k]
    if k == 1:
        large = _cycle_group(n, n)
    elif k == 2:   # x -> x + 1, x -> 5x mod 47: 2-transitive, C(47, 2) pairs
        large = PermGroup.generate(n, [Permutation([(i + 1) % n for i in range(n)]),
                                       Permutation([5 * i % n for i in range(n)])])
    else:
        large = symmetric(n)
    classes = []
    for G in (_cycle_group(n, 7), _cycle_group(n, cut), large):
        P = poly_classes(G, k)
        classes.append((P, P.class_of(tuple(range(k)))))
    return classes


@pytest.mark.parametrize("B", [0, 1, 23, 128, 2048, 2049])
@pytest.mark.parametrize("name", ["mlp-2", "mlp-3", "identity", "tree-4",
                                  "exact-1", "exact-2", "exact-3", "exact-4"])
def test_class_rows_match_materialised_rows(name, B):
    gadget = _gather_gadgets()[name]
    classes = _gather_classes(gadget.k)
    stage = ClassSumStage([(P, ci, gadget) for P, ci in classes])
    per_point = [len(digits) for digits, *_ in stage.terms]
    assert per_point[0] == 8 and _ROW_BLOCK % per_point[1] and per_point[2] > _ROW_BLOCK
    T = SplitMix64(B).uniforms(-1, 1, B, classes[0][0].n)[:, :, None]
    if B > 1:
        T[1, :, 0] = -0.0    # a point of signed zeros
    got = stage.forward(T)
    want = _materialised_class_sums(stage, T)
    assert np.array_equal(got, want) and np.array_equal(np.signbit(got), np.signbit(want))


_TUPLE_ORACLE_GROUPS = {1: (cyclic(5), dihedral(6), symmetric(4)),
                        2: (cyclic(5), dihedral(6), symmetric(4)),
                        3: (cyclic(5), dihedral(4), symmetric(4)),
                        4: (cyclic(4), dihedral(4), symmetric(4))}


@pytest.mark.parametrize("B", [0, 1, 2048, 2049])
@pytest.mark.parametrize("name", ["mlp-2", "mlp-3", "identity", "tree-4",
                                  "exact-1", "exact-2", "exact-3", "exact-4"])
def test_multiset_class_sums_match_tuple_sums_named_groups(name, B):
    gadget = _gather_gadgets()[name]
    for G in _TUPLE_ORACLE_GROUPS[gadget.k]:
        P = poly_classes(G, gadget.k)
        terms = [(P, ci, gadget) for ci in range(P.num_classes)]
        _assert_close_to_tuple_sums(terms, B, G.n, seed=B + G.order)


@settings(max_examples=25, deadline=None)
@given(_groups(), st.sampled_from(["mlp-2", "mlp-3", "identity", "tree-4",
                                   "exact-1", "exact-2", "exact-3", "exact-4"]),
       st.sampled_from([0, 1, 2048, 2049]), st.integers(0, 2**32 - 1))
def test_multiset_class_sums_match_tuple_sums_random_groups(G, name, B, seed):
    gadget = _gather_gadgets()[name]
    P = poly_classes(G, gadget.k)
    classes = sorted({0, P.num_classes // 2, P.num_classes - 1})
    _assert_close_to_tuple_sums([(P, ci, gadget) for ci in classes], B, G.n, seed)


@functools.cache
def _trained_gadgets():
    return {f"trained-{k}": train_product_mlp(k, 1.0, 0.1, TrainConfig(seed=k))
            for k in (2, 3, 4)}


@pytest.mark.parametrize("name", ["mlp-2", "mlp-3", "identity", "tree-4", "exact-1",
                                  "exact-2", "exact-3", "exact-4", "exact-6",
                                  "trained-2", "trained-3", "trained-4"])
def test_gadgets_same_bits_for_every_column_order(name):
    gadgets = {**_gather_gadgets(), **_trained_gadgets(), "exact-6": ExactProduct(6)}
    gadget = gadgets[name]
    k = gadget.k
    rng = SplitMix64(80 + k)
    # random rows, rows with a zero of either sign, a repeated value, and
    # every row over {-0.0, 0.0, 0.5} for k <= 4
    Y = rng.uniforms(-1, 1, 300, k)
    Y[::5, rng.randint(k)] = -0.0
    Y[::7, 0] = 0.0
    Y[::11, k - 1] = Y[::11, 0]
    if k <= 4:
        Y = np.vstack([Y, list(itertools.product([-0.0, 0.0, 0.5], repeat=k))])
    want = gadget(Y)
    assert want.shape == (len(Y),)
    for perm in itertools.permutations(range(k)):
        got = gadget(Y[:, list(perm)])
        assert np.array_equal(got, want) and np.array_equal(np.signbit(got), np.signbit(want))


def test_class_sum_rows_one_per_multiset():
    # rows per point through the gadgets, the zero tuple not counted:
    # each class keeps one nondecreasing row per multiset, weighted by its
    # number of orderings, k! / (e_1! ... e_r!)
    def rows_per_point(G, k, classes):
        stage = ClassSumStage([(poly_classes(G, k), ci, ExactProduct(k)) for ci in classes])
        return sum(len(digits) - 1 for digits, *_ in stage.terms)

    P = poly_classes(symmetric(7), 2)
    assert rows_per_point(symmetric(7), 2, range(P.num_classes)) == 7 + 21   # 7 + 42 tuples
    P = poly_classes(dihedral(7), 3)
    assert rows_per_point(dihedral(7), 3, range(P.num_classes)) == 84        # 343 tuples
    P = poly_classes(symmetric(12), 6)
    e6 = P.class_of(tuple(range(6)))
    assert P.sizes()[e6] == 665_280
    assert rows_per_point(symmetric(12), 6, [e6]) == 924
    for G, k in ((cyclic(5), 3), (dihedral(4), 4), (symmetric(3), 5)):
        P = poly_classes(G, k)
        stage = ClassSumStage([(P, ci, ExactProduct(k)) for ci in range(P.num_classes)])
        for ci, (digits, mult, _g, outside) in enumerate(stage.terms):
            digits = digits[:-1]
            assert np.all(np.diff(digits, axis=1) >= 0)
            assert all(P.class_of(tuple(d)) == ci for d in digits)
            orderings = [math.factorial(k) // math.prod(
                math.factorial(c) for c in collections.Counter(d).values()) for d in digits.tolist()]
            assert mult.tolist() == orderings
            assert mult.sum() == P.sizes()[ci] and outside == G.n**k - P.sizes()[ci]
        assert sum(len(digits) - 1 for digits, *_ in stage.terms) == math.comb(G.n + k - 1, k)


@pytest.mark.parametrize("exact_mul", [False, True])
def test_approximate_checks_class_sum_memory_before_training(monkeypatch, exact_mul):
    # the poly_classes estimate (a few kB) fits, the class sums' (their
    # 2048 x 4 outputs and a block buffer) do not
    import ginet.orbits

    def no_training(*args, **kwargs):
        raise AssertionError("a gadget trained before the class-sum memory check")

    monkeypatch.setattr(ginet.net, "train_product_mlp", no_training)
    monkeypatch.setattr(ginet.orbits, "_PHYSICAL_MEMORY", 100_000)
    G = symmetric(3)
    p = Polynomial(3, {(2, 0, 0): 1.0, (0, 2, 0): 1.0, (0, 0, 2): 1.0})
    with pytest.raises(CapExceededError, match="the class sums of 1 terms on 2048 points "
                                               "would take an estimated"):
        approximate_polynomial(G, p, 0.1, exact_mul=exact_mul)
    monkeypatch.setattr(ginet.orbits, "_PHYSICAL_MEMORY", None)
    _net, report = approximate_polynomial(G, p, 0.1, exact_mul=True, eval_points=10)
    assert report.achieved_max_error <= 1e-12


def test_class_sum_memory_s12_distinct_triples():
    # the gadget's 2048 x 221 outputs (220 multisets of the 1320 ordered
    # triples, and the zero tuple) are the stage's one large array;
    # gathering all rows first took 3 times as much again
    G = symmetric(12)
    P = poly_classes(G, 3)
    ci = P.class_of((0, 1, 2))
    assert P.sizes()[ci] == 1320
    stage = ClassSumStage([(P, ci, ExactProduct(3))])
    assert len(stage.terms[0][0]) == 221
    T = SplitMix64(44).uniforms(-1, 1, 2048, 12)[:, :, None]
    tracemalloc.start()
    try:
        out = stage.forward(T)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert out.shape == (2048, 1)
    assert peak <= 1.5 * 2048 * 221 * 8


def test_fit_output_layer_memory():
    # one (4096, 64) hidden layer at a time, plus the fit's (4096, 65)
    # features with their ones column
    rng = SplitMix64(45)
    X = rng.uniforms(-1, 1, 4096, 2)
    y = np.prod(X, axis=1)
    net = ginet.net._product_net_init(2, rng)
    tracemalloc.start()
    try:
        ginet.net._fit_output_layer(net, X, y)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.any(net.weights[-1])
    assert peak <= 5 * 2**20


def test_forward_many_memory_s7():
    # the S7 network of the approx benchmark's trained job: gadgets for
    # degrees 1 and 2 run on 2048 points x 38 rows, 30 of them through the
    # degree-2 MLP (51 when it ran once per tuple); one call over all rows
    # held about 130 MB of (rows, 64) activations at once
    G = symmetric(7)
    rng = SplitMix64(42)
    p = Polynomial.constant(7, 0.1)
    for k in (1, 2):
        for b in basis_polynomials(G, k):
            p = p + b.polynomial.scale(rng.uniform(-0.3, 0.3))
    net, report = approximate_polynomial(G, p, 0.1, eval_points=0)
    assert [t["degree"] for t in report.terms] == [1, 2, 2]
    assert {t["gadget"]["kind"] for t in report.terms} == {"identity", "mlp"}
    X = SplitMix64(43).uniforms(-1, 1, 2048, 7)
    tracemalloc.start()
    try:
        out = net.forward_many(X)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert out.shape == (2048,)
    assert peak < 16 * 2**20


def test_approximate_exact_more_groups():
    from ginet.permgroup import dihedral, grid
    from ginet.polybasis import basis_polynomials, reynolds
    rng = SplitMix64(24)
    for G in (dihedral(4), grid((2, 3))):
        raw = Polynomial(G.n, {tuple(2 if j == 0 else (1 if j == 1 else 0)
                                     for j in range(G.n)): 1.5,
                               tuple(1 if j == 0 else 0
                                     for j in range(G.n)): -0.5})
        p = reynolds(raw, G)
        net, report = approximate_polynomial(G, p, 0.05, exact_mul=True,
                                             eval_points=300)
        assert report.achieved_max_error <= 1e-10
        assert net.max_invariance_deviation(rng, trials=20) <= 1e-9


def test_grad_check_relu_away_from_kinks():
    rng = SplitMix64(25)
    checked = 0
    for _ in range(10):
        m = mlp_init([3, 6, 6, 1], "relu", rng, zero_last=False)
        y = rng.uniforms(0.5, 1.5, 3)
        rep = grad_check(m, y, np.array([0.2]))
        if rep.nonsmooth:
            continue
        checked += 1
        assert rep.max_rel_error <= 1e-4
    assert checked >= 5


def test_mlp_train_reached_target_flag():
    rng = SplitMix64(26)
    X = rng.uniforms(-1, 1, 64, 2)
    W = np.array([[1.0, 2.0]])
    T = X @ W.T
    m = MLP([np.zeros((1, 2))], [np.zeros(1)])
    res = mlp_train(m, X, T, TrainConfig(epochs=50000, step=0.5,
                                         target_max_error=1e-8, check_every=50))
    assert res.reached_target
    assert res.epochs_run < 50000
