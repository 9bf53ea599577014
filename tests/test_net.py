import numpy as np
import pytest

from ginet.net import (
    ExactProduct,
    GInvariantNetwork,
    IdentityProduct,
    MLP,
    MLPStage,
    SumStage,
    TrainConfig,
    TrainingDivergedError,
    approximate_polynomial,
    build_term_network,
    build_unified,
    constant_network,
    grad_check,
    mlp_init,
    mlp_train,
    train_product_mlp,
)
from ginet.orbits import poly_classes
from ginet.permgroup import cyclic, symmetric
from ginet.polybasis import Polynomial, basis_polynomials
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


def test_mlp_forward_matches_naive_evaluator():
    rng = SplitMix64(2)
    for trial in range(20):
        widths = [3, 1 + rng.randint(5), 1 + rng.randint(5), 2]
        act = "sigmoid" if rng.randint(2) else "relu"
        m = mlp_init(widths, act, rng, zero_last=False)
        y = rng.uniforms(-2, 2, 3)
        assert np.allclose(m.forward(y), naive_mlp_eval(m, y), atol=1e-12)


def test_mlp_batch_matches_single():
    rng = SplitMix64(3)
    m = mlp_init([2, 8, 1], "sigmoid", rng, zero_last=False)
    Y = rng.uniforms(-1, 1, 5, 2)
    batch = m.forward(Y)
    for i in range(5):
        assert np.allclose(batch[i], m.forward(Y[i]))


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


def test_product_mlp_default_regression():
    # regression baseline: the default config comfortably beats 0.02 on
    # the held-out grid (fit quality frozen at ~6e-4 for seed 0)
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
    runs = [approximate_polynomial(G, p, 0.05, cfg=TrainConfig(seed=4),
                                   eval_points=500)[1].to_dict()
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
    _net, report = approximate_polynomial(G, p, 0.05, exact_mul=True, eval_points=50)
    assert len(report.terms) == len(terms) == 7
    assert sorted(calls) == [1, 2, 3]
    assert report.achieved_max_error <= 1e-10


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
