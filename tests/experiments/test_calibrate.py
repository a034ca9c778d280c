"""``estimate_f_star``: one fused forward/backward per L-BFGS evaluation."""

from __future__ import annotations

import numpy as np
from scipy.optimize import minimize

from repro.data.synthetic_mnist import load_synthetic_mnist
from repro.experiments.calibrate import estimate_f_star
from repro.experiments.config import ExperimentScale
from repro.fl.model import LogisticRegressionModel

SCALE = ExperimentScale(
    name="f-star",
    n_train=400,
    n_test=100,
    n_servers=4,
    max_rounds=10,
    target_accuracy=0.75,
    seed=0,
)


def _two_pass_f_star(train, scale, max_iterations):
    """The reference: loss and gradient from two separate forward passes."""
    model = LogisticRegressionModel(scale.model_config())

    def loss_and_grad(flat):
        model.set_parameters(flat)
        loss = model.loss(train.features, train.labels)
        grad = model.gradient_flat(train.features, train.labels)
        return loss, grad

    result = minimize(
        loss_and_grad,
        x0=np.zeros(model.config.n_parameters),
        jac=True,
        method="L-BFGS-B",
        options={"maxiter": max_iterations},
    )
    return float(result.fun)


def test_estimate_f_star_matches_two_pass_reference_bit_for_bit():
    train, _ = load_synthetic_mnist(n_train=SCALE.n_train, n_test=SCALE.n_test, seed=0)
    for max_iterations in (5, 200):
        fused = estimate_f_star(train, SCALE, max_iterations=max_iterations)
        assert fused == _two_pass_f_star(train, SCALE, max_iterations)


def test_estimate_f_star_lies_below_the_initial_loss():
    train, _ = load_synthetic_mnist(n_train=SCALE.n_train, n_test=SCALE.n_test, seed=0)
    f_star = estimate_f_star(train, SCALE)
    assert 0.0 < f_star < np.log(10)
