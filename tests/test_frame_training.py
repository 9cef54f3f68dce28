"""End-to-end training tests: solver mechanics and actual learning."""

import numpy as np
import pytest

from repro.frame.model_zoo import lenet
from repro.frame.solver import SGDSolver
from repro.io.dataset import SyntheticImageNet
from repro.utils.rng import seeded_rng


def small_lenet(batch=8, noise=0.3):
    src = SyntheticImageNet(
        num_classes=5, sample_shape=(1, 16, 16), noise=noise, seed=4
    )
    return lenet.build(
        batch_size=batch,
        num_classes=5,
        sample_shape=(1, 16, 16),
        source=src,
        rng=seeded_rng(99),
    )


class TestSolverMechanics:
    def test_lr_policies(self):
        net = small_lenet()
        s = SGDSolver(net, base_lr=0.1, lr_policy="step", gamma=0.5, stepsize=10)
        assert s.learning_rate(0) == pytest.approx(0.1)
        assert s.learning_rate(10) == pytest.approx(0.05)
        assert s.learning_rate(25) == pytest.approx(0.025)

        s = SGDSolver(net, base_lr=0.1, lr_policy="multistep", gamma=0.1, steps=[5, 15])
        assert s.learning_rate(4) == pytest.approx(0.1)
        assert s.learning_rate(5) == pytest.approx(0.01)
        assert s.learning_rate(20) == pytest.approx(0.001)

        s = SGDSolver(net, base_lr=1.0, lr_policy="poly", max_iter=100, power=2.0)
        assert s.learning_rate(0) == pytest.approx(1.0)
        assert s.learning_rate(50) == pytest.approx(0.25)
        assert s.learning_rate(100) == pytest.approx(0.0)

    def test_invalid_hyperparameters(self):
        net = small_lenet()
        with pytest.raises(ValueError):
            SGDSolver(net, base_lr=0.0)
        with pytest.raises(ValueError):
            SGDSolver(net, momentum=1.0)
        with pytest.raises(ValueError):
            SGDSolver(net, lr_policy="cosine")

    def test_momentum_accumulates_velocity(self):
        net = small_lenet()
        solver = SGDSolver(net, base_lr=0.01, momentum=0.9)
        solver.step(2)
        assert solver._velocity  # velocities exist after updates
        assert solver.iter == 2

    def test_weight_decay_shrinks_weights(self):
        # With zero gradient contribution (lr tiny) decay alone should act;
        # easier: compare norms with and without decay after a few steps.
        net_a = small_lenet()
        net_b = small_lenet()
        sa = SGDSolver(net_a, base_lr=0.01, momentum=0.0, weight_decay=0.0)
        sb = SGDSolver(net_b, base_lr=0.01, momentum=0.0, weight_decay=0.1)
        sa.step(3)
        sb.step(3)
        wa = np.linalg.norm(net_a.layer_by_name("conv1").weight.data)
        wb = np.linalg.norm(net_b.layer_by_name("conv1").weight.data)
        assert wb < wa

    def test_stats_recorded(self):
        net = small_lenet()
        solver = SGDSolver(net, base_lr=0.01)
        stats = solver.step(3)
        assert stats.iterations == 3
        assert len(stats.losses) == 3
        assert stats.simulated_time_s > 0


class TestLearning:
    def test_lenet_learns_synthetic_classes(self):
        """The whole stack must actually train: loss down, accuracy up."""
        net = small_lenet(batch=16, noise=0.2)
        solver = SGDSolver(net, base_lr=0.005, momentum=0.9)
        first = solver.step(5)
        last = solver.step(40)
        assert np.mean(last.losses[-5:]) < 0.5 * np.mean(first.losses[:5])
        # Accuracy layer tracks training batches.
        acc = float(net.blobs["accuracy"].data[0])
        assert acc > 0.6

    def test_training_is_deterministic(self):
        a = SGDSolver(small_lenet(), base_lr=0.01).step(5).losses
        b = SGDSolver(small_lenet(), base_lr=0.01).step(5).losses
        np.testing.assert_allclose(a, b, rtol=0, atol=0)
