"""Cascade distillation training: Eq. 1 semantics and strategy behaviour."""

import numpy as np
import pytest

from repro import rng as rng_mod
from repro.api.registry import ConfigError, lookup
from repro.core import (
    CascadeDistillation,
    JointCrossEntropy,
    VanillaDistillation,
)
from repro.nn import models
from repro.quant import SwitchableFactory, SwitchablePrecisionNetwork
from repro.tensor import Tensor


def make_net(bits=(4, 8, 32), num_classes=5):
    fac = SwitchableFactory(list(bits), quantizer="sbm")
    model = models.mobilenet_v2(num_classes=num_classes, setting="tiny",
                                factory=fac, width_mult=0.5)
    return SwitchablePrecisionNetwork(model, list(bits))


def batch(n=8, size=12, classes=5):
    g = np.random.default_rng(3)
    return (Tensor(g.normal(size=(n, 3, size, size)).astype(np.float32)),
            g.integers(0, classes, size=n))


class TestStrategyFactory:
    def test_names(self):
        assert lookup("strategies", "cdt").loss is CascadeDistillation
        assert lookup("strategies", "sp").loss is VanillaDistillation
        assert isinstance(lookup("strategies", "adabits").loss(1.0),
                          JointCrossEntropy)

    def test_unknown(self):
        with pytest.raises(ConfigError):
            lookup("strategies", "nope")

    def test_validation(self):
        with pytest.raises(ValueError):
            CascadeDistillation(beta=-1)
        with pytest.raises(ValueError):
            VanillaDistillation(beta=-0.5)


class TestLossComputation:
    def test_cdt_returns_per_bit_ce(self):
        sp = make_net()
        x, labels = batch()
        loss, per_bit = CascadeDistillation(beta=1.0).compute_loss(sp, x, labels)
        assert set(per_bit) == {4, 8, 32}
        assert np.isfinite(loss.item())

    def test_cdt_with_beta_zero_equals_joint_ce(self):
        sp = make_net()
        x, labels = batch()
        sp.model.eval()  # freeze BN statistics so both passes match
        cdt_loss, _ = CascadeDistillation(beta=0.0).compute_loss(sp, x, labels)
        joint_loss, _ = JointCrossEntropy().compute_loss(sp, x, labels)
        assert cdt_loss.item() == pytest.approx(joint_loss.item(), rel=1e-5)

    def test_cdt_loss_exceeds_joint_when_beta_positive(self):
        sp = make_net()
        x, labels = batch()
        sp.model.eval()
        cdt_loss, _ = CascadeDistillation(beta=5.0).compute_loss(sp, x, labels)
        joint_loss, _ = JointCrossEntropy().compute_loss(sp, x, labels)
        assert cdt_loss.item() > joint_loss.item()

    def test_cdt_equals_vanilla_for_two_bit_widths(self):
        """With exactly two candidates the cascade degenerates to vanilla."""
        sp = make_net(bits=(4, 32))
        x, labels = batch()
        sp.model.eval()
        a, _ = CascadeDistillation(beta=1.0).compute_loss(sp, x, labels)
        b, _ = VanillaDistillation(beta=1.0).compute_loss(sp, x, labels)
        assert a.item() == pytest.approx(b.item(), rel=1e-5)

    def test_cdt_differs_from_vanilla_for_three(self):
        sp = make_net(bits=(4, 8, 32))
        x, labels = batch()
        sp.model.eval()
        a, _ = CascadeDistillation(beta=1.0).compute_loss(sp, x, labels)
        b, _ = VanillaDistillation(beta=1.0).compute_loss(sp, x, labels)
        assert a.item() != pytest.approx(b.item(), rel=1e-6)


class TestStopGradient:
    def test_teacher_gradient_unchanged_by_distillation(self):
        """The SG operator: with CE removed, the highest bit-width's
        branch receives no gradient at all from the cascade terms."""
        sp = make_net(bits=(4, 32))
        x, labels = batch()

        # Pure distillation loss (beta>0, CE coefficient irrelevant:
        # compute full loss, then check BN gamma of the highest-bit BN
        # copies — reachable only through the 32-bit forward — have
        # gradients ONLY from their own CE term.
        strategy = CascadeDistillation(beta=1.0)
        loss, _ = strategy.compute_loss(sp, x, labels)
        sp.model.zero_grad()
        loss.backward()
        from repro.nn import SwitchableBatchNorm2d
        sbn = next(m for m in sp.model.modules()
                   if isinstance(m, SwitchableBatchNorm2d))
        grad_with_distill = sbn.bns[1].gamma.grad.copy()

        # Now compute only the joint-CE loss: the 32-bit branch gradient
        # must be (1/N x) identical, because distillation adds nothing to
        # the teacher.
        sp.model.zero_grad()
        joint, _ = JointCrossEntropy().compute_loss(sp, x, labels)
        joint.backward()
        grad_ce_only = sbn.bns[1].gamma.grad.copy()
        assert np.allclose(grad_with_distill, grad_ce_only, atol=1e-5)

    def test_student_gradient_changed_by_distillation(self):
        sp = make_net(bits=(4, 32))
        x, labels = batch()
        from repro.nn import SwitchableBatchNorm2d
        sbn = next(m for m in sp.model.modules()
                   if isinstance(m, SwitchableBatchNorm2d))

        strategy = CascadeDistillation(beta=5.0)
        loss, _ = strategy.compute_loss(sp, x, labels)
        sp.model.zero_grad()
        loss.backward()
        with_distill = sbn.bns[0].gamma.grad.copy()

        sp.model.zero_grad()
        joint, _ = JointCrossEntropy().compute_loss(sp, x, labels)
        joint.backward()
        ce_only = sbn.bns[0].gamma.grad.copy()
        assert not np.allclose(with_distill, ce_only, atol=1e-7)
