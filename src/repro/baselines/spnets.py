"""The training methods of Tables I-IV: one table of (loss, quantizer) pairs.

A method is the loss the shared weights are trained under plus the
quantiser its layers use.  Each pairing is declared once, in
:data:`METHODS`, and :func:`train_method` trains any of them:

==============  =====================================  =========  ===========
Name            Loss (:mod:`repro.core.cdt`)           Quantizer  Nets
==============  =====================================  =========  ===========
cdt (proposed)  :class:`CascadeDistillation`, Eq. 1    sbm        one, shared
sp [5]          :class:`VanillaDistillation`           dorefa     one, shared
adabits [4]     :class:`JointCrossEntropy`             dorefa     one, shared
sbm [18]        :class:`JointCrossEntropy`             sbm        one per bit
==============  =====================================  =========  ===========

The baselines keep their published quantisers: SP-Nets (Guerra et al.,
arXiv:2002.02815) and AdaBits/Any-Precision quantise DoReFa-style.  So a
Table I margin mixes loss and quantiser; pass ``quantizer=`` to hold the
quantiser fixed and compare losses alone.

Every method accepts a ``model_builder(factory) -> Module`` so the same
topology (MobileNetV2, ResNet-38/74/18, or a NAS-derived network) runs
under every method, as in the paper's ablations.
"""

from __future__ import annotations

from typing import Callable, Dict, NamedTuple, Optional, Sequence, Union

from ..core.cdt import (
    CascadeDistillation,
    JointCrossEntropy,
    SwitchableTrainingStrategy,
    VanillaDistillation,
)
from ..core.trainer import SwitchableTrainer, TrainConfig, evaluate_all_bits
from ..data.dataset import Dataset
from ..nn.module import Module
from ..quant.factory import SwitchableFactory
from ..quant.layers import BitSpec
from ..quant.network import SwitchablePrecisionNetwork

__all__ = [
    "METHODS",
    "Method",
    "ModelBuilder",
    "TrainedSPNet",
    "train_method",
]

ModelBuilder = Callable[[SwitchableFactory], Module]


class Method(NamedTuple):
    """A training method: ``loss(beta)`` builds the strategy, and
    ``independent`` trains one single-width net per bit-width instead of
    one shared net."""

    loss: Callable[[float], SwitchableTrainingStrategy]
    quantizer: str
    independent: bool = False


def _joint_ce(beta: float) -> JointCrossEntropy:
    """Joint CE distils nothing, so ``beta`` has no term to weight."""
    return JointCrossEntropy()


METHODS: Dict[str, Method] = {
    "cdt": Method(CascadeDistillation, "sbm"),
    "sp": Method(VanillaDistillation, "dorefa"),
    "adabits": Method(_joint_ce, "dorefa"),
    "sbm": Method(_joint_ce, "sbm", independent=True),
}


class TrainedSPNet:
    """Result bundle: the trained network and its test accuracies.

    For an independent method ``sp_net`` is the last bit-width's net.
    """

    def __init__(self, sp_net: SwitchablePrecisionNetwork,
                 accuracies: Dict[BitSpec, float], method):
        self.sp_net = sp_net
        self.accuracies = accuracies
        self.method = method

    def __repr__(self) -> str:
        accs = ", ".join(f"{b}: {a:.3f}" for b, a in self.accuracies.items())
        return f"TrainedSPNet({self.method}; {accs})"


def train_method(
    method: Union[str, Method],
    model_builder: ModelBuilder,
    bit_widths: Sequence[BitSpec],
    train_set: Dataset,
    test_set: Dataset,
    config: Optional[TrainConfig] = None,
    *,
    quantizer: Optional[str] = None,
    beta: float = 1.0,
) -> TrainedSPNet:
    """Train ``method`` (a :data:`METHODS` name or a :class:`Method`) and
    evaluate it at every bit-width.

    ``quantizer`` overrides the method's paired quantiser; ``beta`` weighs
    the distillation terms of the losses that have them.
    """
    entry = METHODS[method] if isinstance(method, str) else method
    quantizer = quantizer or entry.quantizer
    groups = ([[bits] for bits in bit_widths] if entry.independent
              else [list(bit_widths)])
    accuracies: Dict[BitSpec, float] = {}
    for bits in groups:
        factory = SwitchableFactory(bits, quantizer=quantizer)
        sp_net = SwitchablePrecisionNetwork(model_builder(factory), bits)
        SwitchableTrainer(sp_net, entry.loss(beta), config).fit(train_set)
        accuracies.update(evaluate_all_bits(sp_net, test_set))
    return TrainedSPNet(sp_net, accuracies, method)
