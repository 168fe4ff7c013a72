"""Cascade Distillation Training (CDT) — Eq. 1 of the paper.

CDT trains one shared-weight network to be accurate at *every* candidate
bit-width simultaneously.  Its total loss averages, over candidate
bit-widths ``i``, a per-width cascade loss::

    L_cas(Q_i) = L_ce(Q_i, label) + beta * sum_{j > i} L_mse(Q_i, SG(Q_j))

i.e. every bit-width distils from *all higher* bit-widths, with
stop-gradient (``SG``) on the teachers.  The cascade exploits the paper's
key observation: quantisation noise between *adjacent* bit-widths is
small, so a chain of nearby teachers transports the full-precision
behaviour down to 4 bits where a single 32->4 distillation step fails
(Fig. 2; reproduced in :mod:`repro.experiments.fig2`).

The module also provides the two losses the paper compares against in
Table I / Fig. 2:

* :class:`VanillaDistillation` — distil every width only from the highest
  one (the SP baseline's scheme),
* :class:`JointCrossEntropy` — no distillation at all, average CE across
  widths (the AdaBits-style objective).

Which quantiser each method pairs its loss with is declared in
:data:`repro.baselines.spnets.METHODS`.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

import numpy as np

from ..quant.layers import BitSpec
from ..quant.network import SwitchablePrecisionNetwork
from ..tensor import Tensor, cross_entropy, mse_loss

__all__ = [
    "SwitchableTrainingStrategy",
    "CascadeDistillation",
    "VanillaDistillation",
    "JointCrossEntropy",
]


class SwitchableTrainingStrategy:
    """Interface: one training-loss computation for an SP-Net mini-batch."""

    name = "base"

    def compute_loss(
        self,
        sp_net: SwitchablePrecisionNetwork,
        x: Tensor,
        labels: np.ndarray,
    ) -> Tuple[Tensor, Dict[BitSpec, float]]:
        """Return ``(total_loss, per_bit_ce)`` for one batch.

        ``per_bit_ce`` reports the plain cross-entropy per bit-width for
        logging; ``total_loss`` is what gets backpropagated.
        """
        raise NotImplementedError

    def _forward_all(self, sp_net, x) -> List[Tuple[BitSpec, Tensor]]:
        """Forward at every candidate bit-width, lowest precision first."""
        return list(sp_net.forward_all(x))


class CascadeDistillation(SwitchableTrainingStrategy):
    """The paper's CDT objective (Eq. 1): every bit-width distils, by MSE
    between raw logits, from every higher one.

    Parameters
    ----------
    beta:
        Distillation weight (``beta`` in Eq. 1).
    """

    name = "cdt"

    def __init__(self, beta: float = 1.0):
        if beta < 0:
            raise ValueError(f"beta must be >= 0, got {beta}")
        self.beta = beta

    def compute_loss(self, sp_net, x, labels):
        outputs = self._forward_all(sp_net, x)
        n = len(outputs)
        per_bit_ce: Dict[BitSpec, float] = {}
        total: Optional[Tensor] = None
        for i, (bits_i, out_i) in enumerate(outputs):
            ce = cross_entropy(out_i, labels)
            per_bit_ce[bits_i] = ce.item()
            cascade = ce
            for j in range(i + 1, n):
                _, out_j = outputs[j]
                # SG is realised by .detach(): teachers receive no
                # gradient from students' distillation terms.
                cascade = cascade + mse_loss(out_i, out_j.detach()) * self.beta
            total = cascade if total is None else total + cascade
        return total * (1.0 / n), per_bit_ce


class VanillaDistillation(SwitchableTrainingStrategy):
    """Distil every bit-width only from the single highest one.

    This is the scheme of the SP baseline [Guerra et al. 2020] and the
    "vanilla distillation" of Fig. 2 — it fails at 4-bit on MobileNetV2
    because the 32->4 quantisation-noise gap is too large to bridge in one
    hop.

    Parameters
    ----------
    beta:
        Distillation weight for the students' MSE-to-teacher terms.
    ce_on_students:
        When False, lower bit-widths receive *only* the distillation
        signal — the pure "only consider the distillation with 32-bit"
        setup the paper's Fig. 2 text describes, which is what makes
        vanilla distillation collapse at 4-bit.  True (default) adds the
        task CE at every width, the stronger variant used as the SP
        baseline in Tables I and IV.
    """

    name = "sp"

    def __init__(self, beta: float = 1.0, ce_on_students: bool = True):
        if beta < 0:
            raise ValueError(f"beta must be >= 0, got {beta}")
        self.beta = beta
        self.ce_on_students = ce_on_students

    def compute_loss(self, sp_net, x, labels):
        outputs = self._forward_all(sp_net, x)
        n = len(outputs)
        _, teacher = outputs[-1]
        teacher_detached = teacher.detach()
        per_bit_ce: Dict[BitSpec, float] = {}
        total: Optional[Tensor] = None
        for i, (bits_i, out_i) in enumerate(outputs):
            ce = cross_entropy(out_i, labels)
            per_bit_ce[bits_i] = ce.item()
            is_teacher = i == n - 1
            if is_teacher:
                term = ce
            elif self.ce_on_students:
                term = ce + mse_loss(out_i, teacher_detached) * self.beta
            else:
                term = mse_loss(out_i, teacher_detached) * self.beta
            total = term if total is None else total + term
        return total * (1.0 / n), per_bit_ce


class JointCrossEntropy(SwitchableTrainingStrategy):
    """Average plain CE over all bit-widths (AdaBits-style joint training).

    AdaBits [Jin et al. 2019] trains adaptive-bit networks without
    distillation; we reproduce its switchable-training essence (joint CE,
    shared weights, per-bit BN); its progressive freezing schedule is
    orthogonal and omitted.
    """

    name = "adabits"

    def compute_loss(self, sp_net, x, labels):
        outputs = self._forward_all(sp_net, x)
        per_bit_ce: Dict[BitSpec, float] = {}
        total: Optional[Tensor] = None
        for bits_i, out_i in outputs:
            ce = cross_entropy(out_i, labels)
            per_bit_ce[bits_i] = ce.item()
            total = ce if total is None else total + ce
        return total * (1.0 / len(outputs)), per_bit_ce

