"""Loss functions used by cascade distillation training (Eq. 1 of the paper).

The total CDT objective combines:

* :func:`cross_entropy` — the task loss ``L_ce(Q_i(w), label)`` applied to
  the network at every candidate bit-width, and
* :func:`mse_loss` — the distillation term ``L_mse(Q_i(w), SG(Q_j(w)))``
  pulling each bit-width's output toward every *higher* bit-width's
  (detached) output.
"""

from __future__ import annotations

import numpy as np

from .autograd import Tensor, ensure_tensor, make_op
from .ops import mean, sub

__all__ = [
    "cross_entropy",
    "mse_loss",
    "accuracy",
]


def cross_entropy(logits, labels) -> Tensor:
    """Mean cross-entropy between ``logits`` (N, K) and integer ``labels`` (N,).

    Softmax and the log-likelihood are fused so the backward pass is the
    textbook ``(softmax - onehot) / N`` — one kernel, numerically stable.
    """
    logits = ensure_tensor(logits)
    labels = np.asarray(labels.data if isinstance(labels, Tensor) else labels)
    labels = labels.astype(np.int64).reshape(-1)
    n, k = logits.shape
    shifted = logits.data - logits.data.max(axis=1, keepdims=True)
    log_z = np.log(np.exp(shifted).sum(axis=1, keepdims=True))
    log_probs = shifted - log_z
    nll = -log_probs[np.arange(n), labels].mean()
    probs = np.exp(log_probs)

    def backward(grad):
        g = probs.copy()
        g[np.arange(n), labels] -= 1.0
        return (g * (grad / n),)

    return make_op(np.asarray(nll, dtype=logits.dtype), (logits,), backward)


def mse_loss(prediction, target) -> Tensor:
    """Mean squared error over all elements.

    This is the distillation distance of Eq. 1; pass a detached target
    (``target.detach()``) to realise the stop-gradient operator ``SG``.
    """
    prediction, target = ensure_tensor(prediction), ensure_tensor(target)
    diff = sub(prediction, target)
    return mean(diff * diff)


def accuracy(logits, labels) -> float:
    """Top-1 accuracy in [0, 1] (not differentiable)."""
    logits = ensure_tensor(logits)
    labels = np.asarray(labels.data if isinstance(labels, Tensor) else labels)
    predictions = logits.data.argmax(axis=-1)
    return float((predictions == labels.reshape(-1)).mean())
