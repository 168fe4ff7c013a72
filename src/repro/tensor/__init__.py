"""NumPy reverse-mode autograd engine: the substrate every model runs on.

Public surface::

    from repro.tensor import Tensor, no_grad
    from repro.tensor import ops          # elementwise / reductions / softmax
    from repro.tensor import conv2d, avg_pool2d, batch_norm2d
    from repro.tensor import cross_entropy, mse_loss
    from repro.tensor import straight_through   # quantiser STE
"""

from .autograd import Tensor, ensure_tensor, is_grad_enabled, no_grad, unbroadcast
from . import ops  # noqa: F401  (imports register Tensor operator dunders)
from .ops import (
    concat,
    log_softmax,
    pad2d,
    relu,
    relu6,
    sigmoid,
    softmax,
    tanh,
    where,
)
from .conv import (
    avg_pool2d,
    col2im,
    conv2d,
    conv_output_size,
    fast_conv,
    fast_conv_enabled,
    global_avg_pool2d,
    im2col,
    max_pool2d,
)
from .norm import batch_norm2d
from .losses import accuracy, cross_entropy, mse_loss
from .ste import round_ste, straight_through, straight_through_t
from .gradcheck import check_gradients, numerical_gradient

__all__ = [
    "Tensor",
    "ensure_tensor",
    "no_grad",
    "is_grad_enabled",
    "unbroadcast",
    "ops",
    "concat",
    "log_softmax",
    "pad2d",
    "relu",
    "relu6",
    "sigmoid",
    "softmax",
    "tanh",
    "where",
    "avg_pool2d",
    "col2im",
    "conv2d",
    "conv_output_size",
    "fast_conv",
    "fast_conv_enabled",
    "global_avg_pool2d",
    "im2col",
    "max_pool2d",
    "batch_norm2d",
    "accuracy",
    "cross_entropy",
    "mse_loss",
    "round_ste",
    "straight_through",
    "straight_through_t",
    "check_gradients",
    "numerical_gradient",
]
