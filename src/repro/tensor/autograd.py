"""Reverse-mode automatic differentiation on NumPy arrays.

This module is the computational substrate for the whole reproduction: the
paper trains switchable-precision networks with PyTorch, and this engine
stands in for it.  It implements a define-by-run tape: every
differentiable operation creates a new :class:`Tensor` holding a
backward closure, and :meth:`Tensor.backward` replays the closures in
reverse topological order.

A graph can be backpropagated once, as under PyTorch's default
``retain_graph=False``: as :meth:`Tensor.backward` runs each node's
closure it drops the closure and the node's parent links, so every
activation is freed once the last closure that holds it has run, even
while the caller still holds the loss.  A second backward that reaches a
consumed node raises :class:`RuntimeError`; run the forward pass again
to build a new graph.  Leaves (parameters, inputs) are never consumed,
so their gradients accumulate over any number of graphs.

Only the features the reproduction needs are implemented, but those are
implemented fully and are gradient-checked in ``tests/test_tensor_*``:

* broadcasting binary arithmetic,
* matmul / conv2d (with groups, so depthwise convolutions work),
* batch normalisation with batch statistics,
* reductions, softmax and the losses used by cascade distillation,
* straight-through estimators for quantisers (identity gradient).
"""

from __future__ import annotations

import contextlib
from typing import Callable, Iterable, Optional, Sequence, Union

import numpy as np

__all__ = [
    "Tensor",
    "ensure_tensor",
    "no_grad",
    "is_grad_enabled",
    "unbroadcast",
]

ArrayLike = Union[np.ndarray, float, int, Sequence]

_GRAD_ENABLED = True


@contextlib.contextmanager
def no_grad():
    """Context manager disabling graph construction (like ``torch.no_grad``).

    Used by evaluation loops and by the quantisers when computing scale
    factors that must not be differentiated through.
    """
    global _GRAD_ENABLED
    previous = _GRAD_ENABLED
    _GRAD_ENABLED = False
    try:
        yield
    finally:
        _GRAD_ENABLED = previous


def is_grad_enabled() -> bool:
    """Return whether new operations will be recorded on the tape."""
    return _GRAD_ENABLED


def unbroadcast(grad: np.ndarray, shape: tuple) -> np.ndarray:
    """Sum ``grad`` down to ``shape``, undoing NumPy broadcasting.

    If an operand of shape ``shape`` was broadcast up to ``grad.shape``
    during the forward pass, the chain rule requires summing the incoming
    gradient over every broadcast axis.
    """
    if grad.shape == shape:
        return grad
    # Sum over leading axes added by broadcasting.
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    # Sum over axes that were size-1 in the original shape.
    axes = tuple(i for i, dim in enumerate(shape) if dim == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad.reshape(shape)


class Tensor:
    """A NumPy array plus gradient bookkeeping.

    Parameters
    ----------
    data:
        Array (or scalar / nested sequence) holding the value.  Integer
        inputs are kept as-is (useful for label tensors); floating inputs
        keep their dtype.
    requires_grad:
        Whether gradients should be accumulated into :attr:`grad` during
        :meth:`backward`.
    """

    __slots__ = (
        "data", "grad", "requires_grad", "_backward", "_parents", "name",
        "_version", "__weakref__",
    )

    def __init__(
        self,
        data: ArrayLike,
        requires_grad: bool = False,
        _parents: tuple = (),
        name: Optional[str] = None,
    ):
        if isinstance(data, Tensor):  # defensive: unwrap accidental nesting
            data = data.data
        if isinstance(data, np.generic):
            # NumPy scalar (e.g. the result of ndarray.sum()): keep dtype.
            data = np.asarray(data)
        elif not isinstance(data, np.ndarray):
            # Python scalars / sequences default to float32, the library's
            # working precision; pass an ndarray to choose another dtype.
            data = np.asarray(data, dtype=np.float32)
        self.data = data
        self.requires_grad = bool(requires_grad) and _GRAD_ENABLED
        self.grad: Optional[np.ndarray] = None
        self._backward: Optional[Callable[[np.ndarray], None]] = None
        self._parents = _parents
        self.name = name
        self._version = 0

    # ------------------------------------------------------------------
    # Introspection helpers
    # ------------------------------------------------------------------
    @property
    def shape(self) -> tuple:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    @property
    def dtype(self):
        return self.data.dtype

    def __len__(self) -> int:
        return len(self.data)

    @property
    def version(self) -> int:
        """Monotonic counter of in-place writes to :attr:`data`.

        Writers that mutate ``data`` in place (optimiser steps,
        ``load_state_dict``) must call :meth:`bump_version` afterwards;
        derived caches (e.g. the quantised-weight cache in
        :mod:`repro.quant.layers`) key on ``(..., version)`` so they are
        recomputed exactly once per write instead of once per read.
        """
        return self._version

    def bump_version(self) -> None:
        """Mark :attr:`data` as mutated, invalidating value caches."""
        self._version += 1

    def __repr__(self) -> str:
        grad_note = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor(shape={self.data.shape}{grad_note})"

    def numpy(self) -> np.ndarray:
        """Return the underlying array (not a copy)."""
        return self.data

    def item(self) -> float:
        """Return the value of a single-element tensor as a Python float."""
        return float(self.data.reshape(-1)[0])

    def detach(self) -> "Tensor":
        """Return a new tensor sharing data but cut from the graph.

        This is the ``SG`` (stop-gradient) operator of Eq. 1 in the paper:
        distillation targets from higher bit-widths are detached so that
        the teacher branch receives no gradient from the student's loss.
        """
        return Tensor(self.data, requires_grad=False)

    def copy(self) -> "Tensor":
        """Return a graph-detached deep copy."""
        return Tensor(self.data.copy(), requires_grad=False)

    # ------------------------------------------------------------------
    # Autograd
    # ------------------------------------------------------------------
    def _accumulate(self, grad: np.ndarray) -> None:
        if self.grad is None:
            self.grad = grad.astype(self.data.dtype, copy=True)
        else:
            self.grad += grad

    def backward(self, grad: Optional[np.ndarray] = None) -> None:
        """Backpropagate from this tensor through the recorded graph.

        The graph is freed as it is walked: once a node's backward
        closure has run, the node drops the closure and its parent links.
        So a graph can be backpropagated once.  A later ``backward`` that
        reaches a consumed node, from this tensor again or from a new
        root built on any of its non-leaf tensors, raises
        :class:`RuntimeError`.  Leaf tensors keep accumulating into
        :attr:`grad` across graphs.

        Parameters
        ----------
        grad:
            Gradient of the final objective w.r.t. this tensor.  Defaults
            to 1 for scalar tensors (the usual loss case).
        """
        if grad is None:
            if self.data.size != 1:
                raise ValueError(
                    "backward() without an explicit gradient is only valid "
                    f"for scalar tensors, got shape {self.data.shape}"
                )
            grad = np.ones_like(self.data)
        grad = np.asarray(grad, dtype=self.data.dtype)

        order = _topological_order(self)
        # Keyed by id: every key is a parent of a node already run, and
        # parents come later in ``order``, so ``order`` still holds each
        # keyed tensor and no id can be reused while it is a key.
        grads: dict[int, np.ndarray] = {id(self): grad}
        for i, node in enumerate(order):
            # Drop the list's reference, so a node (and what its closure
            # holds) dies once the last closure that holds it has run.
            order[i] = None
            node_grad = grads.pop(id(node), None)
            if node_grad is None:
                continue
            if node.requires_grad and node._backward is None:
                # Leaf tensor: accumulate into .grad.
                node._accumulate(node_grad)
            if node._backward is not None:
                node._backward_dispatch(node_grad, grads)
                node._backward = _consumed_backward
                node._parents = ()

    def _backward_dispatch(self, node_grad: np.ndarray, grads: dict) -> None:
        """Run this node's backward closure, accumulating parent grads."""
        parent_grads = self._backward(node_grad)
        if parent_grads is None:
            return
        for parent, pgrad in zip(self._parents, parent_grads):
            if pgrad is None or not isinstance(parent, Tensor):
                continue
            if not parent.requires_grad:
                continue
            key = id(parent)
            if key in grads:
                grads[key] = grads[key] + pgrad
            else:
                grads[key] = pgrad

    def zero_grad(self) -> None:
        """Clear the accumulated gradient."""
        self.grad = None


def _consumed_backward(grad: np.ndarray) -> None:
    """Stand-in for a backward closure that has already run."""
    raise RuntimeError(
        "backward() reached a tensor whose graph was already backpropagated "
        "and freed; a graph can be backpropagated once, so run the forward "
        "pass again to build a new one"
    )


def _topological_order(root: Tensor) -> list:
    """Return tensors reachable from ``root`` in reverse topological order."""
    order: list = []
    visited: set = set()
    stack = [(root, False)]
    while stack:
        node, processed = stack.pop()
        if processed:
            order.append(node)
            continue
        if id(node) in visited:
            continue
        visited.add(id(node))
        stack.append((node, True))
        for parent in node._parents:
            if isinstance(parent, Tensor) and id(parent) not in visited:
                stack.append((parent, False))
    order.reverse()
    return order


def ensure_tensor(value: ArrayLike) -> Tensor:
    """Wrap ``value`` in a :class:`Tensor` if it is not one already."""
    if isinstance(value, Tensor):
        return value
    return Tensor(value)


def make_op(
    out_data: np.ndarray,
    parents: Iterable,
    backward: Callable[[np.ndarray], tuple],
) -> Tensor:
    """Create the output tensor of a differentiable operation.

    ``backward`` receives the gradient w.r.t. the output and must return a
    tuple of gradients aligned with ``parents``.  A ``None`` entry means
    "no gradient": an op whose backward is costly per operand (conv2d,
    ``mul``, ``matmul``) reads each parent's ``requires_grad`` when it is
    recorded and returns ``None`` for the ones that need none, so a frozen
    weight or an input image costs no backward work.
    Graph edges are only recorded while gradients are enabled and at least
    one parent requires them; otherwise the result is a detached tensor.
    A no-grad call returns it at once: it builds no parents tuple, scans
    no parent and stores no closure, which keeps inference loops
    allocation-light.
    """
    if not _GRAD_ENABLED:
        return Tensor(out_data)
    parents = tuple(parents)
    if not any(isinstance(p, Tensor) and p.requires_grad for p in parents):
        return Tensor(out_data)
    out = Tensor(out_data, requires_grad=True, _parents=parents)
    out._backward = backward
    return out
