"""Network-level switchable-precision control.

An SP-Net is an ordinary model whose precision-sensitive layers respond to
``set_bitwidth``.  :class:`SwitchablePrecisionNetwork` packages a model +
candidate set, flips every such layer at once, and provides the
conveniences the trainers and experiment harness rely on (iterate
bit-widths, temporarily switch, query the bottleneck bit).  It remembers
the bit-width it set last and skips a switch to it, so a wrapped model's
layers are switched through the wrapper only; a layer switched behind
its back keeps that setting until the wrapper next switches.
"""

from __future__ import annotations

import contextlib
from typing import Iterator, Sequence

from ..nn.module import Module
from ..tensor import Tensor
from .layers import BitSpec, _SwitchableMixin, normalize_bits

__all__ = [
    "collect_switchable_layers",
    "SwitchablePrecisionNetwork",
    "sort_bitwidths",
]


def collect_switchable_layers(model: Module) -> tuple:
    """All descendants of ``model`` exposing a callable ``set_bitwidth``.

    One traversal of the module tree; :class:`SwitchablePrecisionNetwork`
    caches the result so the N bit-width switches of every CDT batch cost
    N short loops instead of N full tree walks.
    """
    layers = []
    for module in model.modules():
        if module is model:
            continue
        setter = getattr(module, "set_bitwidth", None)
        if callable(setter):
            layers.append(module)
    return tuple(layers)


def sort_bitwidths(bit_widths: Sequence[BitSpec]) -> list:
    """Sort candidate bit-widths from lowest to highest effective precision.

    Pairs sort by ``weight_bits + activation_bits`` then weight bits; this
    ordering defines "higher bit-width" for the cascade distillation
    direction (Eq. 1 distills each width from all *higher* ones).
    """

    def key(bits: BitSpec):
        w, a = normalize_bits(bits)
        return (w + a, w, a)

    return sorted(bit_widths, key=key)


class SwitchablePrecisionNetwork(Module):
    """A model plus its candidate bit-width set.

    Thin wrapper used by the trainers: it owns no parameters of its own,
    simply delegating to the wrapped model, but pins down the candidate
    set and provides ergonomic switching.
    """

    def __init__(self, model: Module, bit_widths: Sequence[BitSpec]):
        super().__init__()
        if not bit_widths:
            raise ValueError("bit_widths must be non-empty")
        self.model = model
        self.bit_widths = tuple(sort_bitwidths(bit_widths))
        # Collected once, then kept fresh via the global structure epoch:
        # the trainers switch bit-widths N times per batch, and re-walking
        # the module tree each time dominated set_bitwidth's cost.  The
        # epoch comparison in _switchable_layers makes the cache
        # self-invalidating under model surgery (module added/replaced
        # anywhere), at the cost of one integer compare per switch.
        self._refresh_switchable()
        # The bits set last and the structure epoch they were set at.
        self._active = self._switched_epoch = None
        if not self._switchable:
            raise ValueError(
                "model has no switchable layers; build it with a "
                "SwitchableFactory before wrapping"
            )
        # Leave the network in its highest precision by default.
        self.set_bitwidth(self.bit_widths[-1])

    def _refresh_switchable(self) -> None:
        """Re-scan the wrapped model after structural changes."""
        self._switchable = collect_switchable_layers(self.model)
        self._structure_epoch = Module.structure_epoch()

    def _switchable_layers(self) -> tuple:
        """Cached switchable-layer list, re-scanned after model surgery."""
        if self._structure_epoch != Module.structure_epoch():
            self._refresh_switchable()
        # Checked on every switch (not only right after a re-scan) so the
        # error keeps firing instead of degrading into a silent no-op.
        if not self._switchable:
            raise RuntimeError(
                "model surgery removed every switchable layer; "
                "a SwitchablePrecisionNetwork needs at least one"
            )
        return self._switchable

    @property
    def lowest(self) -> BitSpec:
        """The bottleneck bit-width (Eq. 2 updates architectures on it)."""
        return self.bit_widths[0]

    @property
    def highest(self) -> BitSpec:
        return self.bit_widths[-1]

    def set_bitwidth(self, bits: BitSpec) -> None:
        # Most serving batches and every eval batch run at the bits the
        # network already has: with no model surgery since they were set,
        # every layer is still at ``bits`` and there is nothing to switch.
        epoch = Module.structure_epoch()
        if bits == self._active and epoch == self._switched_epoch:
            return
        if bits not in self.bit_widths:
            raise ValueError(f"{bits} not in candidate set {self.bit_widths}")
        for layer in self._switchable_layers():
            layer.set_bitwidth(bits)
        self._active, self._switched_epoch = bits, epoch

    @contextlib.contextmanager
    def at(self, bits: BitSpec):
        """Temporarily run the network at ``bits`` (restores previous)."""
        previous = self._active
        self.set_bitwidth(bits)
        try:
            yield self
        finally:
            self.set_bitwidth(previous)

    def drop_stale_weights(self) -> None:
        """Free every layer's quantised weights cached before an update."""
        for layer in self._switchable_layers():
            if isinstance(layer, _SwitchableMixin):
                layer.drop_stale_weights()

    def forward(self, x: Tensor, bits: BitSpec = None) -> Tensor:
        if bits is not None:
            self.set_bitwidth(bits)
        return self.model(x)

    def forward_all(self, x: Tensor) -> Iterator:
        """Yield ``(bits, logits)`` for every candidate, lowest first."""
        for bits in self.bit_widths:
            self.set_bitwidth(bits)
            yield bits, self.model(x)
