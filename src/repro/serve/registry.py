"""Named model registry backing the serving layer.

A :class:`ModelRegistry` maps model names to live
:class:`~repro.quant.SwitchablePrecisionNetwork` instances plus their
:class:`~repro.serve.checkpoint.SPNetConfig`.  Given a root directory it
also persists models as checkpoints (``<root>/<name>.npz`` +
``<root>/<name>.json``) and lazily materialises them on first ``get`` —
the pattern a multi-model server uses to keep its working set bounded
while switching between deployed networks.
"""

from __future__ import annotations

import os
from typing import Dict, List, Optional, Tuple

from ..quant import SwitchablePrecisionNetwork
from .checkpoint import SPNetConfig, load_checkpoint, save_checkpoint

__all__ = ["ModelRegistry"]


class ModelRegistry:
    """Name -> (SP-Net, config) store with optional checkpoint backing."""

    def __init__(self, root: Optional[str] = None):
        self.root = root
        self._live: Dict[str, Tuple[SwitchablePrecisionNetwork, SPNetConfig]] = {}
        if root:
            os.makedirs(root, exist_ok=True)

    # ------------------------------------------------------------------
    # Registration / lookup
    # ------------------------------------------------------------------
    def register(
        self,
        name: str,
        sp_net: SwitchablePrecisionNetwork,
        config: SPNetConfig,
        persist: bool = False,
    ) -> None:
        """Attach a live model under ``name``; optionally checkpoint it."""
        if (
            not name
            or "/" in name
            or os.sep in name
            or name in (".", "..")
            or name.endswith((".json", ".npz"))
        ):
            # Checkpoint suffixes are reserved: save_checkpoint strips
            # them, so "model.json" would silently alias "model" on disk.
            raise ValueError(f"invalid model name {name!r}")
        self._live[name] = (sp_net, config)
        if persist:
            self.save(name)

    def get(self, name: str) -> SwitchablePrecisionNetwork:
        """The live model, loading its checkpoint on first access."""
        return self.get_with_config(name)[0]

    def get_with_config(
        self, name: str
    ) -> Tuple[SwitchablePrecisionNetwork, SPNetConfig]:
        if name in self._live:
            return self._live[name]
        path = self._checkpoint_base(name)
        if path is None:
            raise KeyError(
                f"unknown model {name!r}; registered: {self.names()}"
            )
        sp_net, config = load_checkpoint(path)
        self._live[name] = (sp_net, config)
        return self._live[name]

    def config(self, name: str) -> SPNetConfig:
        return self.get_with_config(name)[1]

    def checkpoint_path(self, name: str) -> str:
        """The on-disk checkpoint base for ``name``, persisting if needed.

        A live-only model (never persisted) is checkpointed first when
        the registry has a root; without one there is nothing to
        rematerialise from, so the call fails rather than silently
        handing out the shared instance.  Replica materialization
        (:meth:`materialize`) resolves checkpoints through this path.
        """
        path = self._checkpoint_base(name)
        if path is None and name in self._live:
            if self.root is None:
                raise ValueError(
                    f"model {name!r} is live-only and the registry has no "
                    f"root directory — persist it (register(..., "
                    f"persist=True)) before materializing replicas"
                )
            self.save(name)
            path = self._checkpoint_base(name)
        if path is None:
            raise KeyError(
                f"unknown model {name!r}; registered: {self.names()}"
            )
        return path

    def materialize(
        self, name: str
    ) -> Tuple[SwitchablePrecisionNetwork, SPNetConfig]:
        """A FRESH, independently-owned instance of ``name``.

        Unlike :meth:`get` (which shares one cached live instance), every
        call rebuilds the model from its checkpoint, so fleet replicas
        each own a private network — per-replica bit-switching and
        weight-cache state never interfere.
        """
        return load_checkpoint(self.checkpoint_path(name))

    def evict(self, name: str) -> bool:
        """Drop the live instance (its checkpoint, if any, survives)."""
        return self._live.pop(name, None) is not None

    def names(self) -> List[str]:
        """Every known model: live instances plus on-disk checkpoints.

        A checkpoint only counts when both its files exist — the same
        predicate ``get`` uses — so ``name in registry`` never claims a
        model that ``get`` would refuse to load.
        """
        found = set(self._live)
        if self.root and os.path.isdir(self.root):
            for entry in os.listdir(self.root):
                name = entry[: -len(".json")]
                if entry.endswith(".json") and self._checkpoint_base(name):
                    found.add(name)
        return sorted(found)

    def __contains__(self, name: str) -> bool:
        return name in self.names()

    def __len__(self) -> int:
        return len(self.names())

    # ------------------------------------------------------------------
    # Persistence
    # ------------------------------------------------------------------
    def save(self, name: str) -> Tuple[str, str]:
        """Checkpoint the live model ``name`` under the registry root."""
        if self.root is None:
            raise ValueError("registry has no root directory to save into")
        if name not in self._live:
            raise KeyError(f"no live model {name!r} to save")
        sp_net, config = self._live[name]
        return save_checkpoint(sp_net, config, os.path.join(self.root, name))

    def _checkpoint_base(self, name: str) -> Optional[str]:
        if self.root is None:
            return None
        base = os.path.join(self.root, name)
        if os.path.exists(base + ".json") and os.path.exists(base + ".npz"):
            return base
        return None
