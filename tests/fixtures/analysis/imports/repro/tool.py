"""Imports: each module-level name the module never reads is bad."""

from __future__ import annotations     # ok: a compiler directive

import json                            # bad: never read
import os.path                         # ok: binds os, read below
from typing import Dict, List          # bad: Dict (List is read)

import numpy as np                     # ok: read

from .base import Base as _Base        # bad: the alias is never read
from .base import Exported             # ok: listed in __all__

__all__ = ["helper", "Exported"]


def helper(items: List[int]) -> str:
    import sys                         # ok: function-level, not checked
    return os.path.join(*map(str, items)) + str(np.int64(0))
