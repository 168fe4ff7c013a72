"""Core (layer 2) reaching up into the analysis plane (layer 4)."""

from ..analysis import alpha          # bad: upward import

RATE = alpha.A
