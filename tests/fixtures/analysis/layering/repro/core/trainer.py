"""Core (layer 2) reaching up into the workload lab (layer 4)."""

from ..workload import alpha          # bad: upward import

RATE = alpha.A
