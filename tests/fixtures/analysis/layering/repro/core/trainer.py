"""Core (layer 2) reaching up into the rendering plane (layer 4)."""

from ..obs.views import WIDTH          # bad: upward import

RATE = WIDTH
