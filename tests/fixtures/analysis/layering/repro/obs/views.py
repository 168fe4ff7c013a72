"""The rendering plane (layer 4); it imports nothing, so no second cycle."""

WIDTH = 48
