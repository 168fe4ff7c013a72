"""Deterministic plane: every wall-clock / global-RNG idiom is bad."""

import random
import time
from time import perf_counter

import numpy as np

T0 = time.time()                       # bad: wall clock
TICK = perf_counter()                  # bad: from-import resolves too
CLOCK = time.monotonic                 # bad: bare reference, not a call
DRAW = np.random.rand(3)               # bad: numpy global RNG
COIN = random.random()                 # bad: stdlib global singleton
GEN = np.random.default_rng()          # bad: OS-entropy seed

SEEDED = np.random.default_rng(7)      # ok: explicit seed
LOCAL = random.Random(3)               # ok: seeded instance
NOW = time.time()  # repro: allow[determinism] bad: no comment mutes a rule
