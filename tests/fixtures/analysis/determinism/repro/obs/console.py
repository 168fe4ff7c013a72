"""The console seam: the allowlist makes wall clocks fine here."""

import time

START = time.time()
