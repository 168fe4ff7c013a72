"""The console seam: the one module allowed to call print."""

import sys


def info(message):
    print(message)                     # ok: the seam itself


def error(message):
    print(message, file=sys.stderr)    # ok: the seam itself
