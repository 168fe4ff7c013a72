"""Prints: every call of the builtin outside obs/console.py is bad."""

import builtins
from builtins import print as say

from .obs.console import info


def report(loss, table):
    print(f"loss {loss}")              # bad: bare print
    builtins.print(loss)               # bad: print through its module
    say(loss)                          # bad: print under an alias
    info(f"loss {loss}")               # ok: through the seam
    table.print()                      # ok: a method, not the builtin
    return "print(loss)"               # ok: a string, not a call
