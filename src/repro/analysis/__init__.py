"""Static invariant analysis: machine-checked repo contracts.

The codebase's correctness rests on conventions that no single test
exercises end-to-end: deterministic reports must never read the wall
clock, the import graph must respect the plane layering
(core <- serve <- analysis/obs.views), and the tracer span vocabulary
must not drift between the planes that emit events and the planes that
render them.  Reviewer memory enforced all of that — until a PR forgot
(the policy-statefulness sweep was a convention violation that
shipped).

``repro check`` turns those conventions into rules.  The framework is
stdlib-only (``ast`` + file walking — importing it never pays for
numpy), organised as:

* :mod:`~repro.analysis.model` — the parsed-once project model: every
  module's AST, import edges (absolute + relative, module- and
  function-level), name-origin tables, and suppression comments;
* :mod:`~repro.analysis.findings` — :class:`Finding` records with
  rule id, severity, and root-relative ``path:line`` anchors;
* :mod:`~repro.analysis.checker` — the pluggable :class:`Checker`
  protocol; concrete rules are declared in
  :data:`repro.api.registry.CHECKERS` so the CLI lists them without
  importing this package;
* one module per rule — :mod:`~repro.analysis.determinism`,
  :mod:`~repro.analysis.layering`, :mod:`~repro.analysis.spans`;
* :mod:`~repro.analysis.report` — text / JSON reporters and the
  committed-baseline diff;
* :mod:`~repro.analysis.cli` — ``repro check`` argument plumbing.

A violation that is intentional is suppressed inline, next to the code
it blesses::

    start = wall()  # repro: allow[determinism] why

Suppressed findings stay visible in ``--json`` output; they just stop
failing the gate.
"""

from .checker import Checker, all_checkers, run_check
from .findings import Finding, Suppression
from .model import ModuleInfo, ProjectModel, load_project

__all__ = [
    "Checker",
    "Finding",
    "ModuleInfo",
    "ProjectModel",
    "Suppression",
    "all_checkers",
    "load_project",
    "run_check",
]
