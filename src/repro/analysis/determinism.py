"""Rule ``determinism``: deterministic planes must not read wall clocks.

The simulator, pipeline, and every report they write are
byte-identical across runs *because* nothing in those paths reads
``time.time``/``perf_counter`` or draws from an unseeded RNG.  This rule
machine-checks that:

* **banned everywhere** outside the allowlist (``repro.obs.console``
  and ``repro.obs.wallclock`` — the sanctioned seams — and the analyzer
  itself): any reference to a wall-clock callable (``time.time``,
  ``time.monotonic``, ``time.perf_counter``, ``datetime.now``, ...),
  the stdlib ``random`` module's global-singleton functions, numpy's
  legacy global RNG (``np.random.rand`` et al., ``np.random.seed``),
  and zero-argument ``np.random.default_rng()`` (entropy from the OS);
* **strict virtual planes** (``repro.serve``): even the blessed
  :func:`repro.obs.wallclock.wall_clock_s` seam is banned — these
  modules run on the simulation clock only and take any clock they
  need as a parameter.

References count, not just calls: passing ``time.monotonic`` as a clock
callable leaks wall time exactly like calling it.  An intentional site
carries an inline ``# repro: allow[determinism]`` suppression with the
reason.
"""

from __future__ import annotations

import ast
from typing import Iterator, Sequence, Tuple

from .checker import Checker
from .findings import Finding
from .model import ModuleInfo, ProjectModel, resolve_dotted

__all__ = ["DeterminismChecker"]

# Wall-clock callables: any resolved reference to one of these is a
# nondeterminism leak (the value differs run to run).
BANNED_WALL_CLOCK = frozenset({
    "time.time",
    "time.time_ns",
    "time.monotonic",
    "time.monotonic_ns",
    "time.perf_counter",
    "time.perf_counter_ns",
    "time.process_time",
    "time.process_time_ns",
    "datetime.datetime.now",
    "datetime.datetime.utcnow",
    "datetime.datetime.today",
    "datetime.date.today",
})

# numpy's legacy global-singleton RNG surface: unseeded by construction
# (module state, not an injected Generator).
NP_GLOBAL_RNG = frozenset({
    "beta", "binomial", "bytes", "chisquare", "choice", "dirichlet",
    "exponential", "gamma", "geometric", "gumbel", "laplace", "logistic",
    "lognormal", "multinomial", "multivariate_normal", "normal",
    "pareto", "permutation", "poisson", "rand", "randint", "randn",
    "random", "random_integers", "random_sample", "ranf", "rayleigh",
    "sample", "seed", "shuffle", "standard_cauchy",
    "standard_exponential", "standard_gamma", "standard_normal",
    "standard_t", "triangular", "uniform", "vonmises", "wald",
    "weibull", "zipf",
})

# stdlib ``random`` names that are fine to reference: classes you
# instantiate with an explicit seed, not the global singleton.
STDLIB_RANDOM_OK = frozenset({"Random", "SystemRandom"})

DEFAULT_ALLOWLIST = (
    "repro.obs.console",
    "repro.obs.wallclock",
    "repro.analysis",
)

DEFAULT_STRICT_VIRTUAL = ("repro.serve",)

WALLCLOCK_SEAM = "repro.obs.wallclock.wall_clock_s"


def _has_prefix(name: str, prefixes: Sequence[str]) -> bool:
    return any(
        name == p or name.startswith(p + ".") for p in prefixes
    )


class DeterminismChecker(Checker):
    rule = "determinism"
    severity = "error"
    description = (
        "no wall clocks or unseeded RNGs outside the sanctioned seams; "
        "serve stays virtual-clock only"
    )

    def __init__(
        self,
        allowlist: Sequence[str] = DEFAULT_ALLOWLIST,
        strict_virtual: Sequence[str] = DEFAULT_STRICT_VIRTUAL,
        seam: str = WALLCLOCK_SEAM,
    ):
        self.allowlist = tuple(allowlist)
        self.strict_virtual = tuple(strict_virtual)
        self.seam = seam

    def check(self, project: ProjectModel) -> Iterator[Finding]:
        for module in project:
            if _has_prefix(module.name, self.allowlist):
                continue
            strict = _has_prefix(module.name, self.strict_virtual)
            yield from self._check_module(module, strict)

    # ------------------------------------------------------------------
    def _check_module(
        self, module: ModuleInfo, strict: bool
    ) -> Iterator[Finding]:
        for node, dotted in _references(module):
            problem = self._classify(node, dotted, strict)
            if problem:
                yield self.finding(module, node.lineno, problem)

    def _classify(self, node, dotted: str, strict: bool) -> str:
        if dotted in BANNED_WALL_CLOCK:
            return (
                f"wall-clock reference {dotted} in a deterministic "
                f"plane; take a clock parameter or use the "
                f"repro.obs.wallclock seam"
            )
        if dotted.startswith("numpy.random."):
            tail = dotted[len("numpy.random."):]
            if tail in NP_GLOBAL_RNG:
                return (
                    f"numpy global-RNG reference {dotted}; draw from an "
                    f"explicitly seeded np.random.Generator instead"
                )
            if tail == "default_rng" and _is_zero_arg_call(node):
                return (
                    "np.random.default_rng() without a seed draws OS "
                    "entropy; pass an explicit seed"
                )
        if dotted.startswith("random."):
            tail = dotted[len("random."):]
            if "." not in tail and tail not in STDLIB_RANDOM_OK:
                return (
                    f"stdlib random-module singleton {dotted}; use an "
                    f"explicitly seeded generator"
                )
        if strict and dotted == self.seam:
            return (
                "wall_clock_s is banned in strict virtual-clock planes "
                "(repro.serve); take a clock parameter"
            )
        return ""


def _references(
    module: ModuleInfo,
) -> Iterator[Tuple[ast.AST, str]]:
    """Every outermost Name/Attribute reference with a known origin."""
    class Visitor(ast.NodeVisitor):
        def __init__(self):
            self.hits = []

        def _resolve(self, node):
            dotted = resolve_dotted(module, node)
            if dotted is not None:
                self.hits.append((node, dotted))

        def visit_Attribute(self, node: ast.Attribute):
            self._resolve(node)
            # Do not descend into the value chain: the outermost
            # attribute already carries the full dotted path.

        def visit_Name(self, node: ast.Name):
            self._resolve(node)

        def visit_Call(self, node: ast.Call):
            # Resolve the callee as the Call node (so zero-arg
            # default_rng() is classifiable), then visit arguments.
            if isinstance(node.func, (ast.Attribute, ast.Name)):
                dotted = resolve_dotted(module, node.func)
                if dotted is not None:
                    self.hits.append((node, dotted))
            else:
                self.visit(node.func)
            for arg in node.args:
                self.visit(arg)
            for keyword in node.keywords:
                self.visit(keyword.value)

    visitor = Visitor()
    visitor.visit(module.tree)
    return iter(visitor.hits)


def _is_zero_arg_call(node) -> bool:
    return isinstance(node, ast.Call) and not node.args and not node.keywords
