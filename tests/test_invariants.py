"""Repo invariants, asserted on the parsed source of ``src/repro``.

The paper's tables and figures reproduce because three properties of
the package hold.  Each is checked here with :mod:`ast` (the package
under check is parsed, never imported):

* **determinism** — no module reads a wall clock or an unseeded RNG,
  except the two sanctioned seams ``repro.obs.console`` and
  ``repro.obs.wallclock``; ``repro.serve`` runs on the simulation clock
  only, so even the ``wall_clock_s`` seam is banned there.  References
  count, not just calls: passing ``time.monotonic`` as a clock leaks
  wall time like calling it;
* **layering** — imports point down the plane stack of :data:`LAYERS`,
  and no module-level imports form a cycle;
* **spans** — every literal ``emit`` kind and every kind ``obs.views``
  compares against is declared in ``obs.tracer.EVENT_KINDS``, and every
  declared kind is both emitted and rendered.

Two more keep each module honest:

* **imports** — every name a module imports at its top level is read in
  that module or listed in its ``__all__``.  A package ``__init__``
  imports to re-export, so it is exempt; so is ``from __future__``;
* **prints** — the builtin ``print`` is called only in
  ``repro.obs.console``, the one seam CLI-facing text leaves through.

Three guards sit beside them:

* **no processes or sockets** — serving stays a discrete-event
  simulator: no module imports worker processes, an event loop or
  sockets;
* **numpy and the standard library only** — the package imports nothing
  but ``repro``, ``numpy`` and :data:`sys.stdlib_module_names`, so a
  start pays for no other third-party import (scipy, say, is a test
  oracle, never a runtime dependency);
* **cited files exist** — every ``*.md`` file a string in the package
  names (a result's notes, a docstring) is a file of the repository.

Each invariant holds on the live tree, fires on its fixture package
under ``tests/fixtures/analysis/`` (each a package named ``repro``), and
fires on violations injected into a copy of the package.  No comment
or baseline mutes a violation.
"""

import ast
import re
import shutil
import sys
from pathlib import Path
from typing import NamedTuple

import pytest

TESTS = Path(__file__).resolve().parent
SRC = TESTS.parent / "src" / "repro"
FIXTURES = TESTS / "fixtures" / "analysis"


# ----------------------------------------------------------------------
# The parsed package
# ----------------------------------------------------------------------
class Module(NamedTuple):
    name: str       # dotted, "repro.serve.engine"
    path: str       # "repro/serve/engine.py"
    tree: ast.Module
    imports: list   # (line, absolute dotted target, inside a function)
    origins: dict   # local name -> dotted origin, "np" -> "numpy"


def load(root):
    """Every module of the package at ``root``, keyed by dotted name."""
    root = Path(root)
    modules = {}
    for file in sorted(root.rglob("*.py")):
        rel = file.relative_to(root.parent)
        parts = list(rel.with_suffix("").parts)
        is_package = parts[-1] == "__init__"
        if is_package:
            parts.pop()
        tree = ast.parse(file.read_text(), filename=str(file))
        imports, origins = _imports(parts, is_package, tree)
        modules[".".join(parts)] = Module(
            ".".join(parts), rel.as_posix(), tree, imports, origins)
    return modules


def _imports(parts, is_package, tree):
    """Import edges, relative ones resolved, and the name origins.

    ``from x import y`` is an edge to ``x``.  A module-level binding
    wins over a function-level one of the same name.
    """
    imports, origins = [], {}

    def bind(local, origin, deferred):
        if not deferred or local not in origins:
            origins[local] = origin

    def visit(node, deferred):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.Import):
                for alias in child.names:
                    imports.append((child.lineno, alias.name, deferred))
                    top = alias.name.split(".")[0]
                    # ``import a.b`` binds ``a``; ``import a.b as c``
                    # binds ``a.b`` to ``c``.
                    bind(alias.asname or top,
                         alias.name if alias.asname else top, deferred)
            elif isinstance(child, ast.ImportFrom):
                base = child.module
                if child.level:
                    anchor = parts[:len(parts) - child.level + is_package]
                    base = ".".join(anchor + ([base] if base else []))
                imports.append((child.lineno, base, deferred))
                for alias in child.names:
                    bind(alias.asname or alias.name,
                         f"{base}.{alias.name}", deferred)
            visit(child, deferred or isinstance(child, (
                ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)))

    visit(tree, False)
    return imports, origins


def under(name, prefix):
    return name == prefix or name.startswith(prefix + ".")


# ----------------------------------------------------------------------
# determinism
# ----------------------------------------------------------------------
WALL_CLOCKS = frozenset({
    "time.time", "time.time_ns", "time.monotonic", "time.monotonic_ns",
    "time.perf_counter", "time.perf_counter_ns", "time.process_time",
    "time.process_time_ns", "datetime.datetime.now",
    "datetime.datetime.utcnow", "datetime.datetime.today",
    "datetime.date.today",
})

# numpy's legacy global-singleton RNG: module state, never seeded by
# the caller.
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

CLOCK_SEAMS = ("repro.obs.console", "repro.obs.wallclock")
VIRTUAL_CLOCK_PLANE = "repro.serve"
WALL_CLOCK_SEAM = "repro.obs.wallclock.wall_clock_s"


def _origin(module, node):
    """``np.random.rand`` -> ``numpy.random.rand`` after
    ``import numpy as np``; None when the base is not an import."""
    attrs = []
    while isinstance(node, ast.Attribute):
        attrs.insert(0, node.attr)
        node = node.value
    if isinstance(node, ast.Name) and node.id in module.origins:
        return ".".join([module.origins[node.id]] + attrs)
    return None


def _references(module):
    """(node, origin) for each outermost imported name chain.  A call
    stands for its callee, so ``default_rng()`` is seen with its
    arguments."""
    todo = [module.tree]
    while todo:
        node = todo.pop()
        callee = node.func if isinstance(node, ast.Call) else node
        origin = None
        if isinstance(callee, (ast.Attribute, ast.Name)):
            origin = _origin(module, callee)
        if origin is None:
            todo.extend(ast.iter_child_nodes(node))
            continue
        yield node, origin
        if isinstance(node, ast.Call):
            todo.extend(node.args + [k.value for k in node.keywords])


def _nondeterministic(node, origin, virtual_clock):
    owner, _, attr = origin.rpartition(".")
    if origin in WALL_CLOCKS:
        return "a wall clock"
    if owner == "numpy.random" and attr in NP_GLOBAL_RNG:
        return "numpy's global RNG"
    if origin == "numpy.random.default_rng" and isinstance(
            node, ast.Call) and not (node.args or node.keywords):
        return "seeded from OS entropy"
    if owner == "random" and attr not in ("Random", "SystemRandom"):
        return "the stdlib global RNG"
    if virtual_clock and origin == WALL_CLOCK_SEAM:
        return "the wall-clock seam, banned on serve's virtual clock"
    return None


def determinism_violations(modules):
    found = []
    for module in modules.values():
        if any(under(module.name, seam) for seam in CLOCK_SEAMS):
            continue
        virtual_clock = under(module.name, VIRTUAL_CLOCK_PLANE)
        for node, origin in _references(module):
            why = _nondeterministic(node, origin, virtual_clock)
            if why:
                found.append((module.path, node.lineno, f"{origin} is {why}"))
    return sorted(found)


# ----------------------------------------------------------------------
# layering
# ----------------------------------------------------------------------
# Bottom layer first.  A module ranks by its longest listed prefix, so
# obs.views sits above obs; unlisted root modules (rng, version) rank 0.
LAYERS = (
    ("tensor", "data", "api", "obs"),
    ("nn", "optim", "quant", "hardware"),
    ("core", "baselines"),
    ("serve",),
    ("obs.views",),
    ("api.pipeline",),
    ("experiments", "__main__"),
)
RANK = {prefix: rank for rank, layer in enumerate(LAYERS)
        for prefix in layer}


def _rank(name):
    parts = name.split(".")[1:]
    for end in range(len(parts), 0, -1):
        if ".".join(parts[:end]) in RANK:
            return RANK[".".join(parts[:end])]
    return 0


def _subpackage(name):
    return (name.split(".") + [""])[1]


def _owner(modules, target):
    """The module an import target lands in: itself or its package."""
    parts = target.split(".")
    while parts and ".".join(parts) not in modules:
        parts.pop()
    return ".".join(parts) or None


def _reachable(graph, start):
    seen, todo = set(), [start]
    while todo:
        for name in graph[todo.pop()] - seen:
            seen.add(name)
            todo.append(name)
    return seen


def layering_violations(modules):
    """Upward imports across subpackages (function-level ones too), and
    every module-level import edge that lies on a cycle."""
    found = []
    graph = {name: set() for name in modules}
    edges = []
    for module in modules.values():
        for line, target, deferred in module.imports:
            owner = _owner(modules, target)
            if owner is None or owner == module.name:
                continue
            low, high = _rank(module.name), _rank(owner)
            if high > low and _subpackage(owner) != _subpackage(module.name):
                found.append((module.path, line,
                              f"layer violation: {module.name} (layer "
                              f"{low}) imports {owner} (layer {high})"))
            # A package re-exporting its own modules is no cycle.
            if not deferred and not under(owner, module.name) \
                    and not under(module.name, owner):
                graph[module.name].add(owner)
                edges.append((module, line, owner))
    for module, line, owner in edges:
        if module.name in _reachable(graph, owner):
            found.append((module.path, line,
                          f"import cycle: {module.name} imports {owner}, "
                          f"which imports it back"))
    return sorted(found)


# ----------------------------------------------------------------------
# spans
# ----------------------------------------------------------------------
def _is_str(node):
    return isinstance(node, ast.Constant) and isinstance(node.value, str)


def _is_kind(node):
    """``kind``, ``event.kind`` or ``event["kind"]``."""
    if isinstance(node, ast.Subscript):
        node = node.slice
        return _is_str(node) and node.value == "kind"
    return (isinstance(node, ast.Name) and node.id == "kind"
            or isinstance(node, ast.Attribute) and node.attr == "kind")


def span_violations(modules):
    tracer = modules["repro.obs.tracer"]
    views = modules["repro.obs.views"]
    [declared] = [
        {el.value: el.lineno for el in node.value.elts}
        for node in tracer.tree.body if isinstance(node, ast.Assign)
        and any(getattr(t, "id", None) == "EVENT_KINDS"
                for t in node.targets)
    ]
    found, emitted, rendered = [], set(), set()
    for module in modules.values():
        for node in ast.walk(module.tree):
            if (isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Attribute)
                    and node.func.attr == "emit"
                    and node.args and _is_str(node.args[0])):
                kind = node.args[0].value
                emitted.add(kind)
                if kind not in declared:
                    found.append((module.path, node.lineno,
                                  f"emit of undeclared kind {kind!r}"))
    for node in ast.walk(views.tree):
        if not isinstance(node, ast.Compare):
            continue
        sides = [node.left] + node.comparators
        if not any(map(_is_kind, sides)):
            continue
        for leaf in (leaf for side in sides if not _is_kind(side)
                     for leaf in ast.walk(side)):
            if _is_str(leaf):
                rendered.add(leaf.value)
                if leaf.value not in declared:
                    found.append((views.path, leaf.lineno,
                                  f"obs.views matches undeclared kind "
                                  f"{leaf.value!r}"))
    for kind, line in declared.items():
        if kind not in rendered:
            found.append((tracer.path, line,
                          f"kind {kind!r} is declared but never rendered"))
        if kind not in emitted:
            found.append((tracer.path, line,
                          f"kind {kind!r} is declared but never emitted"))
    return sorted(found)


# ----------------------------------------------------------------------
# imports
# ----------------------------------------------------------------------
def _exported(tree):
    return {el.value for node in tree.body if isinstance(node, ast.Assign)
            and any(getattr(t, "id", None) == "__all__" for t in node.targets)
            for el in node.value.elts if _is_str(el)}


def unused_import_violations(modules):
    """Top-level imports whose bound name the module never reads."""
    found = []
    for module in modules.values():
        if module.path.endswith("/__init__.py"):
            continue
        read = {node.id for node in ast.walk(module.tree)
                if isinstance(node, ast.Name)} | _exported(module.tree)
        for node in module.tree.body:
            if isinstance(node, ast.Import):
                names = [a.asname or a.name.split(".")[0] for a in node.names]
            elif (isinstance(node, ast.ImportFrom)
                    and node.module != "__future__"):
                names = [a.asname or a.name for a in node.names]
            else:
                continue
            found += [(module.path, node.lineno, f"unused import {name!r}")
                      for name in names if name not in read]
    return sorted(found)


# ----------------------------------------------------------------------
# prints
# ----------------------------------------------------------------------
PRINT_SEAM = "repro.obs.console"


def _calls_print(module, node):
    if not isinstance(node, ast.Call):
        return False
    func = node.func
    if isinstance(func, ast.Name) and func.id == "print" \
            and func.id not in module.origins:
        return True
    return _origin(module, func) == "builtins.print"


def print_violations(modules):
    """Calls of the builtin ``print``, under any name, outside the seam."""
    return sorted(
        (module.path, node.lineno, f"print outside {PRINT_SEAM}")
        for module in modules.values() if module.name != PRINT_SEAM
        for node in ast.walk(module.tree) if _calls_print(module, node))


# ----------------------------------------------------------------------
# processes and sockets; numpy and the standard library only
# ----------------------------------------------------------------------
BANNED_IMPORTS = ("multiprocessing", "asyncio", "socket",
                  "concurrent.futures")
ALLOWED_TOP_LEVEL = frozenset({"repro", "numpy"}) | sys.stdlib_module_names


def _imports_where(modules, flagged):
    """``path: module`` for every imported name ``flagged`` accepts,
    function-level imports too."""
    hits = []
    for module in modules.values():
        names = {target for _, target, _ in module.imports}
        names |= set(module.origins.values())
        hits += [f"{module.path}: {name}" for name in sorted(names)
                 if flagged(name)]
    return hits


def process_or_socket_imports(modules):
    return _imports_where(modules, lambda name: any(
        under(name, banned) for banned in BANNED_IMPORTS))


def foreign_imports(modules):
    return _imports_where(
        modules, lambda name: name.split(".")[0] not in ALLOWED_TOP_LEVEL)


# ----------------------------------------------------------------------
# Markdown files the package names exist
# ----------------------------------------------------------------------
REPO = SRC.parent.parent
MD_NAME = re.compile(r"[\w./-]+\.md\b")


def missing_markdown(modules, repo=REPO):
    """``path:line: name`` for every ``*.md`` file a string constant
    (docstrings included) names that is not in ``repo``."""
    return [f"{module.path}:{node.lineno}: {name}"
            for module in modules.values()
            for node in ast.walk(module.tree) if _is_str(node)
            for name in MD_NAME.findall(node.value)
            if not (repo / name).is_file()]


CHECKS = {
    "determinism": determinism_violations,
    "layering": layering_violations,
    "spans": span_violations,
    "imports": unused_import_violations,
    "prints": print_violations,
}


def assert_caught(found, path, line, words):
    assert any(v[:2] == (path, line) and words in v[2] for v in found), (
        f"expected {path}:{line} ({words}), got {found}")


# ----------------------------------------------------------------------
# The live tree
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def live():
    return load(SRC)


@pytest.mark.parametrize("rule", CHECKS)
def test_live_tree_holds(live, rule):
    assert CHECKS[rule](live) == []


def test_live_tree_imports_no_processes_or_sockets(live):
    assert process_or_socket_imports(live) == []


def test_live_tree_imports_only_numpy_and_the_stdlib(live):
    assert foreign_imports(live) == []


def test_live_tree_names_only_markdown_files_that_exist(live):
    assert missing_markdown(live) == []


# ----------------------------------------------------------------------
# Fixture packages: every violation is caught, nothing else is
# ----------------------------------------------------------------------
FIXTURE_VIOLATIONS = [
    pytest.param("determinism", "sim.py", 9, "time.time", id="sim.py:9"),
    pytest.param("determinism", "sim.py", 10, "time.perf_counter",
                 id="sim.py:10"),
    pytest.param("determinism", "sim.py", 11, "time.monotonic",
                 id="sim.py:11"),
    pytest.param("determinism", "sim.py", 12, "numpy.random.rand",
                 id="sim.py:12"),
    pytest.param("determinism", "sim.py", 13, "random.random",
                 id="sim.py:13"),
    pytest.param("determinism", "sim.py", 14, "OS entropy", id="sim.py:14"),
    pytest.param("determinism", "sim.py", 18, "time.time",
                 id="sim.py:18-allow-comment"),
    pytest.param("determinism", "serve/engine.py", 5, "wall_clock_s",
                 id="serve/engine.py:5"),
    pytest.param("layering", "core/trainer.py", 3, "layer violation",
                 id="core/trainer.py:3"),
    pytest.param("layering", "nn/alpha.py", 1, "cycle", id="nn/alpha.py:1"),
    pytest.param("layering", "nn/beta.py", 1, "cycle", id="nn/beta.py:1"),
    pytest.param("spans", "eng.py", 7, "'zeta'", id="eng.py:7"),
    pytest.param("spans", "obs/views.py", 12, "'delta'",
                 id="obs/views.py:12"),
    pytest.param("spans", "obs/tracer.py", 6, "never rendered",
                 id="obs/tracer.py:6-unrendered"),
    pytest.param("spans", "obs/tracer.py", 6, "never emitted",
                 id="obs/tracer.py:6-unemitted"),
    pytest.param("imports", "tool.py", 5, "'json'", id="tool.py:5"),
    pytest.param("imports", "tool.py", 7, "'Dict'", id="tool.py:7"),
    pytest.param("imports", "tool.py", 11, "'_Base'", id="tool.py:11"),
    pytest.param("prints", "tool.py", 10, "print outside",
                 id="prints-tool.py:10"),
    pytest.param("prints", "tool.py", 11, "print outside",
                 id="prints-tool.py:11"),
    pytest.param("prints", "tool.py", 12, "print outside",
                 id="prints-tool.py:12"),
]


@pytest.mark.parametrize("rule, path, line, words", FIXTURE_VIOLATIONS)
def test_fixture_violation_is_caught(rule, path, line, words):
    found = CHECKS[rule](load(FIXTURES / rule / "repro"))
    assert_caught(found, f"repro/{path}", line, words)


@pytest.mark.parametrize("rule", CHECKS)
def test_fixture_flags_nothing_else(rule):
    # The seeded RNGs, the console seam, the downward import, the
    # function-level cycle, the dynamic re-emit, the re-exports, the
    # read, exported and function-level imports, and the seam's own
    # prints, a method named print and a string all pass.
    expected = {(f"repro/{p.values[1]}", p.values[2])
                for p in FIXTURE_VIOLATIONS if p.values[0] == rule}
    found = CHECKS[rule](load(FIXTURES / rule / "repro"))
    assert [v for v in found if v[:2] not in expected] == []


# ----------------------------------------------------------------------
# Violations injected into a copy of the package (never the live tree)
# ----------------------------------------------------------------------
@pytest.fixture()
def tree_copy(tmp_path):
    dst = tmp_path / "repro"
    shutil.copytree(SRC, dst, ignore=shutil.ignore_patterns("__pycache__"))
    return dst


def inject(tree, relpath, code, after=None):
    """Add ``code`` to a copied module, at the end or after the first
    line containing ``after``; returns the first injected line."""
    path = tree / relpath
    lines = path.read_text().splitlines(keepends=True)
    at = len(lines) if after is None else next(
        i + 1 for i, text in enumerate(lines) if after in text)
    path.write_text("".join(lines[:at]) + code + "".join(lines[at:]))
    return at + 1


INJECTED = [
    # rule, module, code, violating line within code, words
    pytest.param("determinism", "serve/simulator.py",
                 "import time\n_T0 = time.time()\n", 1, "wall clock",
                 id="wall-clock-in-simulator"),
    pytest.param("determinism", "core/trainer.py",
                 "from time import perf_counter\n_T0 = perf_counter()\n",
                 1, "time.perf_counter", id="perf-counter-from-import"),
    pytest.param("determinism", "data/synthetic.py",
                 "import numpy as np\n_DRAW = np.random.rand(3)\n", 1,
                 "numpy's global RNG", id="numpy-global-rng"),
    pytest.param("determinism", "experiments/common.py",
                 "import random\n_COIN = random.random()\n", 1,
                 "stdlib global RNG", id="stdlib-random"),
    pytest.param("determinism", "core/cdt.py",
                 "import numpy as np\n_GEN = np.random.default_rng()\n", 1,
                 "OS entropy", id="unseeded-default-rng"),
    pytest.param("determinism", "hardware/costmodel.py",
                 "from numpy.random import default_rng\n"
                 "_GEN = default_rng()\n", 1, "OS entropy",
                 id="unseeded-default-rng-from-import"),
    pytest.param("determinism", "serve/engine.py",
                 "from repro.obs.wallclock import wall_clock_s\n"
                 "_T0 = wall_clock_s()\n", 1, "virtual clock",
                 id="wall-clock-seam-in-serve"),
    pytest.param("determinism", "api/pipeline.py",
                 "import datetime\n_NOW = datetime.datetime.now()\n", 1,
                 "datetime.datetime.now", id="datetime-module"),
    pytest.param("determinism", "nn/module.py",
                 "from datetime import datetime\n_NOW = datetime.now()\n",
                 1, "datetime.datetime.now", id="datetime-class"),
    pytest.param("determinism", "quant/network.py",
                 "import numpy.random as npr\nnpr.seed(0)\n", 1,
                 "numpy.random.seed", id="aliased-numpy-random"),
    pytest.param("determinism", "optim/optimizers.py",
                 "def _stamp():\n    import time\n"
                 "    return time.time_ns()\n", 2, "time.time_ns",
                 id="function-level-import"),
    pytest.param("determinism", "serve/stats.py",
                 "import functools\nimport time\n"
                 "_CLOCK = functools.partial(time.monotonic)\n", 2,
                 "time.monotonic", id="clock-passed-as-argument"),
    pytest.param("layering", "core/trainer.py",
                 "from repro.serve import routing as _routing\n", 0,
                 "layer violation", id="core-imports-serve"),
    pytest.param("layering", "nn/layers.py",
                 "from ..core import cdt as _cdt\n", 0, "layer violation",
                 id="nn-imports-core-relative"),
    pytest.param("layering", "serve/stats.py",
                 "from repro.obs.views import render_events as _render\n",
                 0, "layer violation", id="serve-imports-obs-views"),
    pytest.param("layering", "api/config.py",
                 "import repro.experiments.common\n", 0, "layer violation",
                 id="plain-import-of-experiments"),
    pytest.param("layering", "serve/engine.py",
                 "def _late():\n    from repro.experiments import common\n"
                 "    return common\n", 1, "layer violation",
                 id="function-level-import-of-experiments"),
    pytest.param("layering", "obs/tracer.py",
                 "from .artifacts import OBS_DIRNAME as _DIRNAME\n", 0,
                 "import cycle", id="module-cycle"),
    pytest.param("spans", "serve/cluster.py",
                 "def _bogus_span(tracer):\n"
                 '    tracer.emit("warp_speed", 0.0)\n', 1,
                 "undeclared kind 'warp_speed'", id="unknown-emit-kind"),
    pytest.param("spans", "obs/views.py",
                 "def _bogus_view(event):\n"
                 '    return event["kind"] == "warp_speed"\n', 1,
                 "undeclared kind 'warp_speed'",
                 id="undeclared-consumer-kind"),
    pytest.param("spans", "obs/views.py",
                 "def _bogus_view(event):\n"
                 '    return event.kind in ("warp_speed",)\n', 1,
                 "undeclared kind 'warp_speed'",
                 id="undeclared-consumer-kind-attribute"),
    pytest.param("imports", "serve/stats.py", "import json\n", 0,
                 "unused import 'json'", id="unused-import"),
    pytest.param("imports", "tensor/ops.py",
                 "from typing import Any as _Any\n", 0,
                 "unused import '_Any'", id="unused-aliased-from-import"),
    pytest.param("prints", "core/trainer.py",
                 "def _log(loss):\n    print(loss)\n", 1,
                 "print outside", id="print-in-trainer"),
    pytest.param("prints", "obs/views.py",
                 "import builtins\nbuiltins.print('x')\n", 1,
                 "print outside", id="builtins-print-beside-the-seam"),
]


@pytest.mark.parametrize("rule, relpath, code, offset, words", INJECTED)
def test_injected_violation_is_caught(tree_copy, rule, relpath, code,
                                      offset, words):
    line = inject(tree_copy, relpath, code) + offset
    assert_caught(CHECKS[rule](load(tree_copy)), f"repro/{relpath}", line,
                  words)


def test_injected_kind_that_is_emitted_but_never_rendered(tree_copy):
    line = inject(tree_copy, "obs/tracer.py", '    "warp_speed",\n',
                  after='"stage",')
    inject(tree_copy, "serve/cluster.py",
           'def _span(tracer):\n    tracer.emit("warp_speed", 0.0)\n')
    found = span_violations(load(tree_copy))
    assert_caught(found, "repro/obs/tracer.py", line, "never rendered")
    assert len(found) == 1


def test_injected_kind_that_is_rendered_but_never_emitted(tree_copy):
    line = inject(tree_copy, "obs/tracer.py", '    "warp_speed",\n',
                  after='"stage",')
    inject(tree_copy, "obs/views.py",
           'def _view(event):\n    return event["kind"] == "warp_speed"\n')
    found = span_violations(load(tree_copy))
    assert_caught(found, "repro/obs/tracer.py", line, "never emitted")
    assert len(found) == 1


@pytest.mark.parametrize("code, banned", [
    ("import socket\n", "socket"),
    ("import multiprocessing.pool as _pool\n", "multiprocessing.pool"),
    ("from concurrent.futures import ThreadPoolExecutor\n",
     "concurrent.futures"),
    ("def _later():\n    import asyncio\n", "asyncio"),
], ids=["import", "dotted-alias", "from-import", "deferred"])
def test_injected_process_or_socket_import_is_caught(tree_copy, code,
                                                     banned):
    inject(tree_copy, "serve/engine.py", code)
    hits = process_or_socket_imports(load(tree_copy))
    assert f"repro/serve/engine.py: {banned}" in hits
    assert all(h.startswith("repro/serve/engine.py: ") for h in hits)


def test_injected_citation_of_a_missing_markdown_file_is_caught(tree_copy):
    line = inject(tree_copy, "experiments/fig5.py",
                  '_NOTE = "see DESIGN.md and README.md"\n')
    assert missing_markdown(load(tree_copy)) == [
        f"repro/experiments/fig5.py:{line}: DESIGN.md"]


@pytest.mark.parametrize("code, foreign", [
    ("from scipy import ndimage\n", "scipy"),
    ("def _later():\n    from scipy import ndimage\n", "scipy"),
    ("import scipy.ndimage as _ndi\n", "scipy.ndimage"),
], ids=["module-level", "deferred", "dotted-alias"])
def test_injected_foreign_import_is_caught(tree_copy, code, foreign):
    inject(tree_copy, "data/synthetic.py", code)
    hits = foreign_imports(load(tree_copy))
    assert f"repro/data/synthetic.py: {foreign}" in hits
    assert all(h.startswith("repro/data/synthetic.py: ") for h in hits)
