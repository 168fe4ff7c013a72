"""The parsed-once project model every checker shares.

:func:`load_project` walks a package root (a directory containing
``__init__.py`` — by default the installed ``repro`` package itself),
parses every ``*.py`` exactly once, and exposes:

* the module index (dotted name -> :class:`ModuleInfo` with AST,
  source, suppressions);
* **import edges** — absolute and relative, module-level and deferred
  (function-level) alike, each with the line it occurs on;
* **name origins** — a per-module map from local names to the dotted
  path they were imported from (``np`` -> ``numpy``,
  ``SCENARIOS`` -> ``repro.api.registry.SCENARIOS``), which is what
  lets checkers resolve ``np.random.rand`` without executing anything;

Everything is plain :mod:`ast`; the analyzed tree is never imported,
which is why the same code can analyze the live package, a temp-dir
copy with an injected violation, or a test fixture mini-package.
"""

from __future__ import annotations

import ast
import os
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from .findings import Suppression, parse_suppressions

__all__ = [
    "ImportEdge",
    "ModuleInfo",
    "ProjectModel",
    "load_project",
    "resolve_dotted",
]


@dataclass(frozen=True)
class ImportEdge:
    """One import statement resolved to an absolute dotted target."""

    line: int
    target: str          # absolute dotted module path ("repro.serve.stats")
    deferred: bool       # inside a function/method body (lazy import)


@dataclass
class ModuleInfo:
    """One parsed module of the analyzed tree."""

    name: str                       # dotted ("repro.serve.engine")
    path: str                       # absolute filesystem path
    relpath: str                    # stable display path ("repro/serve/...")
    tree: ast.Module
    source: str
    is_package: bool
    imports: List[ImportEdge] = field(default_factory=list)
    origins: Dict[str, str] = field(default_factory=dict)
    suppressions: List[Suppression] = field(default_factory=list)

    def suppressed(self, rule: str, line: int) -> Optional[Suppression]:
        for suppression in self.suppressions:
            if suppression.covers(rule, line):
                return suppression
        return None


def resolve_dotted(
    module: ModuleInfo, node: ast.AST
) -> Optional[str]:
    """Resolve a Name/Attribute chain to its dotted origin, if known.

    ``np.random.rand`` -> ``numpy.random.rand`` when the module did
    ``import numpy as np``; ``perf_counter`` -> ``time.perf_counter``
    after ``from time import perf_counter``.  Names bound locally (and
    anything else we cannot trace to an import) resolve to ``None``.
    """
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if not isinstance(node, ast.Name):
        return None
    origin = module.origins.get(node.id)
    if origin is None:
        return None
    return ".".join([origin] + list(reversed(parts)))


def _module_name(root_pkg: str, rel: str) -> str:
    """``serve/engine.py`` under package ``repro`` -> ``repro.serve.engine``."""
    rel = rel[:-3]  # strip .py
    parts = [p for p in rel.split(os.sep) if p]
    if parts and parts[-1] == "__init__":
        parts = parts[:-1]
    return ".".join([root_pkg] + parts)


def _collect_imports(
    module_name: str, is_package: bool, tree: ast.Module
) -> Tuple[List[ImportEdge], Dict[str, str]]:
    """Every import edge plus the local-name -> dotted-origin table.

    Relative imports are resolved against the module's own package:
    ``from ..api.registry import ROUTERS`` inside
    ``repro.serve.routing`` targets ``repro.api.registry``.
    """
    edges: List[ImportEdge] = []
    origins: Dict[str, str] = {}
    parts = module_name.split(".")

    def resolve_relative(level: int, target: Optional[str]) -> Optional[str]:
        # For a plain module a.b.c, level 1 anchors at a.b; a package's
        # __init__ (module name a.b) anchors level 1 at a.b itself.
        drop = level - 1 if is_package else level
        if drop > len(parts):
            return None
        anchor = parts[: len(parts) - drop]
        if target:
            anchor = anchor + target.split(".")
        return ".".join(anchor) if anchor else None

    class Visitor(ast.NodeVisitor):
        def __init__(self):
            self.depth = 0

        def visit_FunctionDef(self, node):
            self.depth += 1
            self.generic_visit(node)
            self.depth -= 1

        visit_AsyncFunctionDef = visit_FunctionDef
        visit_Lambda = visit_FunctionDef

        def visit_Import(self, node: ast.Import):
            for alias in node.names:
                edges.append(ImportEdge(
                    line=node.lineno, target=alias.name,
                    deferred=self.depth > 0,
                ))
                local = alias.asname or alias.name.split(".")[0]
                # ``import a.b`` binds ``a``; ``import a.b as c`` binds
                # the full path to ``c``.
                origin = alias.name if alias.asname else \
                    alias.name.split(".")[0]
                if self.depth == 0 or local not in origins:
                    origins[local] = origin

        def visit_ImportFrom(self, node: ast.ImportFrom):
            if node.level:
                base = resolve_relative(node.level, node.module)
            else:
                base = node.module
            if base is None:
                return
            edges.append(ImportEdge(
                line=node.lineno, target=base, deferred=self.depth > 0,
            ))
            for alias in node.names:
                if alias.name == "*":
                    continue
                local = alias.asname or alias.name
                if self.depth == 0 or local not in origins:
                    origins[local] = f"{base}.{alias.name}"

    Visitor().visit(tree)
    return edges, origins


class ProjectModel:
    """Index over every parsed module of one package tree."""

    def __init__(self, root: str, package: str,
                 modules: Dict[str, ModuleInfo]):
        self.root = root
        self.package = package
        self.modules = modules
        self._by_relpath = {m.relpath: m for m in modules.values()}

    def __iter__(self):
        return iter(self.modules.values())

    def __len__(self) -> int:
        return len(self.modules)

    def get(self, name: str) -> Optional[ModuleInfo]:
        return self.modules.get(name)

    def by_relpath(self, relpath: str) -> Optional[ModuleInfo]:
        return self._by_relpath.get(relpath)

    def owns(self, dotted: str) -> bool:
        """True when ``dotted`` lives inside the analyzed package."""
        return dotted == self.package or dotted.startswith(
            self.package + "."
        )

    def containing_module(self, dotted: str) -> Optional[ModuleInfo]:
        """The closest existing module for a dotted path: the module
        itself, else the nearest ancestor package in the tree."""
        parts = dotted.split(".")
        while parts:
            candidate = ".".join(parts)
            module = self.modules.get(candidate)
            if module is not None:
                return module
            parts.pop()
        return None


def load_project(root: Optional[str] = None) -> ProjectModel:
    """Parse a package tree into a :class:`ProjectModel`.

    ``root`` is the package directory (containing ``__init__.py``);
    omitted, it defaults to this very installation's ``repro`` package,
    which is what ``repro check`` analyzes.
    """
    if root is None:
        import repro

        root = os.path.dirname(os.path.abspath(repro.__file__))
    root = os.path.abspath(root)
    if not os.path.isfile(os.path.join(root, "__init__.py")):
        raise FileNotFoundError(
            f"{root} is not a package root (no __init__.py)"
        )
    package = os.path.basename(root.rstrip(os.sep))
    parent = os.path.dirname(root)

    modules: Dict[str, ModuleInfo] = {}
    for dirpath, dirnames, filenames in os.walk(root):
        dirnames[:] = sorted(
            d for d in dirnames
            if d != "__pycache__" and not d.startswith(".")
        )
        for filename in sorted(filenames):
            if not filename.endswith(".py"):
                continue
            path = os.path.join(dirpath, filename)
            rel = os.path.relpath(path, root)
            name = _module_name(package, rel)
            with open(path, "r", encoding="utf-8") as handle:
                source = handle.read()
            tree = ast.parse(source, filename=path)
            is_package = filename == "__init__.py"
            imports, origins = _collect_imports(name, is_package, tree)
            modules[name] = ModuleInfo(
                name=name,
                path=path,
                relpath=os.path.relpath(path, parent).replace(os.sep, "/"),
                tree=tree,
                source=source,
                is_package=is_package,
                imports=imports,
                origins=origins,
                suppressions=parse_suppressions(source),
            )
    return ProjectModel(root=root, package=package, modules=modules)
