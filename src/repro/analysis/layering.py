"""Rule ``layering``: the import DAG flows one way through the planes.

The repo is layered: foundation (tensor/data/api registry/obs core)
under the model zoo (nn/optim/quant/hardware), under training and
baselines (core/baselines), under the serving simulator (serve), under
the inspection planes (obs.views/analysis), under the orchestrator
(api.pipeline), with experiments and the CLI as leaves nothing else may
import.  A ``core`` module importing ``serve`` — or anything importing
``experiments`` — couples a lower plane to the code it exists to
serve.

Mechanics:

* every module gets a **rank** by longest-prefix match against the
  layer map; an import whose target ranks *above* its importer is an
  error (same rank is fine — peers may collaborate);
* edges inside one top-level subpackage are exempt (``repro.api`` may
  wire up ``repro.api.pipeline``; the map's intra-package splits like
  ``obs.views`` only constrain *other* subpackages);
* module-level import **cycles** (Tarjan SCCs over non-deferred edges,
  ancestor/descendant re-export edges excluded) are always errors —
  they make import order load-bearing regardless of ranks.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Sequence, Set, Tuple

from .checker import Checker
from .findings import Finding
from .model import ModuleInfo, ProjectModel

__all__ = ["LayeringChecker", "DEFAULT_LAYERS"]

# Rank 0 at the bottom; "" is the package root (rng, version, __init__).
# Longest-prefix wins, so ``obs.views`` outranks its parent ``obs``.
DEFAULT_LAYERS: Tuple[Tuple[str, ...], ...] = (
    ("", "tensor", "data", "api", "obs"),
    ("nn", "optim", "quant", "hardware"),
    ("core", "baselines"),
    ("serve",),
    ("analysis", "obs.views"),
    ("api.pipeline",),
    ("experiments", "__main__"),
)


class LayeringChecker(Checker):
    rule = "layering"
    severity = "error"
    description = (
        "imports respect the plane layering (core <- serve <- "
        "analysis/obs.views); module cycles are errors"
    )

    def __init__(self, layers: Sequence[Sequence[str]] = DEFAULT_LAYERS):
        self.layers = tuple(tuple(layer) for layer in layers)

    # ------------------------------------------------------------------
    def _rank(self, pkg: str, module_name: str) -> Tuple[int, str]:
        """Longest-prefix rank of a dotted module name."""
        suffix = module_name[len(pkg):].lstrip(".")
        best = (0, "")
        best_len = -1
        for rank, layer in enumerate(self.layers):
            for prefix in layer:
                if prefix == "" and best_len < 0:
                    best = (rank, prefix)
                    best_len = 0
                elif prefix and (
                    suffix == prefix or suffix.startswith(prefix + ".")
                ):
                    if len(prefix) > best_len:
                        best = (rank, prefix)
                        best_len = len(prefix)
        return best

    @staticmethod
    def _top_key(pkg: str, module_name: str) -> str:
        parts = module_name[len(pkg):].lstrip(".").split(".")
        return parts[0] if parts else ""

    def check(self, project: ProjectModel) -> Iterator[Finding]:
        pkg = project.package
        yield from self._check_ranks(project, pkg)
        yield from self._check_cycles(project, pkg)

    # -- rank violations -----------------------------------------------
    def _check_ranks(
        self, project: ProjectModel, pkg: str
    ) -> Iterator[Finding]:
        for module in project:
            importer_rank, importer_layer = self._rank(pkg, module.name)
            for edge in module.imports:
                if not project.owns(edge.target):
                    continue
                target = project.containing_module(edge.target)
                if target is None:
                    continue
                if self._top_key(pkg, module.name) == self._top_key(
                    pkg, target.name
                ):
                    continue
                target_rank, target_layer = self._rank(pkg, target.name)
                if target_rank > importer_rank:
                    yield self.finding(
                        module, edge.line,
                        f"layer violation: {module.name} (layer "
                        f"{importer_rank}: {importer_layer or 'root'}) "
                        f"imports {target.name} (layer {target_rank}: "
                        f"{target_layer}); dependencies must point "
                        f"down the stack",
                    )

    # -- cycles --------------------------------------------------------
    def _check_cycles(
        self, project: ProjectModel, pkg: str
    ) -> Iterator[Finding]:
        graph: Dict[str, Set[str]] = {m.name: set() for m in project}
        edge_lines: Dict[Tuple[str, str], int] = {}
        for module in project:
            for edge in module.imports:
                if edge.deferred:
                    continue
                target = project.containing_module(edge.target)
                if target is None or target.name == module.name:
                    continue
                a, b = module.name, target.name
                # Re-export edges between a package and its own
                # descendants are the normal __init__ pattern, not a
                # cycle through independent modules.
                if a.startswith(b + ".") or b.startswith(a + "."):
                    continue
                graph[a].add(b)
                edge_lines.setdefault((a, b), edge.line)

        for component in _tarjan_sccs(graph):
            if len(component) < 2:
                continue
            cycle = sorted(component)
            anchor_module = project.get(cycle[0])
            line = 1
            for member in cycle[1:] + cycle[:1]:
                if (cycle[0], member) in edge_lines:
                    line = edge_lines[(cycle[0], member)]
                    break
            yield self.finding(
                anchor_module, line,
                f"import cycle between modules: {' <-> '.join(cycle)}; "
                f"break it with a deferred (function-level) import or "
                f"by moving the shared piece down a layer",
            )


def _tarjan_sccs(graph: Dict[str, Set[str]]) -> List[Set[str]]:
    """Iterative Tarjan strongly-connected components."""
    index: Dict[str, int] = {}
    lowlink: Dict[str, int] = {}
    on_stack: Set[str] = set()
    stack: List[str] = []
    sccs: List[Set[str]] = []
    counter = [0]

    for start in sorted(graph):
        if start in index:
            continue
        work: List[Tuple[str, Iterator[str]]] = [
            (start, iter(sorted(graph[start])))
        ]
        index[start] = lowlink[start] = counter[0]
        counter[0] += 1
        stack.append(start)
        on_stack.add(start)
        while work:
            node, children = work[-1]
            advanced = False
            for child in children:
                if child not in index:
                    index[child] = lowlink[child] = counter[0]
                    counter[0] += 1
                    stack.append(child)
                    on_stack.add(child)
                    work.append((child, iter(sorted(graph[child]))))
                    advanced = True
                    break
                if child in on_stack:
                    lowlink[node] = min(lowlink[node], index[child])
            if advanced:
                continue
            work.pop()
            if work:
                parent = work[-1][0]
                lowlink[parent] = min(lowlink[parent], lowlink[node])
            if lowlink[node] == index[node]:
                component: Set[str] = set()
                while True:
                    member = stack.pop()
                    on_stack.discard(member)
                    component.add(member)
                    if member == node:
                        break
                sccs.append(component)
    return sccs
