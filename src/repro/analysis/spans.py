"""Rule ``spans``: the tracer event vocabulary cannot drift.

``repro.obs.tracer.EVENT_KINDS`` is the contract between the planes
that *emit* span events (engine, pipeline) and the plane that
*renders* them (the ``obs.views`` tables).  Nothing enforces it at
runtime — ``emit("batchh", ...)`` happily records an event every
consumer silently ignores, and a vocabulary entry no consumer handles
is telemetry that vanishes.  Both drifts shipped before; this rule
pins the vocabulary from three sides:

* every **literal emit** (``tracer.emit("kind", ...)``) anywhere in the
  tree must use a declared kind — error at the emit site (an emit
  whose kind is not a literal is skipped);
* every **literal kind comparison** in a consumer module
  (``kind == "batch"``, ``e["kind"] in ("batch", "complete")``) must
  use a declared kind — error at the comparison;
* every declared kind must be **consumed** by at least one consumer
  module — an error at the vocabulary line (unrendered telemetry), and
  should be **emitted** somewhere — a warning at the vocabulary line
  (dead vocabulary).
"""

from __future__ import annotations

import ast
from typing import Dict, Iterator, List, Sequence, Set, Tuple

from .checker import Checker
from .findings import Finding
from .model import ModuleInfo, ProjectModel

__all__ = ["SpanVocabularyChecker"]

DEFAULT_VOCAB_MODULE = "obs.tracer"
DEFAULT_VOCAB_NAME = "EVENT_KINDS"
DEFAULT_CONSUMERS = ("obs.views",)


class SpanVocabularyChecker(Checker):
    rule = "spans"
    severity = "error"
    description = (
        "emitted tracer event kinds are declared in EVENT_KINDS and "
        "every declared kind is consumed by obs views"
    )

    def __init__(
        self,
        vocab_module: str = DEFAULT_VOCAB_MODULE,
        vocab_name: str = DEFAULT_VOCAB_NAME,
        consumers: Sequence[str] = DEFAULT_CONSUMERS,
    ):
        self.vocab_module = vocab_module
        self.vocab_name = vocab_name
        self.consumers = tuple(consumers)

    def check(self, project: ProjectModel) -> Iterator[Finding]:
        pkg = project.package
        vocab_mod = project.get(f"{pkg}.{self.vocab_module}")
        if vocab_mod is None:
            return
        vocab = _vocabulary(vocab_mod, self.vocab_name)
        if not vocab:
            return
        declared = set(vocab)

        emitted: Set[str] = set()
        for module in project:
            for kind, line in _literal_emits(module):
                emitted.add(kind)
                if kind not in declared:
                    yield self.finding(
                        module, line,
                        f"emit of undeclared span kind {kind!r}; add it "
                        f"to {self.vocab_name} in "
                        f"{pkg}.{self.vocab_module} and teach the obs "
                        f"consumers about it",
                    )

        consumed: Set[str] = set()
        for suffix in self.consumers:
            module = project.get(f"{pkg}.{suffix}")
            if module is None:
                continue
            for kind, line in _literal_kind_comparisons(module):
                consumed.add(kind)
                if kind not in declared:
                    yield self.finding(
                        module, line,
                        f"consumer matches undeclared span kind "
                        f"{kind!r}; it can never be emitted — stale "
                        f"branch or typo",
                    )

        for kind, line in vocab.items():
            if kind not in consumed:
                yield self.finding(
                    vocab_mod, line,
                    f"span kind {kind!r} is declared but no obs "
                    f"consumer ({', '.join(self.consumers)}) renders "
                    f"it; events of this kind vanish from every report",
                )
            if kind not in emitted:
                yield self.finding(
                    vocab_mod, line,
                    f"span kind {kind!r} is declared but never emitted "
                    f"anywhere in the tree (dead vocabulary)",
                    severity="warning",
                )


# ----------------------------------------------------------------------
# Extraction
# ----------------------------------------------------------------------

def _vocabulary(module: ModuleInfo, name: str) -> Dict[str, int]:
    """``EVENT_KINDS = ("a", "b", ...)`` -> {kind: line-of-element}."""
    for node in module.tree.body:
        if not isinstance(node, ast.Assign):
            continue
        if not any(
            isinstance(t, ast.Name) and t.id == name
            for t in node.targets
        ):
            continue
        if isinstance(node.value, (ast.Tuple, ast.List)):
            return {
                el.value: el.lineno
                for el in node.value.elts
                if isinstance(el, ast.Constant)
                and isinstance(el.value, str)
            }
    return {}


def _literal_emits(module: ModuleInfo) -> Iterator[Tuple[str, int]]:
    """``something.emit("kind", ...)`` calls with a literal kind."""
    for node in ast.walk(module.tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        if not (isinstance(func, ast.Attribute) and func.attr == "emit"):
            continue
        if not node.args:
            continue
        first = node.args[0]
        if isinstance(first, ast.Constant) and isinstance(
            first.value, str
        ):
            yield first.value, node.lineno


_KIND_MEMBERS = ("kind",)


def _is_kind_expr(node: ast.AST) -> bool:
    """``kind``, ``event["kind"]``, or ``e.kind`` — the idioms consumer
    dispatch uses."""
    if isinstance(node, ast.Name):
        return node.id in _KIND_MEMBERS
    if isinstance(node, ast.Attribute):
        return node.attr in _KIND_MEMBERS
    if isinstance(node, ast.Subscript):
        sl = node.slice
        return isinstance(sl, ast.Constant) and sl.value in _KIND_MEMBERS
    return False


def _literal_kind_comparisons(
    module: ModuleInfo,
) -> Iterator[Tuple[str, int]]:
    """String literals compared (==, !=, in, not in) against a kind
    expression in a consumer module."""
    for node in ast.walk(module.tree):
        if not isinstance(node, ast.Compare):
            continue
        sides: List[ast.AST] = [node.left] + list(node.comparators)
        if not any(_is_kind_expr(side) for side in sides):
            continue
        for side in sides:
            if _is_kind_expr(side):
                continue
            for leaf in ast.walk(side):
                if isinstance(leaf, ast.Constant) and isinstance(
                    leaf.value, str
                ):
                    yield leaf.value, leaf.lineno
