"""Rule R4 — cache-key completeness: result-affecting fields reach keys.

PR 4's latent staleness bug was exactly this shape: the service result
cache keyed answers without the table's streaming version, so an
append could leave a pre-append answer reachable at a post-append
version.  The field existed; the key builder just never looked at it.

Convention — a function that builds a cache key (or fingerprint) for
a dataclass declares it on its ``def`` line::

    def config_key(config):  # cache-key-of: AtlasConfig
        ...

    # exemptions carry their rationale in the marker itself:
    def result_cache_key(...):  # cache-key-of: ExploreRequest (exempt: use_cache)

The rule then requires every field of the named dataclass to be
*visible* in the builder: mentioned as an identifier (attribute access
or parameter name), as a string literal (dict keys, spec strings), or
covered wholesale by a ``.to_dict()`` / ``dataclasses.fields`` call.
Identifier visibility extends one hop into the helpers the builder
calls — same-module functions, and functions it imports by name from
another analyzed module — so a builder that delegates part of the key
(the result-cache key's ``config_key`` call) is not forced to re-name
every field locally.

Cross-module by design: the dataclass and its key builder usually live
in different files (``AtlasConfig`` in ``repro.core.config``, its key
in ``repro.engine.contexts``), so this rule runs in the project-wide
pass.  A marker naming a class the analyzed file set never defines is
itself a finding — a typo would otherwise disable the check silently.
"""

from __future__ import annotations

import ast
import re
from collections.abc import Iterator, Sequence

from repro.analysis.findings import Finding
from repro.analysis.module import ModuleInfo
from repro.analysis.registry import Rule, register_rule
from repro.analysis.rules.serde import _dataclass_fields, _is_dataclass

_MARKER_RE = re.compile(
    r"cache-key-of:\s*(\w+)(?:\s*\(exempt:\s*([^)]*)\))?"
)


def _identifier_surface(fn: ast.AST) -> tuple[set[str], bool, set[str]]:
    """(visible names, dynamic flag, locally-called function names).

    Visible names are attribute names, bare identifiers, and string
    constants; the dynamic flag is set by ``.to_dict()`` calls or
    ``dataclasses.fields`` references (full coverage by construction).
    """
    names: set[str] = set()
    dynamic = False
    calls: set[str] = set()
    for node in ast.walk(fn):
        if isinstance(node, ast.Attribute):
            names.add(node.attr)
            if node.attr in ("to_dict", "fields"):
                dynamic = True
        elif isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.arg):
            names.add(node.arg)
        elif isinstance(node, ast.Constant) and isinstance(
            node.value, str
        ):
            names.add(node.value)
        if isinstance(node, ast.Call):
            # Callee resolution is by bare name against this module's
            # functions — enough to follow ``self._helper(...)``,
            # ``Class._helper(...)``, and plain ``helper(...)`` hops.
            target = node.func
            if isinstance(target, ast.Name):
                calls.add(target.id)
            elif isinstance(target, ast.Attribute):
                calls.add(target.attr)
    return names, dynamic, calls


def _functions(
    tree: ast.Module,
) -> "dict[str, ast.FunctionDef | ast.AsyncFunctionDef]":
    """Every function in a module by bare name (methods included)."""
    return {
        node.name: node
        for node in ast.walk(tree)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
    }


def _imported_functions(tree: ast.Module, functions_by_module: dict) -> dict:
    """Functions bound by ``from <module> import <name>`` from another
    analyzed file (``src/repro/x.py`` is module ``repro.x``)."""
    return {
        alias.asname or alias.name: functions[alias.name]
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.module
        for path, functions in functions_by_module.items()
        if ("." + path).endswith("." + node.module)
        for alias in node.names
        if alias.name in functions
    }


@register_rule
class CacheKeyRule(Rule):
    """R4: every dataclass field reaches its declared key builder."""

    id = "R4"
    name = "cache-key-completeness"
    description = (
        "fields of a dataclass named by '# cache-key-of: Class' must "
        "be visible in the key-builder function"
    )

    def check_project(
        self, modules: Sequence[ModuleInfo]
    ) -> Iterator[Finding]:
        fields_by_class: dict[str, list[str]] = {}
        for module in modules:
            for node in ast.walk(module.tree):
                if isinstance(node, ast.ClassDef) and _is_dataclass(node):
                    fields_by_class[node.name] = _dataclass_fields(node)
        functions_by_module = {
            module.rel_path.removesuffix(".py").replace("/", "."):
                _functions(module.tree)
            for module in modules
        }
        for module in modules:
            yield from self._check_module_builders(
                module, fields_by_class, functions_by_module
            )

    def _check_module_builders(
        self,
        module: ModuleInfo,
        fields_by_class: dict[str, list[str]],
        functions_by_module: dict,
    ) -> Iterator[Finding]:
        local_functions = _functions(module.tree)
        helpers = {
            **_imported_functions(module.tree, functions_by_module),
            **local_functions,
        }
        for name, fn in local_functions.items():
            marker = _MARKER_RE.search(module.def_comment(fn))
            if not marker:
                continue
            class_name = marker.group(1)
            exempt = frozenset(
                part.strip()
                for part in (marker.group(2) or "").split(",")
                if part.strip()
            )
            fields = fields_by_class.get(class_name)
            if fields is None:
                yield self.finding(
                    module,
                    fn.lineno,
                    fn.col_offset + 1,
                    f"cache-key-of names {class_name!r}, which is not a "
                    "dataclass in the analyzed files; fix the marker or "
                    "widen the file set",
                    symbol=name,
                )
                continue
            visible, dynamic, calls = _identifier_surface(fn)
            if not dynamic:
                # One hop into the helpers the builder calls: a
                # delegated key component still counts as covered.
                for callee_name in calls:
                    callee = helpers.get(callee_name)
                    if callee is None or callee is fn:
                        continue
                    callee_names, callee_dynamic, _ = (
                        _identifier_surface(callee)
                    )
                    visible |= callee_names
                    dynamic = dynamic or callee_dynamic
            for field in fields:
                if field.startswith("_") or field in exempt:
                    continue
                if dynamic or field in visible:
                    continue
                yield self.finding(
                    module,
                    fn.lineno,
                    fn.col_offset + 1,
                    f"{class_name}.{field} never reaches cache-key "
                    f"builder {name}(); a value differing only in "
                    f"{field!r} would collide in the cache",
                    symbol=name,
                )
