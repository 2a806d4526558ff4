"""RPL003 — thread-core tasks stay free of non-reentrant state.

PR 7's thread executor runs ``@thread_core`` tasks concurrently while
ctypes has released the GIL inside the native kernels.  The decorators
in :mod:`repro.util.reentrancy` record the contract; this rule makes
it permanent: a function marked ``@thread_core`` must not

- declare ``global`` (writing module globals races across tasks), nor
- call any function marked ``@non_reentrant(reason)`` — collected
  across *all* scanned files in a pre-pass, so marking a helper
  non-reentrant in one module immediately protects every thread core
  that calls it from anywhere.

Matching is by terminal name (``_worker_init`` and
``sharded._worker_init`` both hit a registered ``_worker_init``), which
errs on the safe side for the handful of audited names involved.
"""

from __future__ import annotations

import ast
from typing import Dict, List

from tools.repro_lint.diagnostics import Diagnostic


def _decorator_name(node: ast.expr) -> str:
    """Terminal name of a decorator expression (call or bare)."""
    if isinstance(node, ast.Call):
        node = node.func
    while isinstance(node, ast.Attribute):
        return node.attr
    if isinstance(node, ast.Name):
        return node.id
    return ""


def _call_name(node: ast.Call) -> str:
    """Terminal name of a call target (``pkg.mod.fn`` -> ``fn``)."""
    func = node.func
    if isinstance(func, ast.Attribute):
        return func.attr
    if isinstance(func, ast.Name):
        return func.id
    return ""


class ThreadCoreReentrancy:
    id = "RPL003"
    title = "@thread_core functions: no globals, no @non_reentrant calls"

    def __init__(self) -> None:
        #: non-reentrant function name -> "path:line" of its marking.
        self._non_reentrant: Dict[str, str] = {}

    def collect(self, ctx) -> None:
        """Pre-pass: register every ``@non_reentrant`` function name."""
        for node in ast.walk(ctx.tree):
            if not isinstance(
                node, (ast.FunctionDef, ast.AsyncFunctionDef)
            ):
                continue
            for decorator in node.decorator_list:
                if _decorator_name(decorator) == "non_reentrant":
                    self._non_reentrant[node.name] = (
                        f"{ctx.display}:{node.lineno}"
                    )

    def check(self, ctx) -> List[Diagnostic]:
        diagnostics: List[Diagnostic] = []
        for node in ast.walk(ctx.tree):
            if not isinstance(
                node, (ast.FunctionDef, ast.AsyncFunctionDef)
            ):
                continue
            if not any(
                _decorator_name(decorator) == "thread_core"
                for decorator in node.decorator_list
            ):
                continue
            for inner in ast.walk(node):
                if isinstance(inner, ast.Global):
                    diagnostics.append(
                        Diagnostic(
                            ctx.display, inner.lineno, inner.col_offset,
                            self.id,
                            f"thread-core task {node.name!r} declares"
                            f" global {', '.join(inner.names)}; module"
                            " globals race across concurrent tasks —"
                            " pass state through arguments",
                        )
                    )
                elif isinstance(inner, ast.Call):
                    name = _call_name(inner)
                    marked_at = self._non_reentrant.get(name)
                    if marked_at is not None:
                        diagnostics.append(
                            Diagnostic(
                                ctx.display, inner.lineno,
                                inner.col_offset, self.id,
                                f"thread-core task {node.name!r} calls"
                                f" {name}(), marked @non_reentrant at"
                                f" {marked_at}; it mutates cross-thread"
                                " state and must not run inside"
                                " concurrent tasks",
                            )
                        )
        return diagnostics
