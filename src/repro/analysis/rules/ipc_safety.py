"""Rule ``ipc-safety``: nothing statically unpicklable on IPC paths.

Everything handed to the partitioned engine's process boundary — the
executors' ``submit`` / ``submit_batch`` / ``migrate`` / ``adopt``
surface, pipe ``send`` calls, and ``Process(...)`` construction — is
pickled (or block-encoded) to cross it.  Three expression shapes are
*never* picklable and fail only at runtime, possibly deep inside a
worker:

* ``lambda`` expressions (pickle refuses functions without a module
  path);
* generator expressions (live frames cannot be serialized);
* freshly ``open(...)``-ed file objects (OS handles do not travel).

This rule flags any of the three appearing as an argument — bare or
nested inside tuple/list/set/dict display literals, the shape protocol
messages actually take (``conn.send((MSG_BATCH, payload))``) — of a
call to one of :data:`IPC_CALLEES` or a ``Process`` constructor.  A
plain name that happens to be bound to a lambda is out of scope (no
data-flow analysis); the rule catches the written-in-place cases, which
is where this mistake actually occurs.
"""

from __future__ import annotations

import ast
from typing import Iterable, List, Optional

from ..astutils import call_attr, flatten_container_values
from ..core import Finding, ModuleIndex, Rule, register

#: Method/function names whose arguments cross a process boundary.
#: ``send`` is a pipe's or a :class:`~repro.parallel.channel.Channel`'s
#: (which pickles the message whichever carrier it then takes) and
#: ``_send`` the executor's typed-failure wrapper around it; the
#: carriers below take bytes that are already pickled.
IPC_CALLEES = (
    "submit",
    "submit_batch",
    "migrate",
    "adopt",
    "send",
    "_send",
)

#: Constructor names treated as process spawns.
PROCESS_CONSTRUCTORS = ("Process",)


def _unpicklable_reason(node: ast.AST) -> Optional[str]:
    if isinstance(node, ast.Lambda):
        return "a lambda is not picklable (no module-level name)"
    if isinstance(node, ast.GeneratorExp):
        return "a generator expression is not picklable (live frame)"
    if (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id == "open"
    ):
        return "an open file object is not picklable (OS handle)"
    return None


@register
class IpcSafetyRule(Rule):
    name = "ipc-safety"
    summary = (
        "arguments of submit/migrate/adopt/send and Process(...) must not "
        "contain lambdas, generator expressions, or open files"
    )

    def check(self, index: ModuleIndex) -> Iterable[Finding]:
        findings: List[Finding] = []
        for module in index.modules:
            for node in module.walk():
                if not isinstance(node, ast.Call):
                    continue
                callee = call_attr(node)
                if callee in IPC_CALLEES:
                    context = f"argument of {callee}()"
                elif callee in PROCESS_CONSTRUCTORS:
                    context = f"argument of {callee}(...)"
                else:
                    continue
                arguments = list(node.args) + [
                    keyword.value for keyword in node.keywords
                ]
                for argument in arguments:
                    for value in flatten_container_values(argument):
                        reason = _unpicklable_reason(value)
                        if reason is None:
                            continue
                        findings.append(
                            Finding(
                                self.name,
                                module.path,
                                getattr(value, "lineno", node.lineno),
                                getattr(value, "col_offset", node.col_offset),
                                f"{context} crosses a process boundary but "
                                f"{reason}; pass a module-level callable or "
                                "block-encodable data instead",
                            )
                        )
        return findings
