"""Rule ``protocol-exhaustiveness``: every ``MSG_*`` tag sent and handled.

The parent↔worker protocol of the partitioned engine is a set of
module-level string constants (``MSG_BATCH``, ``MSG_FLUSH``, ...) in
:mod:`repro.parallel.shard`, senders in the executors, and a dispatch
loop in ``shard_worker``.  Nothing ties the three together at runtime:
a tag added without a dispatch arm is silently misinterpreted by the
worker, a dispatch arm without a sender is dead protocol.  This rule
closes the loop statically:

* every defined ``MSG_*`` constant must appear in at least one **send**
  — as the first element of a tuple passed to a call whose callee is
  named ``send`` (:meth:`repro.parallel.channel.Channel.send`, which
  hides pipe, ring and socket alike) or ``_send`` (the executor's
  typed-failure wrapper around it);
* every defined ``MSG_*`` constant must appear in at least one
  **dispatch arm** — an ``==`` / ``!=`` comparison against it;
* a comparison against an *undefined* ``MSG_*`` name is a stale arm
  (the constant was renamed or removed) — flagged at the comparison;
* within one dispatch function, comparing the same tag twice is an
  unreachable duplicate arm;
* within a dispatch function (one that compares ``MSG_*`` names), an
  equality comparison against a raw string literal that equals one of
  the defined tag *values* bypasses the constant and silently decouples
  from renames — flagged.  (Reply tags like ``"ok"``/``"state"`` are
  not ``MSG_*`` values, so the executors' reply checks stay clean.)

The rule is inert on module sets that define no ``MSG_*`` constants.
"""

from __future__ import annotations

import ast
import re
from typing import Dict, Iterable, List, Set, Tuple

from ..astutils import call_attr, string_constants
from ..core import Finding, ModuleIndex, Rule, SourceModule, register

MSG_NAME = re.compile(r"^MSG_[A-Z0-9_]+$")

#: Callee names whose tuple arguments count as protocol sends: a
#: channel's ``send`` and the ``_send`` wrappers around it.  Everything
#: below the channel (``send_bytes``, ``send_frame``, ``write_frame``)
#: carries already-pickled bytes, never a protocol tuple.
SEND_CALLEES = ("send", "_send")


def _defined_tags(
    index: ModuleIndex,
) -> Dict[str, Tuple[SourceModule, int, str]]:
    """``MSG_X → (module, line, tag value)`` for every module-level
    string-constant assignment matching the tag naming scheme."""
    defined: Dict[str, Tuple[SourceModule, int, str]] = {}
    for module in index.modules:
        if not isinstance(module.tree, ast.Module):
            continue
        for statement in module.tree.body:
            if not isinstance(statement, ast.Assign):
                continue
            value = string_constants(statement.value)
            if value is None:
                continue
            for target in statement.targets:
                if isinstance(target, ast.Name) and MSG_NAME.match(target.id):
                    defined.setdefault(
                        target.id, (module, statement.lineno, value)
                    )
    return defined


@register
class ProtocolExhaustivenessRule(Rule):
    name = "protocol-exhaustiveness"
    summary = (
        "every MSG_* protocol tag needs both a sender and a dispatch arm; "
        "no stale, duplicate, or constant-bypassing arms"
    )

    def check(self, index: ModuleIndex) -> Iterable[Finding]:
        defined = _defined_tags(index)
        if not defined:
            return []
        findings: List[Finding] = []
        tag_values = {value: name for name, (_, _, value) in defined.items()}

        sent: Set[str] = set()
        handled: Set[str] = set()

        for module in index.modules:
            for node in module.walk():
                if isinstance(node, ast.Call):
                    self._collect_sends(node, defined, sent)
            # Dispatch arms are examined per function so duplicates are
            # scoped the way control flow is.
            for node in module.walk():
                if not isinstance(
                    node, (ast.FunctionDef, ast.AsyncFunctionDef)
                ):
                    continue
                self._check_dispatch_function(
                    module, node, defined, tag_values, handled, findings
                )

        for name in sorted(defined):
            module, line, _ = defined[name]
            if name not in handled:
                findings.append(
                    Finding(
                        self.name,
                        module.path,
                        line,
                        0,
                        f"protocol tag {name} has no dispatch arm (no "
                        "== / != comparison anywhere); receivers will "
                        "misinterpret or drop it",
                    )
                )
            if name not in sent:
                findings.append(
                    Finding(
                        self.name,
                        module.path,
                        line,
                        0,
                        f"protocol tag {name} is never sent (no tuple "
                        f"({name}, ...) passed to any "
                        f"{'/'.join(SEND_CALLEES)} call); dead protocol arm",
                    )
                )
        return findings

    def _collect_sends(
        self,
        call: ast.Call,
        defined: Dict[str, Tuple[SourceModule, int, str]],
        sent: Set[str],
    ) -> None:
        if call_attr(call) not in SEND_CALLEES:
            return
        for argument in list(call.args) + [kw.value for kw in call.keywords]:
            for node in ast.walk(argument):
                if (
                    isinstance(node, ast.Tuple)
                    and node.elts
                    and isinstance(node.elts[0], ast.Name)
                    and node.elts[0].id in defined
                ):
                    sent.add(node.elts[0].id)

    def _check_dispatch_function(
        self,
        module: SourceModule,
        function: ast.AST,
        defined: Dict[str, Tuple[SourceModule, int, str]],
        tag_values: Dict[str, str],
        handled: Set[str],
        findings: List[Finding],
    ) -> None:
        compared_here: Dict[str, int] = {}
        literal_compares: List[Tuple[int, int, str]] = []
        for node in ast.walk(function):
            if not isinstance(node, ast.Compare):
                continue
            if not all(isinstance(op, (ast.Eq, ast.NotEq)) for op in node.ops):
                continue
            for side in [node.left] + list(node.comparators):
                if isinstance(side, ast.Name) and MSG_NAME.match(side.id):
                    if side.id not in defined:
                        findings.append(
                            Finding(
                                self.name,
                                module.path,
                                node.lineno,
                                node.col_offset,
                                f"comparison against undefined protocol "
                                f"tag {side.id}; stale dispatch arm",
                            )
                        )
                        continue
                    handled.add(side.id)
                    if side.id in compared_here:
                        findings.append(
                            Finding(
                                self.name,
                                module.path,
                                node.lineno,
                                node.col_offset,
                                f"duplicate dispatch arm for {side.id} "
                                "(first compared on line "
                                f"{compared_here[side.id]}); the later arm "
                                "is unreachable",
                            )
                        )
                    else:
                        compared_here[side.id] = node.lineno
                else:
                    literal = string_constants(side)
                    if literal is not None and literal in tag_values:
                        literal_compares.append(
                            (node.lineno, node.col_offset, literal)
                        )
        if compared_here:
            # Only a function that actually dispatches on MSG_* tags is
            # held to the use-the-constant rule; elsewhere an equal
            # string literal is a coincidence, not a bypass.
            for line, col, literal in literal_compares:
                findings.append(
                    Finding(
                        self.name,
                        module.path,
                        line,
                        col,
                        f"dispatch compares against raw tag literal "
                        f"{literal!r}; use the {tag_values[literal]} "
                        "constant so renames cannot desynchronize",
                    )
                )
