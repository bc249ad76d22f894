"""The violation record emitted by every ``repro-lint`` rule.

A :class:`Violation` is deliberately a plain, ordered, hashable value
object: the engine sorts them for stable reports, the reporters render
them, and tests compare them structurally.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True, order=True)
class Violation:
    """One rule firing at one source location.

    Attributes
    ----------
    path:
        File the violation was found in, as given to the engine.
    line, col:
        1-based line and 0-based column of the offending node.
    rule_id:
        Identifier of the rule that fired (e.g. ``float-eq``).
    message:
        Human-readable description of what is wrong and how to fix it.
    """

    path: str
    line: int
    col: int
    rule_id: str
    message: str

    def format(self) -> str:
        """``path:line:col: rule-id message`` -- the text-report line."""
        return f"{self.path}:{self.line}:{self.col}: [{self.rule_id}] {self.message}"

    def to_dict(self) -> dict[str, object]:
        """JSON-serialisable representation (used by the JSON reporter)."""
        return {
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "rule": self.rule_id,
            "message": self.message,
        }
