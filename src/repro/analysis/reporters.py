"""Render ``repro-lint`` violations as text or JSON.

Reporters are pure string producers; printing is the CLI's job (the
``no-print`` rule applies to this package too).
"""

from __future__ import annotations

import json
from collections.abc import Sequence

from repro.analysis.violations import Violation


def render_text(violations: Sequence[Violation]) -> str:
    """GCC-style ``path:line:col: [rule] message`` lines plus a summary."""
    lines = [violation.format() for violation in violations]
    count = len(violations)
    if count == 0:
        lines.append("repro-lint: clean (0 violations)")
    else:
        plural = "s" if count != 1 else ""
        lines.append(f"repro-lint: {count} violation{plural}")
    return "\n".join(lines)


def render_json(violations: Sequence[Violation]) -> str:
    """Machine-readable report: ``{"violations": [...], "count": n}``."""
    payload = {
        "violations": [violation.to_dict() for violation in violations],
        "count": len(violations),
    }
    return json.dumps(payload, indent=2, sort_keys=True)


def render(violations: Sequence[Violation], fmt: str = "text") -> str:
    """Dispatch on ``fmt`` (``"text"`` or ``"json"``)."""
    if fmt == "json":
        return render_json(violations)
    return render_text(violations)
