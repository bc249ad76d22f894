"""Text profile tree of a :class:`~repro.obs.trace.Trace` session.

``format_profile`` renders the span hierarchy as an indented tree,
merging sibling spans that share a name (a cross-validation run opens
one ``crossval.fold`` span per fold; the profile shows one line with
``count=8``).  Each line reports total seconds, the share of the parent
line's time, and the call count; the header reports *coverage* -- the
fraction of session wall time accounted for by recorded root spans,
which the CLI acceptance gate holds above 95 %.

Counters, gauges and an event tally follow the tree, so a single
``--profile`` dump answers "where did the time go, and did the solver
converge" at once.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.obs.trace import SpanRecord, Trace

__all__ = ["format_profile", "profile_coverage"]


@dataclass
class _Node:
    """Aggregated profile line: same-named siblings merged."""

    name: str
    seconds: float = 0.0
    count: int = 0
    errors: int = 0
    children: dict[str, "_Node"] = field(default_factory=dict)


def _aggregate(
    spans: list[SpanRecord], by_parent: dict[int | None, list[SpanRecord]]
) -> dict[str, _Node]:
    nodes: dict[str, _Node] = {}
    for span in spans:
        node = nodes.setdefault(span.name, _Node(span.name))
        node.seconds += span.seconds
        node.count += 1
        if span.status != "ok":
            node.errors += 1
        children = by_parent.get(span.span_id, [])
        if children:
            merged = _aggregate(children, by_parent)
            for name, child in merged.items():
                into = node.children.setdefault(name, _Node(name))
                into.seconds += child.seconds
                into.count += child.count
                into.errors += child.errors
                _merge_children(into, child)
    return nodes


def _merge_children(into: _Node, other: _Node) -> None:
    for name, child in other.children.items():
        target = into.children.setdefault(name, _Node(name))
        target.seconds += child.seconds
        target.count += child.count
        target.errors += child.errors
        _merge_children(target, child)


def profile_coverage(session: Trace) -> float:
    """Fraction of session wall time covered by recorded root spans."""
    wall = session.wall_seconds
    if wall <= 0.0:
        return 0.0
    covered = sum(span.seconds for span in session.root_spans())
    return min(covered / wall, 1.0)


#: Width of the span-name column in the profile table; longer labels
#: are truncated with an ellipsis so the numeric columns stay aligned.
_LABEL_WIDTH = 44


def _fit_label(label: str, width: int = _LABEL_WIDTH) -> str:
    """``label`` padded (or ellipsis-truncated) to exactly ``width``."""
    if len(label) > width:
        return label[: width - 1] + "…"
    return f"{label:{width}s}"


def _render(
    node: _Node, parent_seconds: float, depth: int, lines: list[str]
) -> None:
    share = 100.0 * node.seconds / parent_seconds if parent_seconds > 0 else 0.0
    label = _fit_label("  " * depth + node.name)
    flag = f"  errors={node.errors}" if node.errors else ""
    lines.append(
        f"{label}{node.seconds:10.4f}s{share:7.1f}%{node.count:6d}x{flag}"
    )
    for child in sorted(
        node.children.values(), key=lambda n: -n.seconds
    ):
        _render(child, node.seconds, depth + 1, lines)


def format_profile(session: Trace) -> str:
    """Render the session as an indented profile tree plus registries."""
    by_parent: dict[int | None, list[SpanRecord]] = {}
    known = {span.span_id for span in session.spans}
    roots: list[SpanRecord] = []
    for span in session.spans:
        if span.parent_id is None or span.parent_id not in known:
            roots.append(span)
        else:
            by_parent.setdefault(span.parent_id, []).append(span)

    coverage = profile_coverage(session)
    lines = [
        f"trace {session.name}: wall {session.wall_seconds:.4f}s, "
        f"{len(session.spans)} spans, {len(session.events)} events, "
        f"coverage {100.0 * coverage:.1f}%"
    ]
    header = (
        f"{'span':{_LABEL_WIDTH}s}{'seconds':>11s}{'share':>8s}{'count':>7s}"
    )
    lines.append(header)
    root_nodes = _aggregate(roots, by_parent)
    total = sum(node.seconds for node in root_nodes.values())
    for node in sorted(root_nodes.values(), key=lambda n: -n.seconds):
        _render(node, total, 0, lines)

    if session.counters:
        lines.append("counters:")
        for name in sorted(session.counters):
            lines.append(f"  {name} = {session.counters[name]:g}")
    if session.gauges:
        lines.append("gauges:")
        for name in sorted(session.gauges):
            lines.append(f"  {name} = {session.gauges[name]:g}")
    if session.events:
        tally: dict[str, int] = {}
        for event in session.events:
            tally[event.name] = tally.get(event.name, 0) + 1
        lines.append("events:")
        for name in sorted(tally):
            lines.append(f"  {name} x {tally[name]}")
    return "\n".join(lines)
