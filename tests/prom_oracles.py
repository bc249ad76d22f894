"""The scraper-side Prometheus 0.0.4 parser the test suite reads
``/metrics`` and ``obs prom`` output back with.

The library only encodes (:mod:`repro.obs.promfmt`); a scraper parses.
:func:`parse_prometheus_text` is that scraper: it turns exposition text
back into :class:`~repro.obs.promfmt.MetricFamily` objects with the
structural validation a scraper performs (known types, escaped labels,
cumulative non-decreasing buckets ending in ``+Inf``), so the tests can
pin the round trip ``parse(render(f)) == f``.  The module has no
``test_`` prefix, so pytest imports it without collecting it.
"""

from __future__ import annotations

import math
import re

from repro.errors import ValidationError
from repro.obs.promfmt import _VALID_TYPES, MetricFamily, Sample

def _unescape(value: str) -> str:
    out: list[str] = []
    i = 0
    while i < len(value):
        ch = value[i]
        if ch == "\\" and i + 1 < len(value):
            nxt = value[i + 1]
            if nxt == "n":
                out.append("\n")
            elif nxt in ('"', "\\"):
                out.append(nxt)
            else:
                out.append(ch)
                out.append(nxt)
            i += 2
            continue
        out.append(ch)
        i += 1
    return "".join(out)


def _parse_labels(text: str, line_no: int) -> tuple[tuple[str, str], ...]:
    labels: list[tuple[str, str]] = []
    i = 0
    while i < len(text):
        match = re.match(r'\s*([a-zA-Z_][a-zA-Z0-9_]*)\s*=\s*"', text[i:])
        if match is None:
            raise ValidationError(
                f"line {line_no}: malformed label pair near {text[i:]!r}"
            )
        name = match.group(1)
        i += match.end()
        value_chars: list[str] = []
        while i < len(text):
            ch = text[i]
            if ch == "\\" and i + 1 < len(text):
                value_chars.append(text[i : i + 2])
                i += 2
                continue
            if ch == '"':
                break
            value_chars.append(ch)
            i += 1
        else:
            raise ValidationError(
                f"line {line_no}: unterminated label value"
            )
        i += 1  # closing quote
        labels.append((name, _unescape("".join(value_chars))))
        rest = text[i:].lstrip()
        if rest.startswith(","):
            i = len(text) - len(rest) + 1
            continue
        if rest:
            raise ValidationError(
                f"line {line_no}: trailing garbage in label set: {rest!r}"
            )
        break
    return tuple(labels)


def _parse_value(text: str, line_no: int) -> float:
    token = text.strip().split()[0] if text.strip() else ""
    if token in ("+Inf", "Inf"):
        return math.inf
    if token == "-Inf":
        return -math.inf
    if token == "NaN":
        return math.nan
    try:
        return float(token)
    except ValueError as exc:
        raise ValidationError(
            f"line {line_no}: invalid sample value {token!r}"
        ) from exc


def _family_of(sample_name: str, families: dict[str, MetricFamily]) -> str:
    if sample_name in families:
        return sample_name
    for suffix in ("_bucket", "_sum", "_count"):
        if sample_name.endswith(suffix):
            base = sample_name[: -len(suffix)]
            if base in families and families[base].kind == "histogram":
                return base
    return sample_name


def _check_histogram(family: MetricFamily) -> None:
    """Validate the cumulative-bucket invariants of one histogram family.

    Buckets are grouped by their non-``le`` labels so one family may
    carry several labelled series (one per endpoint)."""
    series: dict[tuple[tuple[str, str], ...], list[tuple[float, float]]] = {}
    counts: dict[tuple[tuple[str, str], ...], float] = {}
    for sample in family.samples:
        if sample.name == family.name + "_bucket":
            rest = tuple(
                (k, v) for k, v in sample.labels if k != "le"
            )
            le = dict(sample.labels).get("le")
            if le is None:
                raise ValidationError(
                    f"{family.name}: bucket sample missing 'le' label"
                )
            bound = math.inf if le == "+Inf" else float(le)
            series.setdefault(rest, []).append((bound, sample.value))
        elif sample.name == family.name + "_count":
            counts[sample.labels] = sample.value
    for rest, buckets in series.items():
        bounds = [b for b, _ in buckets]
        if bounds != sorted(bounds):
            raise ValidationError(
                f"{family.name}: bucket bounds not sorted for {rest!r}"
            )
        if not buckets or not math.isinf(buckets[-1][0]):
            raise ValidationError(
                f"{family.name}: histogram series {rest!r} lacks a "
                "+Inf bucket"
            )
        values = [v for _, v in buckets]
        if any(nxt < prev for prev, nxt in zip(values, values[1:])):
            raise ValidationError(
                f"{family.name}: bucket counts not cumulative for {rest!r}"
            )
        expected = counts.get(rest)
        if expected is not None and values[-1] != expected:
            raise ValidationError(
                f"{family.name}: +Inf bucket {values[-1]} != _count "
                f"{expected} for {rest!r}"
            )


def parse_prometheus_text(text: str) -> dict[str, MetricFamily]:
    """Parse 0.0.4 exposition text back into metric families.

    Performs the structural checks a scraper would: valid names and
    types, well-formed label sets, parseable values, and (for
    histograms) sorted cumulative buckets terminated by ``+Inf`` whose
    total agrees with ``_count``.  Raises
    :class:`~repro.errors.ValidationError` on any violation.
    """
    families: dict[str, MetricFamily] = {}
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        if line.startswith("# HELP "):
            parts = line[len("# HELP ") :].split(None, 1)
            if not parts:
                raise ValidationError(f"line {line_no}: bare HELP line")
            name = parts[0]
            help_text = _unescape(parts[1]) if len(parts) > 1 else ""
            family = families.setdefault(
                name, MetricFamily(name=name, kind="untyped")
            )
            family.help = help_text
            continue
        if line.startswith("# TYPE "):
            parts = line[len("# TYPE ") :].split()
            if len(parts) != 2:
                raise ValidationError(
                    f"line {line_no}: malformed TYPE line {line!r}"
                )
            name, kind = parts
            if kind not in _VALID_TYPES:
                raise ValidationError(
                    f"line {line_no}: unknown metric type {kind!r}"
                )
            family = families.setdefault(
                name, MetricFamily(name=name, kind=kind)
            )
            family.kind = kind
            continue
        if line.startswith("#"):
            continue  # comment
        match = re.match(r"^([a-zA-Z_:][a-zA-Z0-9_:]*)", line)
        if match is None:
            raise ValidationError(
                f"line {line_no}: malformed sample line {line!r}"
            )
        sample_name = match.group(1)
        rest = line[match.end() :]
        labels: tuple[tuple[str, str], ...] = ()
        if rest.startswith("{"):
            end = _label_block_end(rest, line_no)
            labels = _parse_labels(rest[1:end], line_no)
            rest = rest[end + 1 :]
        value = _parse_value(rest, line_no)
        family_name = _family_of(sample_name, families)
        family = families.setdefault(
            family_name, MetricFamily(name=family_name, kind="untyped")
        )
        family.samples.append(
            Sample(name=sample_name, value=value, labels=labels)
        )
    for family in families.values():
        if family.kind == "histogram":
            _check_histogram(family)
    return families


def _label_block_end(text: str, line_no: int) -> int:
    """Index of the ``}`` closing the label block opened at ``text[0]``."""
    i = 1
    in_quotes = False
    while i < len(text):
        ch = text[i]
        if ch == "\\" and in_quotes:
            i += 2
            continue
        if ch == '"':
            in_quotes = not in_quotes
        elif ch == "}" and not in_quotes:
            return i
        i += 1
    raise ValidationError(f"line {line_no}: unterminated label block")


