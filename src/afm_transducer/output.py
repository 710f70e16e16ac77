"""Deterministic CSV and JSON emission.

Identical inputs produce byte-identical outputs: floats are rendered in
a fixed lowercase scientific form, column order is fixed by the caller
and provenance entries keep insertion order.
"""

from __future__ import annotations

import json
from typing import Any, Iterable

__all__ = ["format_float", "render_csv", "render_json", "emit"]

# '{:.12e}' writes a sign and at least two digits in the exponent; these
# passes, in this order, drop the plus sign and the leading zeros
_EXPONENT_COMPACTION = (("e+00", "e0"), ("e+0", "e"), ("e-0", "e-"), ("e+", "e"))


def _format_floats(values: Iterable[float]) -> list[str]:
    """Render floats as 'd.dddddddddddde<exp>', compacting every exponent in one text."""
    text = "\n".join(map("{:.12e}".format, values))
    for old, new in _EXPONENT_COMPACTION:
        text = text.replace(old, new)
    return text.split("\n")


def format_float(x: float) -> str:
    """Render a float as 'd.dddddddddddde<exp>' with a compact exponent.

    Twelve fractional mantissa digits, lowercase 'e', no plus sign and no
    leading zeros in the exponent: 0.0 renders as '0.000000000000e0' and
    7e-10 as '7.000000000000e-10'.  Non-finite values render as 'nan',
    'inf' and '-inf', which ``float()`` parses back.
    """
    return _format_floats((x,))[0]


def _render_cell(value: Any) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return format_float(value)
    text = str(value)
    if "," in text or "\n" in text:
        raise ValueError(f"cell value {text!r} would break the unquoted CSV layout")
    return text


def _render_column(values: tuple) -> list[str]:
    """Render one column: all-float columns in one pass, others once per distinct value."""
    kinds = set(map(type, values))
    if all(issubclass(kind, float) for kind in kinds):
        return _format_floats(values)
    if len(kinds) > 1:
        # True, 1 and 1.0 are equal keys, so a mixed column renders cell by cell
        return list(map(_render_cell, values))
    rendered = {value: _render_cell(value) for value in set(values)}
    return list(map(rendered.__getitem__, values))


def render_csv(columns: Iterable[str], rows: Iterable[tuple], provenance: dict) -> bytes:
    """Comment-prefixed provenance, fixed header, one line per row."""
    lines = [f"# {key} = {_render_cell(value)}" for key, value in provenance.items()]
    lines.append(",".join(columns))
    lines.extend(map(",".join, zip(*map(_render_column, zip(*rows)))))
    return ("\n".join(lines) + "\n").encode("utf-8")


def render_json(columns: Iterable[str], rows: Iterable[tuple], provenance: dict) -> bytes:
    """Stable-order JSON document that parses back to the same payload."""
    payload = {
        "provenance": dict(provenance),
        "columns": list(columns),
        "rows": [list(row) for row in rows],
    }
    return (json.dumps(payload, indent=2) + "\n").encode("utf-8")


def emit(columns: Iterable[str], rows: Iterable[tuple], provenance: dict, fmt: str) -> bytes:
    if fmt == "csv":
        return render_csv(columns, rows, provenance)
    if fmt == "json":
        return render_json(columns, rows, provenance)
    raise ValueError(f"unknown output format {fmt!r}")
