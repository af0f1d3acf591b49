"""Tiny key=value text format shared by config files and export sidecars.

One `key = value` pair per line; `#` starts a comment.  Values are
parsed as int, float, bool, a comma-separated list of those, or left as
strings.  Writing is deterministic: keys in insertion order, floats in
repr form (shortest round-trip), lists comma-joined.  Writing refuses a
pair that would not read back exactly as given.
"""

from __future__ import annotations

__all__ = ["parse_kv_text", "format_kv", "read_kv_file", "write_kv_file"]


def _parse_scalar(tok: str):
    s = tok.strip()
    if s.lower() in ("true", "false"):
        return s.lower() == "true"
    try:
        return int(s)
    except ValueError:
        pass
    try:
        return float(s)
    except ValueError:
        pass
    return s


def _parse_value(raw: str):
    s = raw.strip()
    if "," in s:
        return [_parse_scalar(t) for t in s.split(",") if t.strip() != ""]
    return _parse_scalar(s)


def parse_kv_text(text: str) -> dict:
    """The pairs of `text`, or a ValueError naming the line that breaks
    the format: one with no '=' or an empty key, or a key set before (both
    lines named), which would otherwise drop the first value silently."""
    out, lines = {}, {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        body = line.split("#", 1)[0].strip()
        if not body:
            continue
        if "=" not in body:
            raise ValueError(f"line {lineno}: expected 'key = value', got {line!r}")
        key, raw = (part.strip() for part in body.split("=", 1))
        if not key:
            raise ValueError(f"line {lineno}: empty key in {line!r}")
        if key in lines:
            raise ValueError(f"line {lineno}: key {key!r} is already set on line {lines[key]}")
        lines[key] = lineno
        out[key] = _parse_value(raw)
    return out


def _format_scalar(v) -> str:
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, float):
        return repr(v)
    return str(v)


def format_kv(data: dict) -> str:
    """The text of `data`, or a ValueError naming the first pair that
    would not read back exactly as given.

    A list of fewer than two items ends in a comma, so it reads back as
    a list.  Refused, for example: strings that parse as another type
    ('1', 'true', 'x,y'), strings with surrounding blanks, a '#' or a
    line break, NaN, and nested lists.
    """
    lines = []
    for key, val in data.items():
        if isinstance(val, (list, tuple)):
            rendered = ", ".join(_format_scalar(v) for v in val) + ("," if len(val) < 2 else "")
            expected = list(val)
        else:
            rendered = _format_scalar(val)
            expected = val
        line = f"{key} = {rendered}"
        try:
            exact = parse_kv_text(line) == {key: expected}
        except ValueError:
            exact = False
        if not exact:
            raise ValueError(f"key {key!r}: value {val!r} would not read back unchanged")
        lines.append(line)
    return "\n".join(lines) + "\n"


def read_kv_file(path) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_kv_text(fh.read())


def write_kv_file(path, data: dict):
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(format_kv(data))
