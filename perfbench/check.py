"""Read a study's user-visible outputs and compare them with a reference.

A study invocation leaves three things a user sees: its exit code, the
summary lines it prints (``<experiment>: key = value`` and a final
``<experiment>: PASS|FAIL``), and the CSV files in ``--out``.  The
reference holds the same three, recorded from the seed commit.

"Same behaviour" follows the repository ROADMAP:

* the exit code and the PASS/FAIL verdict are identical;
* every summary statistic and every numeric report cell agrees to
  1e-12 relative;
* every singular value agrees to 1e-13 times the largest one, s_1;
* every value that is exactly 0.0 in the reference is exactly 0.0.

``config.cfg`` is not compared: it echoes the inputs, seed included.
"""

from __future__ import annotations

import gzip
import json
import math
from pathlib import Path

REL_TOL = 1e-12
SPECTRUM_TOL = 1e-13

_ROW_NUMERIC = ("schatten", "besov", "ratio")


def _number_or_text(text: str):
    try:
        return float(text)
    except ValueError:
        return text


def parse_summary(stdout: str) -> tuple[dict, str | None]:
    """Summary statistics and verdict from the lines a study prints."""
    summary, verdict = {}, None
    for line in stdout.splitlines():
        head, sep, body = line.partition(": ")
        if not sep:
            continue
        if body in ("PASS", "FAIL"):
            verdict = body
            continue
        key, eq, value = body.partition(" = ")
        if eq:
            summary[f"{head}.{key}"] = _number_or_text(value)
    return summary, verdict


def parse_rows(text: str) -> list:
    """ratios.csv as [experiment, symbol, N, schatten, besov, ratio, aux, note]."""
    lines = text.splitlines()
    if not lines or lines[0] != "experiment,symbol,N,schatten,besov,ratio,aux,note":
        raise ValueError("unexpected ratios.csv header")
    rows = []
    for line in lines[1:]:
        # the note is last and may itself contain commas
        experiment, symbol, N, schatten, besov, ratio, aux, note = line.split(",", 7)
        aux_map = {}
        for item in filter(None, aux.split(";")):
            key, _, value = item.partition("=")
            aux_map[key] = _number_or_text(value)
        rows.append(
            [experiment, symbol, int(N), *(_number_or_text(v) for v in (schatten, besov, ratio)), aux_map, note]
        )
    return rows


def parse_spectrum(text: str) -> dict:
    """spectrum_*.csv as {"values": [...], "summary": [...] or None}."""
    lines = text.splitlines()
    if not lines or lines[0] != "k,s_k":
        raise ValueError("unexpected spectrum header")
    values, summary = [], None
    for i, line in enumerate(lines[1:], start=1):
        if line.startswith("p,"):
            summary = [float(v) for v in lines[i + 1].split(",")]
            break
        values.append(float(line.split(",")[1]))
    return {"values": values, "summary": summary}


def parse_outputs(exit_code: int, stdout: str, out_dir) -> dict:
    """Everything one study invocation produced, in reference form."""
    out_dir = Path(out_dir)
    summary, verdict = parse_summary(stdout)
    rows_path = out_dir / "ratios.csv"
    return {
        "exit_code": exit_code,
        "verdict": verdict,
        "summary": summary,
        "rows": parse_rows(rows_path.read_text()) if rows_path.exists() else None,
        "spectra": {p.name: parse_spectrum(p.read_text()) for p in sorted(out_dir.glob("spectrum_*.csv"))},
    }


def close(ref, got) -> bool:
    """Scalar agreement: NaN matches NaN, reference zeros stay exact zeros,
    otherwise 1e-12 relative; text must match exactly."""
    if isinstance(ref, str) or isinstance(got, str):
        return ref == got
    if math.isnan(ref):
        return math.isnan(got)
    if ref == 0.0 or math.isinf(ref):
        return got == ref
    return abs(got - ref) <= REL_TOL * abs(ref)


def compare_spectrum(ref: list, got: list) -> str | None:
    if len(ref) != len(got):
        return f"length {len(got)} != {len(ref)}"
    tol = SPECTRUM_TOL * max((abs(v) for v in ref), default=0.0)
    for k, (r, g) in enumerate(zip(ref, got), start=1):
        if r == 0.0 and g != 0.0:
            return f"s_{k} = {g!r} where the reference is exactly 0"
        if not abs(g - r) <= tol:
            return f"s_{k} = {g!r} vs {r!r} (tolerance {tol:.3g})"
    return None


def compare(ref: dict, got: dict) -> list:
    """Differences between two parsed outputs; empty when they agree."""
    problems = []
    for key in ("exit_code", "verdict"):
        if got[key] != ref[key]:
            problems.append(f"{key} {got[key]!r} != {ref[key]!r}")
    if set(got["summary"]) != set(ref["summary"]):
        problems.append(f"summary keys {sorted(got['summary'])} != {sorted(ref['summary'])}")
    for key in sorted(set(got["summary"]) & set(ref["summary"])):
        if not close(ref["summary"][key], got["summary"][key]):
            problems.append(f"summary {key} = {got['summary'][key]!r} vs {ref['summary'][key]!r}")
    problems += _compare_rows(ref["rows"], got["rows"])
    if set(got["spectra"]) != set(ref["spectra"]):
        problems.append(f"spectrum files {sorted(got['spectra'])} != {sorted(ref['spectra'])}")
    for name in sorted(set(got["spectra"]) & set(ref["spectra"])):
        r, g = ref["spectra"][name], got["spectra"][name]
        issue = compare_spectrum(r["values"], g["values"])
        if issue:
            problems.append(f"{name}: {issue}")
        rs, gs = r["summary"] or [], g["summary"] or []
        if len(rs) != len(gs) or not all(map(close, rs, gs)):
            problems.append(f"{name}: summary row {g['summary']!r} vs {r['summary']!r}")
    return problems


def _compare_rows(ref, got) -> list:
    if ref is None or got is None:
        return [] if ref is got else ["ratios.csv present in only one of output and reference"]
    if len(ref) != len(got):
        return [f"ratios.csv has {len(got)} rows, reference {len(ref)}"]
    problems = []
    for i, (r, g) in enumerate(zip(ref, got)):
        label = f"row {i} ({r[1]}, N={r[2]})"
        if (g[0], g[1], g[2], g[7]) != (r[0], r[1], r[2], r[7]):
            problems.append(f"{label}: labels {g[:3] + g[7:]} != {r[:3] + r[7:]}")
        for j, col in enumerate(_ROW_NUMERIC, start=3):
            if not close(r[j], g[j]):
                problems.append(f"{label}: {col} = {g[j]!r} vs {r[j]!r}")
        if set(g[6]) != set(r[6]):
            problems.append(f"{label}: aux keys {sorted(g[6])} != {sorted(r[6])}")
        for key in sorted(set(g[6]) & set(r[6])):
            if not close(r[6][key], g[6][key]):
                problems.append(f"{label}: aux {key} = {g[6][key]!r} vs {r[6][key]!r}")
    return problems


def load_reference(path) -> dict:
    with gzip.open(path, "rt", encoding="utf-8") as fh:
        return json.load(fh)


def save_reference(path, data: dict):
    # mtime=0 keeps the file byte-identical when the content is
    with open(path, "wb") as raw, gzip.GzipFile(fileobj=raw, mode="wb", mtime=0) as gz:
        gz.write((json.dumps(data, indent=0, sort_keys=True) + "\n").encode("utf-8"))
