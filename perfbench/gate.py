"""Correctness gate for benchmark runs, and the recorder of its references.

A run fails when any of these holds:

* its exit code is not 0, or it wrote no result;
* a ``checks`` entry in its ``summary.json`` did not pass;
* its CSV bytes differ from another run of the same config in the same
  benchmark invocation;
* for a shipped config, a numeric or boolean ``summary.json`` value, or a
  CSV value, differs from ``reference/<config>.json`` by more than
  ``rel=1e-9`` (the tolerance of the frozen acceptance constants), with an
  absolute floor of ``1e-12`` for values near zero.

The reference keeps, per CSV, the row count, per-column min / max / sum of
absolute values over all rows, and every ``stride``-th row in full, so the
comparison covers every row without storing megabytes of floats.

Re-record the references (only when a change is meant to move outputs):

    python3 perfbench/gate.py
"""

from __future__ import annotations

import json
import math
import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path

REL = 1e-9
ABS = 1e-12
SAMPLE_ROWS = 256
REFERENCE_DIR = Path(__file__).resolve().parent / "reference"
# keys whose values are text, inputs or free-form diagnostics, not results
_SKIP_KEYS = {"checks", "conventions", "seed"}


def summary_values(summary: dict) -> dict:
    """Flatten the numeric and boolean leaves of a summary to path -> value."""
    out = {}

    def walk(val, path):
        if isinstance(val, dict):
            for key, item in val.items():
                walk(item, f"{path}.{key}" if path else key)
        elif isinstance(val, list):
            for i, item in enumerate(val):
                walk(item, f"{path}[{i}]")
        elif isinstance(val, (bool, int, float)):
            out[path] = val

    walk({k: v for k, v in summary.items() if k not in _SKIP_KEYS}, "")
    return out


def csv_digest(path: Path) -> dict:
    lines = path.read_text().splitlines()
    header = lines[0].split(",")
    rows = [[float(x) for x in line.split(",")] for line in lines[1:]]
    stride = max(1, math.ceil(len(rows) / SAMPLE_ROWS))
    columns = {}
    for j, name in enumerate(header):
        col = [row[j] for row in rows]
        columns[name] = {"min": min(col), "max": max(col), "abs_sum": math.fsum(abs(x) for x in col)}
    return {"header": header, "rows": len(rows), "columns": columns,
            "stride": stride, "sample": rows[::stride]}


def _close(ref, got) -> bool:
    if isinstance(ref, bool) or isinstance(got, bool):
        return ref is got
    return abs(got - ref) <= max(REL * max(abs(ref), abs(got)), ABS)


def compare_to_reference(ref: dict, summary: dict, csv_path: Path) -> list[str]:
    """Differences between a run and its reference, as readable strings."""
    problems = []
    got = summary_values(summary)
    for key, want in ref["summary"].items():
        if key not in got:
            problems.append(f"summary {key} missing")
        elif not _close(want, got[key]):
            problems.append(f"summary {key}: {got[key]!r} vs reference {want!r}")
    want_csv, got_csv = ref["csv"], csv_digest(csv_path)
    if got_csv["header"] != want_csv["header"] or got_csv["rows"] != want_csv["rows"]:
        return problems + [f"csv shape {got_csv['header']} x {got_csv['rows']} vs reference "
                           f"{want_csv['header']} x {want_csv['rows']}"]
    for name, stats in want_csv["columns"].items():
        for stat, want in stats.items():
            if not _close(want, got_csv["columns"][name][stat]):
                problems.append(f"csv {name}.{stat}: {got_csv['columns'][name][stat]!r} vs {want!r}")
    for i, (want_row, got_row) in enumerate(zip(want_csv["sample"], got_csv["sample"])):
        for name, want, value in zip(want_csv["header"], want_row, got_row):
            if not _close(want, value):
                problems.append(f"csv row {i * want_csv['stride']} {name}: {value!r} vs {want!r}")
    return problems


def load_reference(stem: str) -> dict:
    return json.loads((REFERENCE_DIR / f"{stem}.json").read_text())


def check_run(out_dir: Path, exit_code) -> tuple[list[str], dict | None, Path | None]:
    """Gate one run's exit code and checks.  Returns (problems, summary, CSV path)."""
    if exit_code != 0:
        return [f"exit code {exit_code}"], None, None
    try:
        summary = json.loads((out_dir / "summary.json").read_text())
    except (OSError, json.JSONDecodeError) as exc:
        return [f"no readable summary.json: {exc}"], None, None
    csv_path = out_dir / f"{summary.get('kind')}.csv"
    if not csv_path.is_file():
        return [f"missing {csv_path.name}"], summary, None
    problems = [f"check {c['name']} failed: {c['detail']}" for c in summary["checks"] if not c["passed"]]
    return problems, summary, csv_path


def record_references(root: Path) -> None:
    """Run every shipped config once and write its reference file."""
    REFERENCE_DIR.mkdir(exist_ok=True)
    env = dict(os.environ, PYTHONPATH=str(root / "src"), RKTLAB_LOG="error")
    for cfg in sorted((root / "configs").glob("*.json")):
        with tempfile.TemporaryDirectory() as tmp:
            code = subprocess.run([sys.executable, "-m", "rktlab", "run", "--config", str(cfg),
                                   "--out", tmp], env=env).returncode
            if code != 0:
                raise SystemExit(f"{cfg.name}: exit code {code}; no reference written")
            summary = json.loads(Path(tmp, "summary.json").read_text())
            doc = {"config": cfg.name, "summary": summary_values(summary),
                   "csv": csv_digest(Path(tmp, f"{summary['kind']}.csv"))}
        text = json.dumps(doc, indent=1)
        # one line per innermost list (a CSV row, a header), not per number
        text = re.sub(r"\[\s+([^\[\]]*?)\s+\]", lambda m: "[" + " ".join(m.group(1).split()) + "]", text)
        (REFERENCE_DIR / f"{cfg.stem}.json").write_text(text + "\n")
        print(f"wrote reference for {cfg.name}")


if __name__ == "__main__":
    record_references(Path(__file__).resolve().parent.parent)
