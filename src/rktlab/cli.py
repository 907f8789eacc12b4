"""Batch experiment runner and report generator.

Subcommands:

  rktlab run --config cfg.json --out outdir [--seed N] [--quick]
  rktlab report --summary outdir/summary.json [--out report.md]

Exit codes: 0 success, 1 an asserted invariant failed (named in the
summary), 2 configuration schema violation (field path in the message),
3 numerical precision failure.

Outputs are deterministic for a fixed config and seed: CSV files are
byte-identical across runs.  The env var RKTLAB_LOG (error|info|debug)
controls verbosity.
"""

from __future__ import annotations

import argparse
import gc
import itertools
import json
import logging
import math
import os
import random
import sys
import time
from functools import partial
from pathlib import Path

import numpy as np

from . import _kernels
from .errors import ConfigError, DegenerateSystemError, DomainError, EvaluationError, PrecisionError
from .hardy import (
    DEFAULT_SEED,
    hardy_config,
    kernel_norm,
    phi_h,
    phi_h_depths,
    phi_h_limit_profile,
    random_polynomials,
    reverse_embedding_ratios,
    rkt_infimum_scan,
)
from .measures import (
    Arc,
    AreaDensity,
    BoundaryDensity,
    Measure,
    arclength,
    normalized_arclength,
    refine_window_to_arc,
    upper_half_arclength,
    window_infimum_scan,
    window_mass,
    window_masses,
)
from .model_space import (
    BlaschkeProduct,
    build_theorem2_measure,
    clark_kernel_coords,
    kernel_value,
    phi as model_phi,
    psi_from_values,
    riesz_bounds,
    rkt_model_scan,
    sublevel_component_count,
    witness_function,
    witness_ratio,
)
from .numerics import TWO_PI, DiskGrid, map_on_two_cpus
from .paley_wiener import (
    SamplingSequence,
    bandlimit_check,
    carleson_sanity,
    gram_min_eigenvalue,
    rkt_lower_bound_scan,
    rkt_sum,
    witness_contrast,
)

logger = logging.getLogger("rktlab")

EXIT_OK = 0
EXIT_INVARIANT = 1
EXIT_CONFIG = 2
EXIT_PRECISION = 3

CONVENTIONS = {
    "arc_and_measure": "arc lengths |I| and measures are in plain radians",
    "hp_norm": "H^p norms use d(theta)/(2*pi) on the circle",
    "scale_factor": "a boundary density c (radians) gives embedding ratios >= 2*pi*c "
    "and window ratios >= c",
}


# ---------------------------------------------------------------------------
# config validation
# ---------------------------------------------------------------------------


def _require_mapping(obj, path):
    if not isinstance(obj, dict):
        raise ConfigError(path, f"expected an object, got {type(obj).__name__}")
    return obj


def _check(checker, v, path):
    """A checker is a function of (value, path) or the fields dict of an object."""
    return _check_fields(v, path, checker) if isinstance(checker, dict) else checker(v, path)


def _check_fields(obj, path, fields):
    """fields: name -> (required, checker).  Unknown fields are rejected."""
    _require_mapping(obj, path)
    unknown = set(obj) - set(fields)
    if unknown:
        name = sorted(unknown)[0]
        raise ConfigError(f"{path}.{name}", "unknown field")
    out = {}
    for name, (required, checker) in fields.items():
        if name not in obj:
            if required:
                raise ConfigError(f"{path}.{name}", "missing required field")
            continue
        out[name] = _check(checker, obj[name], f"{path}.{name}")
    return out


def _at_path(path, make, *args):
    """make(*args), with a library DomainError re-raised as a ConfigError at ``path``."""
    try:
        return make(*args)
    except DomainError as exc:
        raise ConfigError(path, str(exc)) from exc


def _number(v, path):
    if isinstance(v, bool) or not isinstance(v, (int, float)):
        raise ConfigError(path, f"expected a number, got {type(v).__name__}")
    try:
        x = float(v)
    except OverflowError:  # an integer literal beyond the float range
        x = math.inf
    if not math.isfinite(x):
        raise ConfigError(path, "number must be finite")
    return x


def _integer(v, path):
    if isinstance(v, bool) or not isinstance(v, int):
        raise ConfigError(path, f"expected an integer, got {type(v).__name__}")
    return v


def _in_range(lo, hi, kind=_integer):
    """Checker for a value of ``kind`` (an integer unless given) in [lo, hi]."""

    def check(v, path):
        x = kind(v, path)
        if not lo <= x <= hi:
            raise ConfigError(path, f"must lie in [{lo}, {hi}]")
        return x

    return check


def _exponent(v, path):
    p = _number(v, path)
    if not p > 1.0:
        raise ConfigError(path, "p must lie in (1, inf)")
    return p


def _list_of(item, lo=1, hi=math.inf):
    """Checker for a list of lo..hi entries that pass ``item``.  Entries are
    checked first, so a bad entry is named even in a list of the wrong length."""

    def check(v, path):
        if not isinstance(v, list):
            raise ConfigError(path, f"expected a list, got {type(v).__name__}")
        out = [_check(item, x, f"{path}[{i}]") for i, x in enumerate(v)]
        if not lo <= len(out) <= hi:
            raise ConfigError(path, f"expected {lo} to {hi} entries, got {len(out)}")
        return out

    return check


def _arc_spec(v, path):
    got = _check_fields(v, path, {"center": (True, _number), "length": (True, _number)})
    return _at_path(path, Arc, got["center"], got["length"])


_POINT = {"re": (True, _number), "im": (True, _number)}


def _zero(v, path):
    got = _check_fields(v, path, _POINT)
    return complex(got["re"], got["im"])


#: The fields of an inline measure document, as in ``SCHEMAS``.  Its area-cell
#: cap depends on the kind, so ``_measure_spec`` checks that.
MEASURE_FIELDS = {
    "atoms": (False, _list_of({**_POINT, "mass": (True, _number)}, 0, 256)),
    "boundary_density": (False, {"breakpoints": (True, _list_of(_number, 1, 256)), "values": (True, _list_of(_number, 1, 256))}),
    "area_density": (False, {"radial_breaks": (True, _list_of(_number, 2)), "angular_breaks": (True, _list_of(_number, 2)),
                             "values": (True, _list_of(_list_of(_number)))}),
}

_BUILTIN_MEASURES = {
    "normalized_arclength": normalized_arclength,
    "arclength": arclength,
    "upper_half_arclength": upper_half_arclength,
}


def _area_density(got: dict, path, max_cells: int) -> AreaDensity:
    rows, cols = len(got["radial_breaks"]) - 1, len(got["angular_breaks"]) - 1
    if rows * cols > max_cells:
        raise ConfigError(path, f"expected at most {max_cells} cells, got {rows * cols}")
    if [len(row) for row in got["values"]] != [cols] * rows:
        raise ConfigError(f"{path}.values", f"expected {rows} rows of {cols} entries")
    return _at_path(path, AreaDensity, got["radial_breaks"], got["angular_breaks"], got["values"])


def _measure_spec(v, path, max_cells: int) -> Measure:
    if "builtin" in _require_mapping(v, path):
        got = _check_fields(
            v, path, {"builtin": (True, lambda x, p: x), "scale": (False, _number)}
        )
        name = got["builtin"]
        if not isinstance(name, str) or name not in _BUILTIN_MEASURES:
            raise ConfigError(f"{path}.builtin", f"unknown builtin measure {name!r}")
        return _at_path(f"{path}.scale", _BUILTIN_MEASURES[name], got.get("scale", 1.0))
    got = _check_fields(v, path, MEASURE_FIELDS)
    bd = got.get("boundary_density")
    boundary = _at_path(f"{path}.boundary_density", BoundaryDensity, bd["breakpoints"], bd["values"]) if bd else BoundaryDensity.zero()
    ad = got.get("area_density")
    area = _area_density(ad, f"{path}.area_density", max_cells) if ad else None
    atoms = tuple((complex(a["re"], a["im"]), a["mass"]) for a in got.get("atoms", []))
    return _at_path(f"{path}.atoms", Measure, atoms, boundary, area)


_seed = _in_range(0, 2**64 - 1)


def u64(text: str) -> int:
    """The argparse type of --seed: an integer in 0..2^64 - 1, like a config's seed."""
    return _seed(int(text), "--seed")


def output_dir(text: str) -> Path:
    """The argparse type of --out: a path whose nearest existing ancestor, or
    itself, is a directory, so a finished run can write there."""
    path = Path(text)
    existing = next(p for p in (path, *path.parents) if p.exists())
    if not existing.is_dir():
        raise argparse.ArgumentTypeError(f"{existing} exists and is not a directory")
    return path


def report_file(text: str) -> str:
    """The argparse type of report --out: '-' for stdout, or a path that is
    not a directory and whose parent directory exists."""
    if text != "-" and (Path(text).is_dir() or not Path(text).parent.is_dir()):
        raise argparse.ArgumentTypeError(f"{text} is a directory or its parent is not")
    return text


#: Each experiment kind's fields besides "kind" and the optional "seed" (an
#: integer in [0, 2^64 - 1]): name -> (required, checker).  The caps bound a
#: run's time and memory; the README's config table lists them.
SCHEMAS = {
    "windows": {
        # at every cap (256 atoms, 256 breakpoints, 64 x 64 cells, depth 16) a run takes about 34 s
        "measure": (True, partial(_measure_spec, max_cells=4096)),
        "max_depth": (True, _in_range(1, 16)),
        "refine_arc": (False, _arc_spec),
        "refine_depths": (False, _list_of(_number)),
    },
    "rkt-hardy": {
        # each area cell adds about 2 s at the largest grid and family
        "measure": (True, partial(_measure_spec, max_cells=16)),
        "p": (True, _exponent),
        # the largest grid and family with the largest measure run in about 14 s and 49 MiB
        "grid": (False, {"levels": (True, _in_range(1, 20)), "angles": (True, _in_range(1, 512))}),
        "polynomials": (False, {"count": (True, _in_range(1, 1000)), "max_degree": (True, _in_range(0, 256))}),
    },
    "phi-h": {
        "arc": (True, _arc_spec),
        "p": (True, _exponent),
        "h_exponents": (True, _list_of(_in_range(1, 16), 2, 16)),
        # 16 depths on the largest grid run in about 2.5 s and 49 MiB (4.7 s on a full-circle arc)
        "sup_grid": (False, {"rings": (True, _in_range(1, 32)), "angles": (True, _in_range(1, 256))}),
    },
    "pw-counterexample": {
        # at every cap together (8 Gram solves of size 2,049) a run takes about 20 s and 248 MiB
        "truncation": (True, _in_range(1, 16384)),
        "scan": (False, {"re": (True, _list_of(_number, 2, 2)), "im": (True, _list_of(_number, 2, 2)),
                         "resolution": (True, _list_of(_in_range(64, 512), 2, 2))}),
        # past length ~700 the partial products overflow near |x| = length/2
        "witness": (False, {"length": (True, _in_range(256.0, 512.0, _number)), "rate": (True, _in_range(8, 32))}),
        "gram_truncations": (False, _list_of(_in_range(1, 1024), 1, 8)),
    },
    "theorem2": {
        "zeros": (True, _list_of(_zero, 2, 32)),
        "alpha_angle": (True, _number),
        "epsilon": (False, lambda v, p: None if v is None else _number(v, p)),
        # with at most 32 zeros the largest grid runs in about 3 s and 64 MiB
        "grid": (True, {"rings": (True, _in_range(1, 128)), "angles": (True, _in_range(1, 2048))}),
        # each delta is one pass over the grid (about 2 ms on the largest)
        "delta_list": (True, _list_of(_number, 1, 64)),
    },
}
KINDS = tuple(SCHEMAS)


def load_config(path: str):
    """The JSON document in the file at ``path``, not yet validated."""
    try:
        text = Path(path).read_text()
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError("config", f"cannot read {path}: {exc}") from exc
    try:
        return json.loads(text)
    except (ValueError, RecursionError) as exc:  # bad syntax, an integer literal too long to parse, or nesting too deep
        raise ConfigError("config", f"malformed JSON: {exc}") from exc


def validate(doc) -> dict:
    """The checked config: each field of ``doc`` as its ``SCHEMAS`` checker
    returns it (a measure, an arc, floats, complex zeros, ...)."""
    kind = _require_mapping(doc, "config").get("kind")
    if kind not in KINDS:
        raise ConfigError("config.kind", f"must be one of {KINDS}, got {kind!r}")
    return _check_fields(doc, "config", {"kind": (True, lambda v, p: v), "seed": (False, _seed), **SCHEMAS[kind]})


# ---------------------------------------------------------------------------
# CSV / JSON output
# ---------------------------------------------------------------------------


#: Rows the CSV writer formats at once, so a table is never held as text whole.
CSV_BLOCK_ROWS = 4096


def _format_column(col: np.ndarray, repeats: bool):
    """repr of each cell's ``tolist`` value, and whether the column repeats.  A
    repeating float column with at most half as many distinct bit patterns as
    rows (a grid axis) formats each pattern once; keying on bits, not values,
    keeps -0.0 and 0.0 apart."""
    if repeats and col.dtype == np.float64:
        bits, where = np.unique(col.view(np.int64), return_inverse=True)
        if 2 * bits.size <= col.size:
            return np.array(list(map(repr, bits.view(np.float64).tolist())), dtype=object)[where].tolist(), True
    return map(repr, col.tolist()), False


def _write_csv(path: Path, header, rows: np.ndarray) -> int:
    """rows: a 2-d array, each cell written as the repr of its ``tolist`` value (a Python
    float, or the Python int an object array holds), a block of text at a time.  A column's
    first block in a process decides whether it repeats, so distinct values are sorted once.
    Returns how many processes formatted it: ``map_on_two_cpus`` splits two blocks or more."""
    starts = range(0, len(rows), CSV_BLOCK_ROWS)
    repeats = itertools.repeat(True)

    def block(i):
        nonlocal repeats
        cols, repeats = zip(*map(_format_column, rows[i : i + CSV_BLOCK_ROWS].T, repeats))
        return "\n".join(map(",".join, zip(*cols))) + "\n"

    with path.open("w") as fh:
        fh.write(",".join(header) + "\n")
        if len(rows) >= 2 * CSV_BLOCK_ROWS:
            return map_on_two_cpus(block, starts, fh.write)
        for i in starts:
            fh.write(block(i))
    return 1


class Check:
    def __init__(self, name: str, passed: bool, detail: str):
        self.name = name
        self.passed = bool(passed)
        self.detail = detail

    def as_dict(self):
        return {"name": self.name, "passed": self.passed, "detail": self.detail}


# ---------------------------------------------------------------------------
# experiment runners
# ---------------------------------------------------------------------------

# Each runner takes the config ``validate`` returns.  It checks only the rules
# that join fields, and re-raises a library DomainError at its field's path.

def run_windows(got: dict, quick: bool, seed: int):
    mu = got["measure"]
    depth = got["max_depth"]
    if quick:
        depth = min(depth, 8)
    scan = window_infimum_scan(mu, depth)
    c4 = mu.boundary.min_value()
    summary = {
        "max_depth": depth,
        "c3_estimate": scan.ratio,
        "c3_witness_center": scan.witness.center,
        "c3_witness_length": scan.witness.length,
        "c4": c4,
        "boundary_atoms_present": mu.has_boundary_atoms(),
    }
    if "refine_arc" in got:
        depths = got.get("refine_depths", [2.0**-k for k in range(1, 9)])
        masses = _at_path("config.refine_depths", refine_window_to_arc, mu, got["refine_arc"], depths)
        summary["refine_depths"] = list(map(float, depths))
        summary["refine_masses"] = [float(m) for m in masses]
    elif "refine_depths" in got:
        raise ConfigError("config.refine_depths", "needs refine_arc")
    rows = np.array([(g, float(ratio), arc.center, arc.length) for g, ratio, arc in scan.table], dtype=object)
    arc, h = Arc(0.7, 0.8), 0.1
    whole = window_mass(mu, arc, h)
    parts = sum(window_masses(mu, arc.start + (np.arange(8) + 0.5) * arc.length / 8.0, arc.length / 8.0, h).tolist())
    checks = [
        Check(
            "window-ratio-dominates-boundary-minimum",
            scan.ratio >= c4 - 1e-9 * max(1.0, c4),
            f"scan ratio {scan.ratio:.6e} vs boundary minimum {c4:.6e}",
        ),
        Check(
            "window-additivity",
            abs(parts - whole) <= 1e-12 * max(1.0, whole),
            f"partition sum {parts!r} vs whole {whole!r}",
        ),
    ]
    header = ("generation", "min_ratio", "witness_center", "witness_length")
    return summary, header, rows, checks


def run_rkt_hardy(got: dict, quick: bool, seed: int):
    mu = got["measure"]
    p = got["p"]
    grid_spec = got.get("grid", {"levels": 16, "angles": 64})
    levels, angles = grid_spec["levels"], grid_spec["angles"]
    poly_spec = got.get("polynomials")
    if quick:
        levels, angles = min(levels, 10), min(angles, 32)
    cfg = hardy_config(p)
    grid = DiskGrid.dyadic(levels, angles)
    scan = rkt_infimum_scan(mu, cfg, grid)
    logger.info("C2 scan at %d kernel points (processes: %d)", len(scan.rows), scan.processes)
    summary = {
        "p": p,
        "c2_estimate": scan.value,
        "c2_witness_re": scan.witness.real,
        "c2_witness_im": scan.witness.imag,
        "scan_rule_builds": scan.rule_builds,
        "scan_nodes": scan.nodes,
        "scan_shared_nodes": scan.shared_nodes,
    }
    if poly_spec is not None:
        count = min(poly_spec["count"], 50) if quick else poly_spec["count"]
        fam = random_polynomials(count, poly_spec["max_degree"], seed)
        ratios = reverse_embedding_ratios(mu, fam, cfg)
        summary["c1_min_ratio"] = float(min(ratios))
        summary["polynomial_count"] = count
    checks = []
    cfg2 = hardy_config(2.0)
    dev = 0.0
    for lam in (0.5 + 0.0j, 0.6j, 0.9 * np.exp(1.0j), (1.0 - 2.0**-16) + 0.0j):
        exact = (1.0 - abs(lam) ** 2) ** -0.5
        dev = max(dev, abs(kernel_norm(complex(lam), cfg2) - exact) / exact)
    checks.append(
        Check("kernel-norm-closed-form", dev <= 1e-8, f"max relative deviation {dev:.3e} at p=2")
    )
    header = ("re_lambda", "im_lambda", "rkt_value")
    return summary, header, scan.rows, checks


def run_phi_h(got: dict, quick: bool, seed: int):
    arc = got["arc"]
    p = got["p"]
    exps = sorted(got["h_exponents"])
    if len(set(exps)) < len(exps):
        raise ConfigError("config.h_exponents", "expected distinct exponents")
    sup_spec = got.get("sup_grid", {"rings": 6, "angles": 24})
    if quick:
        exps = exps[: max(3, len(exps) // 2)]
    hs = np.array([2.0**-e for e in exps])
    if hs[0] > min(arc.length, 1.0):
        raise ConfigError("config.h_exponents", "largest depth exceeds min(|I|, 1)")
    cfg = hardy_config(p)
    z_off = complex(np.exp(1j * (arc.center + math.pi)))
    z_mid = complex(np.exp(1j * arc.center))
    z_end = complex(np.exp(1j * (arc.center + 0.5 * arc.length)))
    records = phi_h_limit_profile(arc, hs, [z_off, z_mid, z_end], cfg)
    rings, angs = (4, 12) if quick else (sup_spec["rings"], sup_spec["angles"])
    sup_grid = DiskGrid.geometric(rings, angs, min_gap=2.0**-12)
    sup_zs = list(sup_grid.points()) + [complex(np.exp(1j * t)) for t in np.linspace(0, TWO_PI, 17)[:-1]]
    off_rec, mid_rec = records[0], records[1]
    blocks = []
    for z, vals in [(z_off, off_rec.values), (z_mid, mid_rec.values)] + [(z, ()) for z in sup_zs]:
        if len(vals) == 0:  # off the profile, or z_off at an endpoint of a full-circle arc
            vals = phi_h_depths(z, arc, hs, cfg)
        blocks.append(np.column_stack([np.full(hs.size, z.real), np.full(hs.size, z.imag), hs, vals]))
    rows = np.vstack(blocks)
    sup_val = max([0.0] + rows[:, 3].tolist())
    summary = {
        "p": p,
        "h_list": [float(h) for h in hs],
        "off_arc_exponent": off_rec.exponent,
        "on_arc_bracket_low": mid_rec.bracket[0],
        "on_arc_bracket_high": mid_rec.bracket[1],
        "endpoint_classification": records[2].kind,
        "grid_sup": sup_val,
    }
    v8 = float(mid_rec.values[0])
    v12 = phi_h(z_mid, arc, float(hs[0]), cfg, nodes=12)
    checks = [
        Check(
            "phi-h-quadrature-stability",
            abs(v8 - v12) <= 1e-6 * max(abs(v12), 1e-30),
            f"node refinement moved the value by {abs(v8 - v12):.3e}",
        )
    ]
    header = ("re_z", "im_z", "h", "phi_h")
    return summary, header, rows, checks


def run_pw(got: dict, quick: bool, seed: int):
    n = got["truncation"]
    wit_spec = got.get("witness", {"length": 256.0, "rate": 8})
    if n < 4 * wit_spec["length"]:
        raise ConfigError(
            "config.truncation",
            f"must be >= 4 * witness length = {int(4 * wit_spec['length'])}",
        )
    scan_spec = got.get("scan", {"re": [0.0, 4.0], "im": [-2.0, 2.0], "resolution": [128, 128]})
    res = scan_spec["resolution"]
    # the tail bound needs n - 1/8 - |Re lambda| > 1
    if n - 0.125 - max(map(abs, scan_spec["re"])) <= 1.0:
        raise ConfigError("config.scan.re", f"must stay more than 1.125 inside the truncation {n}")
    if max(map(abs, scan_spec["im"])) >= 112.0:
        raise ConfigError("config.scan.im", "must stay inside |Im| < 112, where sinh(pi Im)^2 overflows")
    gram_truncations = got.get("gram_truncations", [16] if quick else [16, 32, 64])
    for i, t in enumerate(gram_truncations):
        if t > n:
            raise ConfigError(f"config.gram_truncations[{i}]", f"must lie in 1..truncation = {n}")
    if quick:
        res = [min(res[0], 64), min(res[1], 64)]
    seq = SamplingSequence.kadets(n)
    scan = rkt_lower_bound_scan(
        seq,
        re_range=tuple(scan_spec["re"]),
        im_range=tuple(scan_spec["im"]),
        resolution=tuple(res),
    )
    mu_ratio, l2, values, spread = witness_contrast(seq, wit_spec["length"], wit_spec["rate"])
    logger.info("witness extrapolation spread %.3e (refused above 1e-2)", spread)
    fraction = bandlimit_check(values, wit_spec["length"], wit_spec["rate"])
    tail_ratio = float(np.max((scan.mass - scan.low) / (scan.high - scan.low)))
    sanity = carleson_sanity(seq)
    grams = {}
    for t in gram_truncations:
        grams[str(t)] = gram_min_eigenvalue(seq, t)
    summary = {
        "truncation": n,
        "delta": scan.delta,
        "delta_witness_re": scan.witness.real,
        "delta_witness_im": scan.witness.imag,
        "witness_mu_ratio": mu_ratio,
        "witness_l2_norm_sq": l2,
        "witness_extrapolation_spread": spread,
        "tail_bound_ratio": tail_ratio,
        "bandlimit_fraction": fraction,
        "separation": sanity.separation,
        "strip_width": sanity.strip_width,
        "gram_min_eigenvalues": grams,
    }
    checks = [
        Check("kadets-separation", abs(sanity.separation - 0.75) <= 1e-12, f"separation {sanity.separation!r}"),
        Check("kadets-strip-width", sanity.strip_width == 0.0, f"strip width {sanity.strip_width!r}"),
        Check("sinc-mass-bracket", np.all((scan.low <= scan.mass) & (scan.mass <= scan.high)),
              f"closed-form mass inside [low, high]; worst exact tail / tail bound {tail_ratio:.3e}"),
    ]
    half = SamplingSequence.kadets(n // 2)
    lam = 0.3 + 0.4j
    full_iv = rkt_sum(lam, seq)
    half_iv = rkt_sum(lam, half)
    checks.append(
        Check(
            "truncation-stability",
            abs(full_iv.low - half_iv.low) <= half_iv.high - half_iv.low + 1e-12,
            f"doubling the truncation moved the sum by {abs(full_iv.low - half_iv.low):.3e}",
        )
    )
    # sum |f(x_n)|^2 over |x_n| <= length/2 bounds max |f(x_n)|^2 there
    l2_at_points = math.sqrt(mu_ratio * l2)
    checks.append(
        Check(
            "witness-vanishes-on-sequence",
            l2_at_points <= 1e-12,
            f"sqrt(sum |f(x_n)|^2) = {l2_at_points!r} over |x_n| <= {wit_spec['length'] / 2.0!r}",
        )
    )
    nim, nre = scan.low.shape
    rows = np.column_stack(
        [np.tile(scan.re_grid, nim), np.repeat(scan.im_grid, nre), scan.low.ravel(), scan.high.ravel()]
    )
    header = ("re_lambda", "im_lambda", "rkt_sum_low", "rkt_sum_high")
    return summary, header, rows, checks


def run_theorem2(got: dict, quick: bool, seed: int):
    theta = _at_path("config.zeros", BlaschkeProduct, np.array(got["zeros"]))
    alpha = complex(np.exp(1j * got["alpha_angle"]))
    rings, angles = got["grid"]["rings"], got["grid"]["angles"]
    if quick:
        rings, angles = min(rings, 16), min(angles, 128)
    grid = DiskGrid.geometric(rings, angles)
    sys_ = _at_path("config.epsilon", build_theorem2_measure, theta, alpha, got.get("epsilon"))
    scan = rkt_model_scan(sys_, grid)
    psis = {}
    for i, d in enumerate(got["delta_list"]):
        psis[str(d)] = _at_path(f"config.delta_list[{i}]", psi_from_values, scan.zs, scan.phi_vals, sys_.zeta0, d)
    wit = witness_function(sys_)
    ratio = witness_ratio(sys_, wit.function)
    at_zeta0 = abs(wit.value_at_zeta0)
    # |f(zeta0)| <= ||f|| ||K_zeta0|| = sqrt(|Theta'(zeta0)|) by Cauchy-Schwarz
    at_zeta0_floor = 1e-6 * math.sqrt(sys_.clark.weights[0])
    rb = riesz_bounds(sys_)
    clark_coords = clark_kernel_coords(sys_.basis, sys_.clark.points)
    gram = clark_coords @ clark_coords.conj().T
    gram_dev = float(np.max(np.abs(gram - np.eye(gram.shape[0]))))
    sublevel = sublevel_component_count(theta, 0.5)
    # an infinite margin (every critical value 0, as for z^N) is written as null
    margin = sublevel.margin if math.isfinite(sublevel.margin) else None
    logger.info("{|Theta| < 0.5} has %d component(s), critical-value margin %s", sublevel.count, margin)
    summary = {
        "dimension": theta.degree,
        "epsilon": sys_.epsilon,
        "eta": rb.eta,
        "riesz_lower": rb.lower,
        "riesz_upper": rb.upper,
        "psi": psis,
        "rkt_delta": scan.delta,
        "rkt_witness_re": scan.witness.real,
        "rkt_witness_im": scan.witness.imag,
        "witness_ratio": ratio,
        "witness_abs_at_zeta0": at_zeta0,
        "clark_gram_max_dev": gram_dev,
        "sublevel_components": sublevel.count,
        "sublevel_margin": margin,
        "xi1_min_overlap": sys_.min_overlap(),
    }
    checks = [
        Check("clark-gram-identity", gram_dev <= 1e-9, f"max deviation {gram_dev:.3e}"),
        Check("witness-ratio-zero", ratio <= 1e-12, f"ratio {ratio:.3e}"),
        Check(
            "witness-nonzero-at-deleted-point",
            at_zeta0 >= at_zeta0_floor,
            f"|f(zeta0)| {at_zeta0:.6e} vs 1e-6 sqrt(|Theta'(zeta0)|) = {at_zeta0_floor:.3e}",
        ),
        Check(
            "phi-cauchy-schwarz",
            bool(np.max(scan.phi_vals) <= 1.0 + 1e-12),
            f"max phi {float(np.max(scan.phi_vals)):.12f}",
        ),
    ]
    # decomposition: full-system sum - phi == mu-norm, with phi from the
    # closed form and the full sum from the stacked coordinates
    zs = scan.zs[:: max(1, scan.zs.size // 512)]
    coords = clark_kernel_coords(sys_.basis, zs)
    stack = np.vstack([sys_.zeta0_coords()[None, :], sys_.xi_coords()])
    full = np.sum(np.abs(coords @ stack.conj().T) ** 2, axis=1)
    mu_part = np.sum(np.abs(coords @ sys_.xi_coords().conj().T) ** 2, axis=1)
    dev = float(np.max(np.abs(full - np.asarray(model_phi(sys_, zs)) - mu_part)))
    checks.append(Check("decomposition-identity", dev <= 1e-9, f"max deviation {dev:.3e}"))
    rng = random.Random(seed)  # 64 kernel and 64 evaluation points, uniform by area in the disks of radii 0.8 and 0.95
    lam, zpts = (r * np.sqrt([rng.random() for _ in range(64)]) * np.exp(1j * np.array([rng.uniform(0.0, TWO_PI) for _ in range(64)])) for r in (0.8, 0.95))
    e_z = sys_.basis.eval_matrix(zpts)[:, None, :]
    e_lam = np.conj(sys_.basis.eval_matrix(lam))[:, :, None]
    via_basis = (e_z @ e_lam)[:, 0, 0]  # one row dot product per pair
    kdev = float(np.max(np.abs(kernel_value(theta, lam, zpts) - via_basis)))
    checks.append(Check("kernel-formula-consistency", kdev <= 1e-9, f"max deviation {kdev:.3e}"))
    rows = np.column_stack([scan.zs.real, scan.zs.imag, scan.phi_vals, scan.mu_norm_sq])
    header = ("re_z", "im_z", "phi", "norm_mu_sq")
    return summary, header, rows, checks


_RUNNERS = {
    "windows": run_windows,
    "rkt-hardy": run_rkt_hardy,
    "phi-h": run_phi_h,
    "pw-counterexample": run_pw,
    "theorem2": run_theorem2,
}


# ---------------------------------------------------------------------------
# report rendering
# ---------------------------------------------------------------------------

_CLAIM_ROWS = {
    "windows": [
        ("c3_estimate", "window lower bound: mu(S_I) >= C3 |I| over all arcs"),
        ("c4", "boundary density bounded below by C4"),
        ("boundary_atoms_present", "singular boundary mass flagged (never raises C4)"),
    ],
    "rkt-hardy": [
        ("c2_estimate", "normalized-kernel mass bounded below: integral |K_lam|^p dmu >= C2"),
        ("c1_min_ratio", "reverse embedding: integral |f|^p dmu >= C1 ||f||_p^p"),
    ],
    "phi-h": [
        ("off_arc_exponent", "off the closed arc the window average decays like h^(p-1)"),
        ("on_arc_bracket_low", "on the open arc the window average stays in a fixed bracket"),
        ("grid_sup", "the window averages are uniformly bounded in h"),
    ],
    "pw-counterexample": [
        ("delta", "normalized sinc-kernel mass uniformly bounded below on the scan region"),
        ("witness_mu_ratio", "reverse inequality fails: the witness has zero measure mass"),
        ("bandlimit_fraction", "the witness is band-limited to [-pi, pi] at grid scale"),
        ("separation", "the sampling set is separated (forward embedding holds)"),
    ],
    "theorem2": [
        ("eta", "perturbed kernel system is a Riesz system with window 1 +/- eta"),
        ("psi", "psi(delta) < 1 off every neighborhood of the deleted point"),
        ("rkt_delta", "kernel mass bounded below while the witness mass vanishes"),
        ("witness_ratio", "reverse inequality fails on the deleted-point measure"),
        ("witness_abs_at_zeta0", "the witness does not vanish at the deleted point"),
        ("sublevel_components", "one-component check: {|Theta| < 0.5} is connected (exact count)"),
        ("sublevel_margin", "log-distance from 0.5 to the nearest critical value (none when every one is 0)"),
    ],
}


def render_report(summary: dict) -> str:
    kind = summary.get("kind", "?")
    lines = [
        f"# Experiment report: {kind}",
        "",
        "Conventions: "
        + "; ".join(f"{v}" for v in CONVENTIONS.values())
        + ".",
        "",
        "| quantity | computed value | claim under test | status |",
        "|---|---|---|---|",
    ]
    for key, claim in _CLAIM_ROWS.get(kind, []):
        if key not in summary:
            continue
        val = summary[key]
        if isinstance(val, float):
            val = f"{val:.6g}"
        elif isinstance(val, dict):
            val = ", ".join(f"{k}: {float(v):.6g}" for k, v in sorted(val.items()))
        lines.append(f"| `{key}` | {val} | {claim} | reported |")
    for c in summary.get("checks", []):
        mark = "pass" if c["passed"] else "FAIL"
        lines.append(f"| check `{c['name']}` | {c['detail']} | asserted invariant | {mark} |")
    lines.append("")
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------


def _setup_logging():
    level = os.environ.get("RKTLAB_LOG", "info").strip().lower()
    levels = {"error": logging.ERROR, "info": logging.INFO, "debug": logging.DEBUG}
    logging.basicConfig(level=levels.get(level, logging.INFO), format="%(levelname)s %(message)s")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="rktlab", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    runp = sub.add_parser("run", help="run one experiment from a JSON config")
    runp.add_argument("--config", required=True, help="path to the experiment config")
    runp.add_argument("--out", required=True, type=output_dir, help="output directory, made once the run has finished")
    runp.add_argument("--seed", type=u64, default=DEFAULT_SEED, help="seed for the polynomial family")
    runp.add_argument("--quick", action="store_true", help="reduced grids for CI")
    repp = sub.add_parser("report", help="render a Markdown report from a summary")
    repp.add_argument("--summary", required=True, help="path to summary.json")
    repp.add_argument("--out", default="-", type=report_file, help="output file ('-' for stdout)")
    return parser


def main(argv=None) -> int:
    # the start-up heap (numpy, rktlab) lives to the end: no collection walks it again, the
    # interpreter's closing ones and a forked child's included; later cycles are still collected
    gc.freeze()
    startup_cpu_s = time.process_time()
    _setup_logging()
    logger.debug("CPU time before main (start-up): %.3f s", startup_cpu_s)
    args = _build_parser().parse_args(argv)
    if args.command == "report":
        try:
            text = render_report(json.loads(Path(args.summary).read_text()))
        except (OSError, AttributeError, KeyError, TypeError, ValueError, RecursionError) as exc:  # unreadable, bad JSON or a malformed summary
            logger.error("cannot load summary: %s: %s", type(exc).__name__, exc)
            return EXIT_CONFIG
        if args.out == "-":
            sys.stdout.write(text)
        else:
            Path(args.out).write_text(text)
        return EXIT_OK

    try:
        got = validate(load_config(args.config))
    except ConfigError as exc:
        logger.error("config rejected: %s", exc)
        return EXIT_CONFIG
    seed = got.get("seed", args.seed)
    kind = got["kind"]
    logger.info("running %s (quick=%s, seed=%s, backend=%s)", kind, args.quick, seed, _kernels.ACTIVE_BACKEND)
    try:
        summary, header, rows, checks = _RUNNERS[kind](got, args.quick, seed)
    except ConfigError as exc:
        logger.error("config rejected: %s", exc)
        return EXIT_CONFIG
    except (DomainError, DegenerateSystemError) as exc:
        logger.error("input out of domain: %s", exc)
        return EXIT_CONFIG
    except (PrecisionError, EvaluationError) as exc:
        logger.error("numerical precision failure: %s", exc)
        return EXIT_PRECISION
    args.out.mkdir(parents=True, exist_ok=True)
    summary["kind"] = kind
    summary["seed"] = seed
    summary["quick"] = bool(args.quick)
    summary["backend"] = _kernels.ACTIVE_BACKEND
    summary["conventions"] = CONVENTIONS
    summary["checks"] = [c.as_dict() for c in checks]
    csv_path = args.out / f"{kind}.csv"
    start = time.perf_counter()
    processes = _write_csv(csv_path, header, rows)
    (args.out / "summary.json").write_text(json.dumps(summary, indent=2, sort_keys=True) + "\n")
    write_s = time.perf_counter() - start  # for the log only: timings never enter the outputs
    failed = [c for c in checks if not c.passed]
    for c in checks:
        logger.log(
            logging.INFO if c.passed else logging.ERROR,
            "check %s: %s (%s)",
            c.name,
            "pass" if c.passed else "FAIL",
            c.detail,
        )
    if failed:
        logger.error("%d invariant(s) failed: %s", len(failed), ", ".join(c.name for c in failed))
        return EXIT_INVARIANT
    logger.info("wrote %s (%d rows; writer processes: %d) and summary.json in %.3f s", csv_path.name, len(rows), processes, write_s)
    return EXIT_OK


if __name__ == "__main__":
    raise SystemExit(main())
