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
import json
import logging
import math
import os
import sys
from pathlib import Path

import numpy as np

from . import _kernels
from .errors import ConfigError, DomainError, PrecisionError
from .hardy import (
    DEFAULT_SEED,
    hardy_config,
    kernel_norm,
    phi_h,
    phi_h_limit_profile,
    random_polynomials,
    reverse_embedding_ratio,
    rkt_infimum_scan,
)
from .measures import (
    Arc,
    CarlesonWindow,
    Measure,
    arclength,
    boundary_rn_lower_bound,
    measure_from_dict,
    normalized_arclength,
    refine_window_to_arc,
    upper_half_arclength,
    window_infimum_scan,
    window_mass,
)
from .model_space import (
    BlaschkeProduct,
    build_theorem2_measure,
    clark_kernel_coords,
    kernel_value,
    phi as model_phi,
    psi as model_psi,
    riesz_bounds,
    rkt_model_scan,
    sublevel_component_count,
    witness_function,
    witness_ratio,
)
from .numerics import TWO_PI, DiskGrid
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

KINDS = ("windows", "rkt-hardy", "phi-h", "pw-counterexample", "theorem2")

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


def _check_fields(obj, path, fields):
    """fields: name -> (required, checker). Unknown fields are rejected."""
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
        out[name] = checker(obj[name], f"{path}.{name}")
    return out


def _number(v, path):
    if isinstance(v, bool) or not isinstance(v, (int, float)):
        raise ConfigError(path, f"expected a number, got {type(v).__name__}")
    if not math.isfinite(float(v)):
        raise ConfigError(path, "number must be finite")
    return float(v)


def _integer(v, path):
    if isinstance(v, bool) or not isinstance(v, int):
        raise ConfigError(path, f"expected an integer, got {type(v).__name__}")
    return v


def _number_list(v, path):
    if not isinstance(v, list) or not v:
        raise ConfigError(path, "expected a nonempty list of numbers")
    return [_number(x, f"{path}[{i}]") for i, x in enumerate(v)]


def _int_list(v, path):
    if not isinstance(v, list) or not v:
        raise ConfigError(path, "expected a nonempty list of integers")
    return [_integer(x, f"{path}[{i}]") for i, x in enumerate(v)]


def _arc_spec(v, path):
    got = _check_fields(v, path, {"center": (True, _number), "length": (True, _number)})
    try:
        return Arc(got["center"], got["length"])
    except DomainError as exc:
        raise ConfigError(path, str(exc)) from exc


def _grid_spec(v, path):
    return _check_fields(v, path, {"rings": (True, _integer), "angles": (True, _integer)})


_BUILTIN_MEASURES = {
    "normalized_arclength": normalized_arclength,
    "arclength": arclength,
    "upper_half_arclength": upper_half_arclength,
}


def _measure_spec(v, path) -> Measure:
    _require_mapping(v, path)
    if "builtin" in v:
        got = _check_fields(
            v, path, {"builtin": (True, lambda x, p: x), "scale": (False, _number)}
        )
        name = got["builtin"]
        if name not in _BUILTIN_MEASURES:
            raise ConfigError(f"{path}.builtin", f"unknown builtin measure {name!r}")
        return _BUILTIN_MEASURES[name](got.get("scale", 1.0))
    try:
        return measure_from_dict(v)
    except (DomainError, KeyError, TypeError, ValueError) as exc:
        raise ConfigError(path, f"invalid measure document: {exc}") from exc


def load_config(path: str) -> dict:
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ConfigError("config", f"cannot read {path}: {exc}") from exc
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError("config", f"malformed JSON: {exc}") from exc
    _require_mapping(doc, "config")
    kind = doc.get("kind")
    if kind not in KINDS:
        raise ConfigError("config.kind", f"must be one of {KINDS}, got {kind!r}")
    return doc


# ---------------------------------------------------------------------------
# CSV / JSON output
# ---------------------------------------------------------------------------


def _fmt(x) -> str:
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    return repr(float(x))


def _write_csv(path: Path, header, rows) -> None:
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(_fmt(x) for x in row))
    path.write_text("\n".join(lines) + "\n")


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


def run_windows(doc: dict, quick: bool, seed: int):
    got = _check_fields(
        doc,
        "config",
        {
            "kind": (True, lambda v, p: v),
            "seed": (False, _integer),
            "measure": (True, _measure_spec),
            "max_depth": (True, _integer),
            "refine_arc": (False, _arc_spec),
            "refine_depths": (False, _number_list),
        },
    )
    mu = got["measure"]
    depth = got["max_depth"]
    if not 1 <= depth <= 16:
        raise ConfigError("config.max_depth", "must lie in 1..16")
    if quick:
        depth = min(depth, 8)
    scan = window_infimum_scan(mu, depth)
    rn = boundary_rn_lower_bound(mu)
    summary = {
        "kind": "windows",
        "max_depth": depth,
        "c3_estimate": scan.ratio,
        "c3_witness_center": scan.witness.center,
        "c3_witness_length": scan.witness.length,
        "c4": rn.value,
        "boundary_atoms_present": rn.boundary_atoms_present,
    }
    if "refine_arc" in got:
        depths = got.get("refine_depths", [2.0**-k for k in range(1, 9)])
        masses = refine_window_to_arc(mu, got["refine_arc"], depths)
        summary["refine_depths"] = list(map(float, depths))
        summary["refine_masses"] = [float(m) for m in masses]
    rows = [
        (g, ratio, arc.center, arc.length) for g, ratio, arc in scan.table
    ]
    checks = []
    checks.append(
        Check(
            "window-ratio-dominates-boundary-minimum",
            scan.ratio >= rn.value - 1e-9,
            f"scan ratio {scan.ratio:.6e} vs boundary minimum {rn.value:.6e}",
        )
    )
    arc = Arc(0.7, 0.8)
    h = 0.1
    whole = window_mass(mu, CarlesonWindow(arc, h))
    parts = sum(
        window_mass(mu, CarlesonWindow(Arc(arc.start + (k + 0.5) * arc.length / 8.0, arc.length / 8.0), h))
        for k in range(8)
    )
    checks.append(
        Check(
            "window-additivity",
            abs(parts - whole) <= 1e-12 * max(1.0, whole),
            f"partition sum {parts!r} vs whole {whole!r}",
        )
    )
    header = ("generation", "min_ratio", "witness_center", "witness_length")
    return summary, header, rows, checks


def run_rkt_hardy(doc: dict, quick: bool, seed: int):
    got = _check_fields(
        doc,
        "config",
        {
            "kind": (True, lambda v, p: v),
            "seed": (False, _integer),
            "measure": (True, _measure_spec),
            "p": (True, _number),
            "grid": (False, lambda v, p: _check_fields(v, p, {"levels": (True, _integer), "angles": (True, _integer)})),
            "polynomials": (False, lambda v, p: _check_fields(v, p, {"count": (True, _integer), "max_degree": (True, _integer)})),
        },
    )
    mu = got["measure"]
    p = got["p"]
    if not 1.0 < p < math.inf:
        raise ConfigError("config.p", "p must lie in (1, inf)")
    grid_spec = got.get("grid", {"levels": 16, "angles": 64})
    levels, angles = grid_spec["levels"], grid_spec["angles"]
    if quick:
        levels, angles = min(levels, 10), min(angles, 32)
    cfg = hardy_config(p)
    grid = DiskGrid.dyadic(levels, angles)
    scan = rkt_infimum_scan(mu, cfg, grid)
    summary = {
        "kind": "rkt-hardy",
        "p": p,
        "c2_estimate": scan.value,
        "c2_witness_re": scan.witness.real,
        "c2_witness_im": scan.witness.imag,
    }
    poly_spec = got.get("polynomials")
    if poly_spec is not None:
        count = min(poly_spec["count"], 50) if quick else poly_spec["count"]
        fam = random_polynomials(count, poly_spec["max_degree"], seed)
        ratios = [reverse_embedding_ratio(mu, f, cfg) for f in fam]
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
    rows = [tuple(r) for r in scan.rows]
    return summary, header, rows, checks


def run_phi_h(doc: dict, quick: bool, seed: int):
    got = _check_fields(
        doc,
        "config",
        {
            "kind": (True, lambda v, p: v),
            "seed": (False, _integer),
            "arc": (True, _arc_spec),
            "p": (True, _number),
            "h_exponents": (True, _int_list),
            "sup_grid": (False, _grid_spec),
        },
    )
    arc = got["arc"]
    p = got["p"]
    if not 1.0 < p < math.inf:
        raise ConfigError("config.p", "p must lie in (1, inf)")
    exps = sorted(got["h_exponents"])
    if any(not 1 <= e <= 16 for e in exps):
        raise ConfigError("config.h_exponents", "exponents must lie in 1..16")
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
    sup_spec = got.get("sup_grid", {"rings": 6, "angles": 24})
    rings, angs = (4, 12) if quick else (sup_spec["rings"], sup_spec["angles"])
    sup_grid = DiskGrid.geometric(rings, angs, min_gap=2.0**-12)
    sup_zs = list(sup_grid.points()) + [complex(np.exp(1j * t)) for t in np.linspace(0, TWO_PI, 17)[:-1]]
    rows = []
    sup_val = 0.0
    for z in [z_off, z_mid] + sup_zs:
        for h in hs:
            v = phi_h(z, arc, float(h), cfg)
            rows.append((z.real, z.imag, float(h), v))
            sup_val = max(sup_val, v)
    off_rec = records[0]
    mid_rec = records[1]
    summary = {
        "kind": "phi-h",
        "p": p,
        "h_list": [float(h) for h in hs],
        "off_arc_exponent": off_rec.exponent,
        "on_arc_bracket_low": mid_rec.bracket[0],
        "on_arc_bracket_high": mid_rec.bracket[1],
        "endpoint_classification": records[2].kind,
        "grid_sup": sup_val,
    }
    h0 = float(hs[0])
    v8 = phi_h(z_mid, arc, h0, cfg)
    v12 = phi_h(z_mid, arc, h0, cfg, nodes=12)
    checks = [
        Check(
            "phi-h-quadrature-stability",
            abs(v8 - v12) <= 1e-6 * max(abs(v12), 1e-30),
            f"node refinement moved the value by {abs(v8 - v12):.3e}",
        )
    ]
    header = ("re_z", "im_z", "h", "phi_h")
    return summary, header, rows, checks


def run_pw(doc: dict, quick: bool, seed: int):
    got = _check_fields(
        doc,
        "config",
        {
            "kind": (True, lambda v, p: v),
            "seed": (False, _integer),
            "truncation": (True, _integer),
            "scan": (
                False,
                lambda v, p: _check_fields(
                    v,
                    p,
                    {
                        "re": (True, _number_list),
                        "im": (True, _number_list),
                        "resolution": (True, _int_list),
                    },
                ),
            ),
            "witness": (
                False,
                lambda v, p: _check_fields(v, p, {"length": (True, _number), "rate": (True, _integer)}),
            ),
            "gram_truncations": (False, _int_list),
        },
    )
    n = got["truncation"]
    wit_spec = got.get("witness", {"length": 256.0, "rate": 8})
    if n < 4 * wit_spec["length"]:
        raise ConfigError(
            "config.truncation",
            f"must be >= 4 * witness length = {int(4 * wit_spec['length'])}",
        )
    scan_spec = got.get("scan", {"re": [0.0, 4.0], "im": [-2.0, 2.0], "resolution": [128, 128]})
    res = scan_spec["resolution"]
    if quick:
        res = [min(res[0], 64), min(res[1], 64)]
    seq = SamplingSequence.kadets(n)
    scan = rkt_lower_bound_scan(
        seq,
        re_range=tuple(scan_spec["re"]),
        im_range=tuple(scan_spec["im"]),
        resolution=tuple(res),
    )
    mu_ratio, l2, values, xs = witness_contrast(seq, wit_spec["length"], wit_spec["rate"])
    fraction = bandlimit_check(values, wit_spec["length"], wit_spec["rate"])
    sanity = carleson_sanity(seq)
    grams = {}
    for t in got.get("gram_truncations", [16] if quick else [16, 32, 64]):
        grams[str(t)] = gram_min_eigenvalue(seq, t)
    summary = {
        "kind": "pw-counterexample",
        "truncation": n,
        "delta": scan.delta,
        "delta_witness_re": scan.witness.real,
        "delta_witness_im": scan.witness.imag,
        "witness_mu_ratio": mu_ratio,
        "witness_l2_norm_sq": l2,
        "bandlimit_fraction": fraction,
        "separation": sanity.separation,
        "strip_width": sanity.strip_width,
        "gram_min_eigenvalues": grams,
    }
    checks = [
        Check("kadets-separation", abs(sanity.separation - 0.75) <= 1e-12, f"separation {sanity.separation!r}"),
        Check("kadets-strip-width", sanity.strip_width == 0.0, f"strip width {sanity.strip_width!r}"),
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
    from .paley_wiener import generating_witness

    inner = seq.points[np.abs(seq.points) <= 64.0]
    at_pts = generating_witness(seq, inner)
    max_at = float(np.max(np.abs(at_pts.values)))
    checks.append(
        Check(
            "witness-vanishes-on-sequence",
            max_at <= 1e-12,
            f"max |f(x_n)| = {max_at!r} over |x_n| <= 64",
        )
    )
    m = scan.low.shape
    rows = []
    for i in range(m[0]):
        for j in range(m[1]):
            rows.append((scan.re_grid[j], scan.im_grid[i], scan.low[i, j], scan.high[i, j]))
    header = ("re_lambda", "im_lambda", "rkt_sum_low", "rkt_sum_high")
    return summary, header, rows, checks


def run_theorem2(doc: dict, quick: bool, seed: int):
    got = _check_fields(
        doc,
        "config",
        {
            "kind": (True, lambda v, p: v),
            "seed": (False, _integer),
            "zeros": (True, lambda v, p: v),
            "alpha_angle": (True, _number),
            "epsilon": (False, lambda v, p: None if v is None else _number(v, p)),
            "grid": (True, _grid_spec),
            "delta_list": (True, _number_list),
        },
    )
    zeros_doc = got["zeros"]
    if not isinstance(zeros_doc, list) or not zeros_doc:
        raise ConfigError("config.zeros", "expected a nonempty list")
    zeros = []
    for i, zd in enumerate(zeros_doc):
        zf = _check_fields(zd, f"config.zeros[{i}]", {"re": (True, _number), "im": (True, _number)})
        zeros.append(complex(zf["re"], zf["im"]))
    try:
        theta = BlaschkeProduct(np.array(zeros))
    except DomainError as exc:
        raise ConfigError("config.zeros", str(exc)) from exc
    alpha = complex(np.exp(1j * got["alpha_angle"]))
    rings, angles = got["grid"]["rings"], got["grid"]["angles"]
    if quick:
        rings, angles = min(rings, 16), min(angles, 128)
    grid = DiskGrid.geometric(rings, angles)
    sys_ = build_theorem2_measure(theta, alpha, got.get("epsilon"))
    scan = rkt_model_scan(sys_, grid)
    wit = witness_function(sys_)
    ratio = witness_ratio(sys_, wit.function)
    rb = riesz_bounds(sys_)
    psis = {str(d): float(model_psi(sys_, d, grid)) for d in got["delta_list"]}
    clark_coords = clark_kernel_coords(sys_.basis, sys_.clark.points)
    gram = clark_coords @ clark_coords.conj().T
    gram_dev = float(np.max(np.abs(gram - np.eye(gram.shape[0]))))
    components = sublevel_component_count(theta, 0.5, 256 if quick else 512)
    summary = {
        "kind": "theorem2",
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
        "clark_gram_max_dev": gram_dev,
        "sublevel_components": components,
        "xi1_min_overlap": sys_.min_overlap(),
    }
    checks = [
        Check("clark-gram-identity", gram_dev <= 1e-9, f"max deviation {gram_dev:.3e}"),
        Check("witness-ratio-zero", ratio <= 1e-12, f"ratio {ratio:.3e}"),
        Check(
            "phi-cauchy-schwarz",
            bool(np.max(scan.phi_vals) <= 1.0 + 1e-12),
            f"max phi {float(np.max(scan.phi_vals)):.12f}",
        ),
    ]
    # decomposition: full-system sum - phi == mu-norm, with phi from the
    # closed form and the full sum from the stacked coordinates
    zs = scan.zs[:: max(1, scan.zs.size // 512)]
    e = sys_.basis.eval_matrix(zs)
    coords = np.conj(e)
    coords /= np.linalg.norm(coords, axis=1, keepdims=True)
    stack = np.vstack([sys_.zeta0_coords()[None, :], sys_.xi_coords()])
    full = np.sum(np.abs(coords @ stack.conj().T) ** 2, axis=1)
    mu_part = np.sum(np.abs(coords @ sys_.xi_coords().conj().T) ** 2, axis=1)
    dev = float(np.max(np.abs(full - np.asarray(model_phi(sys_, zs)) - mu_part)))
    checks.append(Check("decomposition-identity", dev <= 1e-9, f"max deviation {dev:.3e}"))
    rng = np.random.default_rng(seed)
    lam = 0.8 * np.sqrt(rng.uniform(0, 1, 64)) * np.exp(1j * rng.uniform(0, TWO_PI, 64))
    zpts = 0.95 * np.sqrt(rng.uniform(0, 1, 64)) * np.exp(1j * rng.uniform(0, TWO_PI, 64))
    kdev = 0.0
    for l, z in zip(lam, zpts):
        direct = kernel_value(theta, complex(l), complex(z))
        via_basis = complex(
            sys_.basis.eval_matrix(np.array([z]))[0] @ np.conj(sys_.basis.eval_matrix(np.array([l]))[0])
        )
        kdev = max(kdev, abs(direct - via_basis))
    checks.append(Check("kernel-formula-consistency", kdev <= 1e-9, f"max deviation {kdev:.3e}"))
    rows = [
        (z.real, z.imag, pv, mv)
        for z, pv, mv in zip(scan.zs, scan.phi_vals, scan.mu_norm_sq)
    ]
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
    status_by_name = {c["name"]: c["passed"] for c in summary.get("checks", [])}
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
    runp.add_argument("--out", required=True, help="output directory")
    runp.add_argument("--seed", type=int, default=DEFAULT_SEED, help="seed for the polynomial family")
    runp.add_argument("--quick", action="store_true", help="reduced grids for CI")
    repp = sub.add_parser("report", help="render a Markdown report from a summary")
    repp.add_argument("--summary", required=True, help="path to summary.json")
    repp.add_argument("--out", default="-", help="output file ('-' for stdout)")
    return parser


def main(argv=None) -> int:
    _setup_logging()
    args = _build_parser().parse_args(argv)
    if args.command == "report":
        try:
            summary = json.loads(Path(args.summary).read_text())
        except (OSError, json.JSONDecodeError) as exc:
            logger.error("cannot load summary: %s", exc)
            return EXIT_CONFIG
        text = render_report(summary)
        if args.out == "-":
            sys.stdout.write(text)
        else:
            Path(args.out).write_text(text)
        return EXIT_OK

    try:
        doc = load_config(args.config)
    except ConfigError as exc:
        logger.error("config rejected: %s", exc)
        return EXIT_CONFIG
    seed = doc.get("seed", args.seed)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    kind = doc["kind"]
    logger.info("running %s (quick=%s, seed=%s, backend=%s)", kind, args.quick, seed, _kernels.ACTIVE_BACKEND)
    try:
        summary, header, rows, checks = _RUNNERS[kind](doc, args.quick, seed)
    except ConfigError as exc:
        logger.error("config rejected: %s", exc)
        return EXIT_CONFIG
    except PrecisionError as exc:
        logger.error("numerical precision failure: %s", exc)
        return EXIT_PRECISION
    summary["seed"] = seed
    summary["quick"] = bool(args.quick)
    summary["backend"] = _kernels.ACTIVE_BACKEND
    summary["conventions"] = CONVENTIONS
    summary["checks"] = [c.as_dict() for c in checks]
    csv_path = out_dir / f"{kind}.csv"
    _write_csv(csv_path, header, rows)
    (out_dir / "summary.json").write_text(json.dumps(summary, indent=2, sort_keys=True) + "\n")
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
    logger.info("wrote %s and summary.json", csv_path.name)
    return EXIT_OK


if __name__ == "__main__":
    raise SystemExit(main())
