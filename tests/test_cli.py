import gc
import importlib.util
import json
import logging
import math
import os
import re
import subprocess
import sys
import tracemalloc
import warnings
import weakref
from pathlib import Path

import numpy as np
import pytest

from rktlab import _kernels
from rktlab.cli import CSV_BLOCK_ROWS, EXIT_CONFIG, EXIT_INVARIANT, EXIT_OK, EXIT_PRECISION, MEASURE_FIELDS, SCHEMAS, _write_csv, main, render_report
from rktlab.errors import DegenerateSystemError, DomainError, EvaluationError, PrecisionError


ROOT = Path(__file__).resolve().parents[1]
SHIPPED = sorted((ROOT / "configs").glob("*.json"))

# the benchmark's correctness gate, loaded read-only from its file
_spec = importlib.util.spec_from_file_location("perfbench_gate", ROOT / "perfbench" / "gate.py")
gate = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(gate)


def write_config(tmp_path: Path, name: str, doc) -> str:
    """Write doc as JSON, or as it stands if it is already JSON text."""
    p = tmp_path / name
    p.write_text(doc if isinstance(doc, str) else json.dumps(doc))
    return str(p)


def run(args):
    return main(args)


def run_without_warnings(args):
    """main with every warning raised as an error: an exit-3 path names its
    cause in its own message, and numpy warns of nothing on the way."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        return main(args)


WINDOWS_DOC = {"kind": "windows", "measure": {"builtin": "arclength"}, "max_depth": 6}
RKT_DOC = {
    "kind": "rkt-hardy",
    "measure": {"builtin": "normalized_arclength"},
    "p": 2.0,
    "grid": {"levels": 8, "angles": 16},
    "polynomials": {"count": 10, "max_degree": 12},
}
PHIH_DOC = {
    "kind": "phi-h",
    "arc": {"center": 0.0, "length": 0.5},
    "p": 2.0,
    "h_exponents": [3, 4, 5],
}
PW_DOC = {
    "kind": "pw-counterexample",
    "truncation": 1024,
    "scan": {"re": [0.0, 4.0], "im": [-2.0, 2.0], "resolution": [64, 64]},
    "gram_truncations": [16],
}
T2_DOC = {
    "kind": "theorem2",
    "zeros": [{"re": 0.0, "im": 0.0}] * 8,
    "alpha_angle": 0.0,
    "epsilon": None,
    "grid": {"rings": 16, "angles": 128},
    "delta_list": [0.1, 0.2],
}


def capped_measure(atoms=256, breakpoints=256, cells=(2, 4)):
    """An inline measure document with the given numbers of atoms, boundary
    breakpoints and (radial, angular) area cells; no atom sits on an endpoint
    of the window-additivity partition."""
    nr, na = cells
    return {
        "atoms": [{"re": 0.9 * math.cos(k + 0.05), "im": 0.9 * math.sin(k + 0.05), "mass": 0.01} for k in range(atoms)],
        "boundary_density": {
            "breakpoints": [6.0 * k / breakpoints for k in range(breakpoints)],
            "values": [0.1] * breakpoints,
        },
        "area_density": {
            "radial_breaks": [k / nr for k in range(nr + 1)],
            "angular_breaks": [6.0 * k / na for k in range(na + 1)],
            "values": [[0.2] * na for _ in range(nr)],
        },
    }


class TestConfigValidation:
    @pytest.mark.parametrize(
        "doc,cells", [(WINDOWS_DOC, (64, 64)), (dict(RKT_DOC, grid={"levels": 2, "angles": 4}), (4, 4))], ids=["windows", "rkt-hardy"]
    )
    def test_measure_at_every_cap_runs(self, tmp_path, doc, cells):
        cfg = write_config(tmp_path, "c.json", dict(doc, measure=capped_measure(cells=cells)))
        assert run(["run", "--config", cfg, "--out", str(tmp_path / "o")]) == EXIT_OK

    def test_malformed_json(self, tmp_path, caplog):
        # bad syntax, and nesting deep enough that the parser raises RecursionError
        for text in ["{not valid", "[" * 1200 + "]" * 1200]:
            p = tmp_path / "bad.json"
            p.write_text(text)
            out = tmp_path / "o"
            assert run(["run", "--config", str(p), "--out", str(out)]) == EXIT_CONFIG
            assert "config rejected: config: malformed JSON" in caplog.text
            assert not out.exists()
            caplog.clear()

    def test_undecodable_config_exits_two(self, tmp_path, caplog):
        p = tmp_path / "bad.json"
        p.write_bytes(b"\xff\xfe{}")
        out = tmp_path / "o"
        assert run(["run", "--config", str(p), "--out", str(out)]) == EXIT_CONFIG
        assert "config rejected: config: cannot read" in caplog.text
        assert not out.exists()

    @pytest.mark.parametrize("out", ["f", "f/o"])
    def test_out_at_or_under_a_file_exits_two(self, tmp_path, capsys, out):
        # argparse exits 2 before a config is read, as for --seed, so no run is wasted
        (tmp_path / "f").write_text("kept")
        with pytest.raises(SystemExit) as exc:
            run(["run", "--config", str(tmp_path / "missing.json"), "--out", str(tmp_path / out)])
        assert exc.value.code == EXIT_CONFIG
        assert "argument --out" in capsys.readouterr().err
        assert (tmp_path / "f").read_text() == "kept"

    def test_readme_table_names_every_field(self):
        readme = (ROOT / "README.md").read_text()
        rows = {line.split("|")[1].strip(" `"): line for line in readme.splitlines() if line.startswith("| `")}

        def names(fields):
            for name, (_, checker) in fields.items():
                yield name
                if isinstance(checker, dict):
                    yield from names(checker)

        for kind, fields in SCHEMAS.items():
            missing = [name for name in names(fields) if not re.search(rf"\b{name}\b", rows[kind])]
            assert not missing, (kind, missing)
        measure = readme.split("`cli.MEASURE_FIELDS`", 1)[1].split("Summary keys", 1)[0]
        missing = [name for name in names(MEASURE_FIELDS) if not re.search(rf"\b{name}\b", measure)]
        assert not missing, ("measure", missing)

    def test_unknown_field_names_path(self, tmp_path, caplog):
        doc = dict(WINDOWS_DOC, bogus=1)
        cfg = write_config(tmp_path, "w.json", doc)
        assert run(["run", "--config", cfg, "--out", str(tmp_path / "o")]) == EXIT_CONFIG
        assert "config.bogus" in caplog.text

    def test_missing_required_field(self, tmp_path, caplog):
        cfg = write_config(tmp_path, "w.json", {"kind": "windows", "max_depth": 4})
        assert run(["run", "--config", cfg, "--out", str(tmp_path / "o")]) == EXIT_CONFIG
        assert "config.measure" in caplog.text

    def test_unknown_kind(self, tmp_path):
        cfg = write_config(tmp_path, "w.json", {"kind": "nope"})
        assert run(["run", "--config", cfg, "--out", str(tmp_path / "o")]) == EXIT_CONFIG

    def test_nested_field_path(self, tmp_path, caplog):
        doc = {
            "kind": "theorem2",
            "zeros": [{"re": 0.0, "im": 0.0, "extra": 1}],
            "alpha_angle": 0.0,
            "grid": {"rings": 8, "angles": 32},
            "delta_list": [0.1],
        }
        cfg = write_config(tmp_path, "t.json", doc)
        assert run(["run", "--config", cfg, "--out", str(tmp_path / "o")]) == EXIT_CONFIG
        assert "config.zeros[0].extra" in caplog.text

    def test_inline_measure_document(self, tmp_path):
        doc = {
            "kind": "windows",
            "measure": {
                "atoms": [{"re": 0.5, "im": 0.0, "mass": 1.0}],
                "boundary_density": {"breakpoints": [0.0], "values": [0.25]},
            },
            "max_depth": 4,
        }
        cfg = write_config(tmp_path, "w.json", doc)
        out = tmp_path / "o"
        assert run(["run", "--config", cfg, "--out", str(out), "--quick"]) == EXIT_OK
        summary = json.loads((out / "summary.json").read_text())
        assert summary["c4"] == 0.25


class TestRunners:
    def test_windows_lebesgue(self, tmp_path):
        cfg = write_config(tmp_path, "w.json", WINDOWS_DOC)
        out = tmp_path / "o"
        assert run(["run", "--config", cfg, "--out", str(out)]) == EXIT_OK
        summary = json.loads((out / "summary.json").read_text())
        assert summary["c3_estimate"] == pytest.approx(1.0, abs=1e-12)
        assert (out / "windows.csv").exists()
        assert all(c["passed"] for c in summary["checks"])

    def test_rkt_hardy(self, tmp_path):
        cfg = write_config(tmp_path, "r.json", RKT_DOC)
        out = tmp_path / "o"
        assert run(["run", "--config", cfg, "--out", str(out), "--quick"]) == EXIT_OK
        summary = json.loads((out / "summary.json").read_text())
        assert summary["c2_estimate"] == pytest.approx(1.0, abs=1e-6)
        assert summary["c1_min_ratio"] == pytest.approx(1.0, abs=1e-6)
        header = (out / "rkt-hardy.csv").read_text().splitlines()[0]
        assert header == "re_lambda,im_lambda,rkt_value"

    def test_kernel_norm_check_sees_the_scan(self, tmp_path, monkeypatch):
        # kernel-norm-closed-form and the rkt_value column reach ||k_lam||_p through one kernel
        cfg = write_config(tmp_path, "r.json", RKT_DOC)
        assert run(["run", "--config", cfg, "--out", str(tmp_path / "a"), "--quick"]) == EXIT_OK
        kernel = _kernels.kernel_pow_circle_sum

        def off_by_one_percent(*args):
            norms, nums = kernel(*args)
            return 0.99 * norms, nums

        monkeypatch.setattr(_kernels, "kernel_pow_circle_sum", off_by_one_percent)
        assert run(["run", "--config", cfg, "--out", str(tmp_path / "b"), "--quick"]) == EXIT_INVARIANT
        checks = json.loads((tmp_path / "b" / "summary.json").read_text())["checks"]
        assert [c["name"] for c in checks if not c["passed"]] == ["kernel-norm-closed-form"]
        csvs = [np.loadtxt(tmp_path / d / "rkt-hardy.csv", delimiter=",", skiprows=1) for d in "ab"]
        assert np.array_equal(csvs[0][:, :2], csvs[1][:, :2]) and np.allclose(csvs[1][:, 2], csvs[0][:, 2] / 0.99, rtol=1e-12)

    def test_rkt_hardy_work_counts(self, tmp_path):
        # the shipped scan: one bisection tree per ray, the nodes of all 1,281
        # circle rules, and the nodes of their 13,179 distinct panels
        cfg = Path(__file__).resolve().parents[1] / "configs" / "rkt_hardy.json"
        out = tmp_path / "o"
        assert run(["run", "--config", str(cfg), "--out", str(out)]) == EXIT_OK
        summary = json.loads((out / "summary.json").read_text())
        assert (summary["scan_rule_builds"], summary["scan_nodes"], summary["scan_shared_nodes"]) == (100, 1_720_224, 210_864)

    def test_phi_h(self, tmp_path):
        cfg = write_config(tmp_path, "p.json", PHIH_DOC)
        out = tmp_path / "o"
        assert run(["run", "--config", cfg, "--out", str(out), "--quick"]) == EXIT_OK
        summary = json.loads((out / "summary.json").read_text())
        assert summary["off_arc_exponent"] >= 0.9
        assert summary["endpoint_classification"] == "endpoint"

    def test_pw(self, tmp_path):
        cfg = write_config(tmp_path, "pw.json", PW_DOC)
        out = tmp_path / "o"
        assert run(["run", "--config", cfg, "--out", str(out), "--quick"]) == EXIT_OK
        summary = json.loads((out / "summary.json").read_text())
        assert summary["delta"] > 0.0
        assert summary["witness_mu_ratio"] < 1e-6
        assert summary["separation"] == 0.75
        assert 0.0 < summary["witness_extrapolation_spread"] <= 1e-2
        assert 0.0 < summary["tail_bound_ratio"] <= 1.0
        vanish = [c for c in summary["checks"] if c["name"] == "witness-vanishes-on-sequence"]
        assert vanish[0]["passed"] and "|x_n| <= 128.0" in vanish[0]["detail"]
        bracket = [c for c in summary["checks"] if c["name"] == "sinc-mass-bracket"]
        assert bracket[0]["passed"] and f"{summary['tail_bound_ratio']:.3e}" in bracket[0]["detail"]
        header = (out / "pw-counterexample.csv").read_text().splitlines()[0]
        assert header == "re_lambda,im_lambda,rkt_sum_low,rkt_sum_high"

    def test_theorem2(self, tmp_path):
        cfg = write_config(tmp_path, "t.json", T2_DOC)
        out = tmp_path / "o"
        assert run(["run", "--config", cfg, "--out", str(out), "--quick"]) == EXIT_OK
        summary = json.loads((out / "summary.json").read_text())
        assert summary["rkt_delta"] > 0.0
        assert summary["witness_ratio"] <= 1e-12
        assert summary["witness_abs_at_zeta0"] >= 1e-6 * 8**0.5  # |Theta'| = 8 on the circle for z^8
        checks = {c["name"]: c["passed"] for c in summary["checks"]}
        assert checks["witness-nonzero-at-deleted-point"] and checks["kernel-formula-consistency"]
        assert summary["eta"] < 0.5
        assert summary["sublevel_components"] == 1
        # every critical value of z^8 is 0, so no eps-margin is finite
        assert summary["sublevel_margin"] is None
        header = (out / "theorem2.csv").read_text().splitlines()[0]
        assert header == "re_z,im_z,phi,norm_mu_sq"

    def test_seed_in_config_wins(self, tmp_path):
        doc = dict(RKT_DOC, seed=5)
        cfg = write_config(tmp_path, "r.json", doc)
        out = tmp_path / "o"
        assert run(["run", "--config", cfg, "--out", str(out), "--quick", "--seed", "9"]) == EXIT_OK
        summary = json.loads((out / "summary.json").read_text())
        assert summary["seed"] == 5
        assert summary["backend"] == "numpy"


class TestDeterminism:
    @pytest.mark.parametrize("doc,kind", [(RKT_DOC, "rkt-hardy"), (T2_DOC, "theorem2"), (PHIH_DOC, "phi-h")])
    def test_csv_byte_identical(self, tmp_path, doc, kind):
        cfg = write_config(tmp_path, "c.json", doc)
        outs = []
        for sub in ("a", "b"):
            out = tmp_path / sub
            assert run(["run", "--config", cfg, "--out", str(out), "--quick"]) == EXIT_OK
            outs.append((out / f"{kind}.csv").read_bytes())
        assert outs[0] == outs[1]

    def test_two_cpus_write_the_one_cpu_bytes(self, tmp_path, affinity, caplog):
        outs = []
        for cpus in ({0}, {0, 1}):
            affinity.cpus = cpus
            out = tmp_path / str(len(cpus))
            caplog.clear()
            with caplog.at_level(logging.INFO, logger="rktlab"):
                assert run(["run", "--config", str(ROOT / "configs" / "rkt_hardy.json"), "--out", str(out)]) == EXIT_OK
            assert re.search(rf"C2 scan at 1281 kernel points \(processes: {len(cpus)}\)", caplog.text)
            outs.append([(out / f).read_bytes() for f in sorted(os.listdir(out))])
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)
        assert affinity.cpus == {0, 1} and affinity.pins == [{0}, {0, 1}] and outs[0] == outs[1]


def one_join_csv(path: Path, header, rows) -> None:
    """The writer that joined the whole table into one string: the reference."""
    lines = [",".join(header)] + [",".join(map(repr, row)) for row in rows]
    path.write_text("\n".join(lines) + "\n")


def repeated_value_tables(n):
    """name -> (header, rows) of n float rows whose columns take the writer's
    one-repr-per-value path, or sit just beside it."""
    rng = np.random.default_rng(n)
    other = rng.standard_normal(n) * 10.0 ** rng.integers(-300, 300, n)
    grid = np.linspace(-2.0, 2.0, 64)
    nans = np.array([0x7FF8000000000000, 0x7FF8000000000001, 0xFFF8000000000000, 0x7FF0000000000001], dtype=np.uint64).view(np.float64)
    half = np.arange(max(n // 2, 1), dtype=float) / 3.0  # n // 2 distinct values: on the threshold
    return {
        # a pw-counterexample table: Re lambda tiled, Im lambda repeated
        "pw-shaped": (("re", "im", "low", "high"), np.column_stack([np.tile(grid, n // 64 + 1)[:n], np.repeat(grid, n // 64 + 1)[:n], other, -other])),
        "signed-zeros": (("z", "x"), np.column_stack([rng.choice([0.0, -0.0, 1.5], n), other])),
        "nan-payloads": (("n", "m"), np.column_stack([rng.choice(nans, n), np.where(rng.random(n) < 0.25, rng.choice(nans, n), other)])),
        "constant": (("c", "x"), np.column_stack([np.full(n, 0.1), other])),
        "half-distinct": (("h", "h1"), np.column_stack([np.resize(half, n), np.resize(np.append(half, 7.0), n)])),
        "one-column": (("x",), rng.choice(grid, (n, 1))),
    }


B = CSV_BLOCK_ROWS
#: table lengths around one block, and around the two-process writer's threshold,
#: up to the shape of a theorem2 table (8 blocks and the origin)
WRITER_SIZES = [0, 1, B - 1, B, B + 1, 2 * B - 1, 2 * B, 2 * B + 1, 8 * B + 1]


class TestCsvWriter:
    @pytest.mark.parametrize("n", WRITER_SIZES)
    def test_same_bytes_as_one_join(self, tmp_path, affinity, n):
        rng = np.random.default_rng(n)
        table = rng.standard_normal((n, 4)) * 10.0 ** rng.integers(-300, 300, (n, 4))
        table[:1] = table[-1:] = [-0.0, float("nan"), -float("inf"), 5e-324]  # in both halves of a split table
        tuples = [(i, x, y) for i, (x, y) in enumerate(table[:, :2].tolist())]  # an int column, as windows writes
        for header, rows, ref_rows in ((("a", "b", "c", "d"), table, table.tolist()), (("g", "x", "y"), np.array(tuples, dtype=object).reshape(n, 3), tuples)):
            assert _write_csv(tmp_path / "blocks.csv", header, rows) == (2 if n >= 2 * B else 1)
            one_join_csv(tmp_path / "one.csv", header, ref_rows)
            assert (tmp_path / "blocks.csv").read_bytes() == (tmp_path / "one.csv").read_bytes()

    @pytest.mark.parametrize("name", list(repeated_value_tables(0)))
    @pytest.mark.parametrize("n", WRITER_SIZES)
    def test_repeated_values_same_bytes_as_one_join(self, tmp_path, affinity, n, name):
        # the child's first block decides afresh whether a column repeats
        header, rows = repeated_value_tables(n)[name]
        _write_csv(tmp_path / "blocks.csv", header, rows)
        one_join_csv(tmp_path / "one.csv", header, rows.tolist())
        assert (tmp_path / "blocks.csv").read_bytes() == (tmp_path / "one.csv").read_bytes()

    def test_one_cpu_writes_the_same_bytes_serially(self, tmp_path, affinity):
        header, rows = repeated_value_tables(8 * B + 1)["pw-shaped"]
        assert _write_csv(tmp_path / "two.csv", header, rows) == 2
        affinity.cpus = {0}
        assert _write_csv(tmp_path / "one.csv", header, rows) == 1
        assert (tmp_path / "one.csv").read_bytes() == (tmp_path / "two.csv").read_bytes()

    # the child case's id dates from when a failing child raised OSError
    @pytest.mark.parametrize("failing", ["child", "parent"], ids=["child-OSError", "parent-ZeroDivisionError"])
    def test_a_failing_half_raises_and_the_child_is_reaped(self, tmp_path, monkeypatch, affinity, failing):
        # a failing child leaves its half to the parent, which writes the one-process bytes
        from rktlab import cli

        parent, format_column = os.getpid(), cli._format_column

        def format_or_fail(col, repeats):
            if (os.getpid() == parent) == (failing == "parent"):
                raise ZeroDivisionError("injected")
            return format_column(col, repeats)

        monkeypatch.setattr(cli, "_format_column", format_or_fail)
        if failing == "child":
            assert _write_csv(tmp_path / "t.csv", ("x",), np.zeros((2 * B, 1))) == 2
            assert (tmp_path / "t.csv").read_text() == "x\n" + "0.0\n" * (2 * B)
        else:
            with pytest.raises(ZeroDivisionError, match="injected"):
                _write_csv(tmp_path / "t.csv", ("x",), np.zeros((2 * B, 1)))
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)
        assert [f.name for f in tmp_path.iterdir()] == ["t.csv"]

    def test_memory_bounded_on_the_cap_grid(self, tmp_path, affinity):
        # the table of a theorem2 run on its largest grid, 128 x 2,048 points and
        # the origin.  Taking tolist and joining the whole table peaked at 122 MiB
        # of Python objects; one block of rows at a time holds under 2 MiB
        table = np.random.default_rng(0).uniform(-1.0, 1.0, (128 * 2048 + 1, 4))
        # on the fake two CPUs, the parent's half and the child's read back
        tracemalloc.start()
        try:
            _write_csv(tmp_path / "t.csv", ("re_z", "im_z", "phi", "norm_mu_sq"), table)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 8 * 2**20, f"peak {peak / 2**20:.1f} MiB"

    def test_memory_bounded_with_a_tiled_axis(self, tmp_path, affinity):
        # a pw-counterexample table on its largest scan grid, 512 x 512 points,
        # whose grid axes take the writer's one-repr-per-value path
        axis = np.linspace(0.0, 4.0, 512)
        low = np.random.default_rng(0).uniform(0.0, 1.0, 512 * 512)
        table = np.column_stack([np.tile(axis, 512), np.repeat(axis, 512), low, low + 1e-3])
        tracemalloc.start()
        try:
            _write_csv(tmp_path / "t.csv", ("re_lambda", "im_lambda", "rkt_sum_low", "rkt_sum_high"), table)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 8 * 2**20, f"peak {peak / 2**20:.1f} MiB"


class TestExitCodes:
    def test_sixteen_zeros_at_0_99_exit_zero(self, tmp_path):
        # Clark points where |Theta'| reaches 3,184 pass the residual bound scaled by it
        cfg = write_config(tmp_path, "t.json", dict(T2_DOC, zeros=[{"re": 0.99, "im": 0.0}] * 16))
        assert run_without_warnings(["run", "--config", cfg, "--out", str(tmp_path / "o")]) == EXIT_OK

    def test_failed_check_exits_one(self, tmp_path, monkeypatch):
        from rktlab import cli

        def fake_runner(doc, quick, seed):
            return (
                {"kind": "windows", "c3_estimate": 0.0},
                ("generation", "min_ratio", "witness_center", "witness_length"),
                [],
                [cli.Check("window-additivity", False, "forced failure")],
            )

        monkeypatch.setitem(cli._RUNNERS, "windows", fake_runner)
        cfg = write_config(tmp_path, "w.json", WINDOWS_DOC)
        out = tmp_path / "o"
        assert run(["run", "--config", cfg, "--out", str(out)]) == EXIT_INVARIANT
        summary = json.loads((out / "summary.json").read_text())
        assert summary["checks"][0]["name"] == "window-additivity"
        assert summary["checks"][0]["passed"] is False

    @pytest.mark.parametrize(
        "doc,path",
        [
            (dict(RKT_DOC, grid={"levels": 0, "angles": 16}), "config.grid.levels"),
            (dict(RKT_DOC, grid={"levels": 30, "angles": 16}), "config.grid.levels"),
            (dict(RKT_DOC, grid={"levels": 8, "angles": 0}), "config.grid.angles"),
            (dict(RKT_DOC, polynomials={"count": 0, "max_degree": 12}), "config.polynomials.count"),
            (dict(RKT_DOC, polynomials={"count": 10, "max_degree": -1}), "config.polynomials.max_degree"),
            (dict(PHIH_DOC, sup_grid={"rings": 0, "angles": 24}), "config.sup_grid.rings"),
            (dict(PHIH_DOC, sup_grid={"rings": 6, "angles": 0}), "config.sup_grid.angles"),
            (dict(PHIH_DOC, h_exponents=[5]), "config.h_exponents"),
            (dict(PHIH_DOC, h_exponents=[5, 5]), "config.h_exponents"),
            (dict(PHIH_DOC, h_exponents=[3, 3, 4, 5]), "config.h_exponents"),
            (dict(T2_DOC, zeros=[{"re": 0.0, "im": 0.0}]), "config.zeros"),
            (dict(T2_DOC, grid={"rings": 0, "angles": 128}), "config.grid.rings"),
            (dict(T2_DOC, grid={"rings": 16, "angles": 0}), "config.grid.angles"),
            (dict(T2_DOC, delta_list=[0.1, 0.0]), "config.delta_list[1]"),
            (dict(T2_DOC, delta_list=[-0.1]), "config.delta_list[0]"),
            (dict(T2_DOC, delta_list=[10.0]), "config.delta_list[0]"),
            (dict(T2_DOC, epsilon=0.0), "config.epsilon"),
            (dict(T2_DOC, epsilon=1.0), "config.epsilon"),
            (dict(PW_DOC, scan=dict(PW_DOC["scan"], resolution=[32, 64])), "config.scan.resolution"),
            (dict(PW_DOC, scan=dict(PW_DOC["scan"], re=[0.0, 1023.0])), "config.scan.re"),
            (dict(PW_DOC, scan=dict(PW_DOC["scan"], re=[0.0])), "config.scan.re"),
            (dict(PW_DOC, witness={"length": 256.0, "rate": 4}), "config.witness.rate"),
            (dict(PW_DOC, witness={"length": 128.0, "rate": 8}), "config.witness.length"),
            (dict(PW_DOC, gram_truncations=[100000]), "config.gram_truncations[0]"),
            (dict(PW_DOC, gram_truncations=[16, 0]), "config.gram_truncations[1]"),
            (dict(PHIH_DOC, h_exponents=[3, 17]), "config.h_exponents[1]"),
            (dict(WINDOWS_DOC, max_depth=17), "config.max_depth"),
            (dict(PW_DOC, scan=dict(PW_DOC["scan"], im=[-200.0, 200.0])), "config.scan.im"),
            (dict(T2_DOC, grid={"rings": 129, "angles": 128}), "config.grid.rings"),
            (dict(T2_DOC, grid={"rings": 16, "angles": 2049}), "config.grid.angles"),
            (dict(T2_DOC, zeros=[{"re": 0.0, "im": 0.0}] * 33), "config.zeros"),
            (dict(WINDOWS_DOC, refine_arc={"center": 0.0, "length": 1.0}, refine_depths=[0.5, 0.6]), "config.refine_depths"),
            (dict(WINDOWS_DOC, refine_arc={"center": 0.0, "length": 1.0}, refine_depths=[0.0]), "config.refine_depths"),
            (dict(WINDOWS_DOC, refine_arc={"center": 0.0, "length": 1.0}, refine_depths=[2.0]), "config.refine_depths"),
            (dict(WINDOWS_DOC, refine_arc={"center": 0.0, "length": 1.0}, refine_depths=[1e-30]), "config.refine_depths"),
            (dict(PW_DOC, truncation=16385), "config.truncation"),
            (dict(PW_DOC, scan=dict(PW_DOC["scan"], resolution=[64, 513])), "config.scan.resolution[1]"),
            (dict(PW_DOC, witness={"length": 256.0, "rate": 33}), "config.witness.rate"),
            (dict(PW_DOC, truncation=4096, witness={"length": 1024.0, "rate": 8}), "config.witness.length"),
            (dict(PW_DOC, truncation=4096, gram_truncations=[16, 1025]), "config.gram_truncations[1]"),
            (dict(PW_DOC, gram_truncations=[16] * 9), "config.gram_truncations"),
            (dict(PHIH_DOC, sup_grid={"rings": 33, "angles": 24}), "config.sup_grid.rings"),
            (dict(PHIH_DOC, sup_grid={"rings": 6, "angles": 257}), "config.sup_grid.angles"),
            (dict(RKT_DOC, grid={"levels": 8, "angles": 513}), "config.grid.angles"),
            (dict(RKT_DOC, polynomials={"count": 1001, "max_degree": 12}), "config.polynomials.count"),
            (dict(RKT_DOC, polynomials={"count": 10, "max_degree": 257}), "config.polynomials.max_degree"),
            (dict(RKT_DOC, measure=capped_measure(atoms=257)), "config.measure.atoms"),
            (dict(RKT_DOC, measure=capped_measure(breakpoints=257)), "config.measure.boundary_density.breakpoints"),
            (dict(RKT_DOC, measure=capped_measure(cells=(17, 1))), "config.measure.area_density"),
            (dict(WINDOWS_DOC, measure=capped_measure(atoms=257)), "config.measure.atoms"),
            (dict(WINDOWS_DOC, measure=capped_measure(breakpoints=257)), "config.measure.boundary_density.breakpoints"),
            (dict(WINDOWS_DOC, measure=capped_measure(cells=(1, 4097))), "config.measure.area_density"),
            (dict(T2_DOC, delta_list=[0.1] * 65), "config.delta_list"),
            (dict(WINDOWS_DOC, measure={"builtin": "arclength", "scale": -1.0}), "config.measure.scale"),
            (dict(WINDOWS_DOC, measure={"builtin": ["arclength"]}), "config.measure.builtin"),
            (dict(RKT_DOC, seed=-3), "config.seed"),
            (dict(T2_DOC, seed=-1), "config.seed"),
            (dict(WINDOWS_DOC, seed=2**64), "config.seed"),
            (dict(WINDOWS_DOC, refine_depths=[0.5]), "config.refine_depths"),
            (dict(WINDOWS_DOC, measure={"atomz": []}), "config.measure.atomz"),
            (dict(WINDOWS_DOC, measure={"atoms": [{"re": 0.5, "im": 0.0, "mass": 1.0, "extra": 5}]}), "config.measure.atoms[0].extra"),
            (dict(WINDOWS_DOC, measure={"atoms": [{"re": True, "im": 0.0, "mass": 1.0}]}), "config.measure.atoms[0].re"),
            (dict(WINDOWS_DOC, measure={"boundary_density": {"breakpoints": [0.0]}}), "config.measure.boundary_density.values"),
            (dict(WINDOWS_DOC, measure={"boundary_density": {"breakpoints": [0.0, 1.0], "values": [0.5]}}), "config.measure.boundary_density:"),
            (dict(WINDOWS_DOC, measure={"area_density": {"radial_breaks": [0.0, 1.0], "angular_breaks": [0.0, 1.0], "values": [0.5]}}),
             "config.measure.area_density.values[0]"),
            (dict(WINDOWS_DOC, measure={"area_density": {"radial_breaks": [0.0, 0.5, 1.0], "angular_breaks": [0.0, 1.0], "values": [[0.5], [0.5, 0.5]]}}),
             "config.measure.area_density.values:"),
            # an integer literal past the 4,300-digit parsing limit, written as text
            # because json.dumps refuses it too, and one past the float range
            pytest.param('{"kind": "windows", "measure": {"builtin": "arclength"}, "max_depth": ' + "9" * 5000 + "}",
                         "config: malformed JSON", id="int-literal-too-long"),
            pytest.param(dict(WINDOWS_DOC, measure={"builtin": "arclength", "scale": 10**400}), "config.measure.scale: number must be finite",
                         id="int-beyond-float-range"),
        ],
    )
    def test_out_of_domain_field_exits_two(self, tmp_path, caplog, doc, path):
        cfg = write_config(tmp_path, "c.json", doc)
        out = tmp_path / "o"
        assert run(["run", "--config", cfg, "--out", str(out)]) == EXIT_CONFIG
        assert path in caplog.text
        assert not out.exists()

    @pytest.mark.parametrize("out", ["d", "missing/r.md"], ids=["a-directory", "no-parent"])
    def test_report_out_not_a_file_path_exits_two(self, tmp_path, capsys, out):
        # argparse exits 2 before the summary is read, as for run --out
        (tmp_path / "d").mkdir()
        with pytest.raises(SystemExit) as exc:
            run(["report", "--summary", str(tmp_path / "missing.json"), "--out", str(tmp_path / out)])
        assert exc.value.code == EXIT_CONFIG
        assert "argument --out" in capsys.readouterr().err
        assert not (tmp_path / "missing").exists()

    @pytest.mark.parametrize("seed", ["-3", str(2**64), "x"])
    def test_seed_flag_outside_u64_exits_two(self, tmp_path, capsys, seed):
        # argparse exits 2 before a config is read; numpy never sees the seed
        cfg = write_config(tmp_path, "c.json", RKT_DOC)
        with pytest.raises(SystemExit) as exc:
            run(["run", "--config", cfg, "--out", str(tmp_path / "o"), "--seed", seed])
        assert exc.value.code == EXIT_CONFIG
        assert "argument --seed" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_largest_seed_runs(self, tmp_path):
        cfg = write_config(tmp_path, "c.json", dict(T2_DOC, grid={"rings": 2, "angles": 8}))
        assert run(["run", "--config", cfg, "--out", str(tmp_path / "o"), "--seed", str(2**64 - 1)]) == EXIT_OK
        assert json.loads((tmp_path / "o" / "summary.json").read_text())["seed"] == 2**64 - 1

    @pytest.mark.parametrize(
        "grid,message",
        [({"levels": 8, "angles": 16}, "|k_lam|^p overflows"), ({"levels": 1, "angles": 4}, "|f|^p overflows")],
        ids=["kernel-overflow", "polynomial-overflow"],
    )
    def test_overflowing_p_exits_three(self, tmp_path, caplog, grid, message):
        # at p = 300, |k_lam|^p overflows on the grid and |f|^p on the circle:
        # either ratio would be inf/inf, so the run writes nothing
        doc = dict(RKT_DOC, p=300.0, grid=grid, polynomials={"count": 10, "max_degree": 32})
        out = tmp_path / "o"
        assert run_without_warnings(["run", "--config", write_config(tmp_path, "c.json", doc), "--out", str(out)]) == EXIT_PRECISION
        assert message in caplog.text
        assert not out.exists()

    @pytest.mark.parametrize(
        "doc,message",
        [(dict(PHIH_DOC, p=1e300), "phi_h overflows"), (dict(WINDOWS_DOC, measure={"builtin": "arclength", "scale": 1e308}), "window masses overflow")],
        ids=["phi-h", "windows"],
    )
    def test_overflow_exits_three(self, tmp_path, caplog, doc, message):
        out = tmp_path / "o"
        assert run_without_warnings(["run", "--config", write_config(tmp_path, "c.json", doc), "--out", str(out)]) == EXIT_PRECISION
        assert message in caplog.text
        assert not out.exists()

    def test_overflowing_measure_integral_exits_three(self, tmp_path, caplog):
        # ||k_lam||_2^2 stays finite, but against a density of 1.7e308 / (2*pi) the
        # integral of |k_lam|^2 overflows at |lam| = 0.5: the message blames the
        # measure integral, not the kernel, and numpy warns of nothing
        doc = dict(RKT_DOC, measure={"builtin": "normalized_arclength", "scale": 1.7e308})
        out = tmp_path / "o"
        assert run_without_warnings(["run", "--config", write_config(tmp_path, "c.json", doc), "--out", str(out)]) == EXIT_PRECISION
        assert "the measure integral of |k_lam|^p overflows at |lam| = 0.5," in caplog.text
        assert not out.exists()

    def test_window_check_scales_with_the_measure(self, tmp_path):
        # at density 1e15 the scan ratio and the boundary minimum differ by rounding, about 0.1
        doc = dict(WINDOWS_DOC, measure={"builtin": "arclength", "scale": 1e15})
        assert run(["run", "--config", write_config(tmp_path, "c.json", doc), "--out", str(tmp_path / "o")]) == EXIT_OK

    def test_precision_error_exits_three(self, tmp_path, monkeypatch):
        from rktlab import cli

        def fake_runner(doc, quick, seed):
            raise PrecisionError("forced precision failure")

        monkeypatch.setitem(cli._RUNNERS, "windows", fake_runner)
        cfg = write_config(tmp_path, "w.json", WINDOWS_DOC)
        assert run_without_warnings(["run", "--config", cfg, "--out", str(tmp_path / "o")]) == EXIT_PRECISION

    @pytest.mark.parametrize(
        "error,code",
        [(EvaluationError, EXIT_PRECISION), (DomainError, EXIT_CONFIG), (DegenerateSystemError, EXIT_CONFIG)],
    )
    def test_leftover_error_maps_to_exit_code(self, tmp_path, monkeypatch, caplog, error, code):
        from rktlab import cli

        def fake_runner(doc, quick, seed):
            raise error("forced failure")

        monkeypatch.setitem(cli._RUNNERS, "windows", fake_runner)
        cfg = write_config(tmp_path, "w.json", WINDOWS_DOC)
        out = tmp_path / "o"
        assert run_without_warnings(["run", "--config", cfg, "--out", str(out)]) == code
        assert "forced failure" in caplog.text
        assert not out.exists()


class TestShippedConfigs:
    @pytest.mark.parametrize("config", SHIPPED, ids=lambda p: p.stem)
    def test_quick_run_passes_every_check(self, tmp_path, config):
        out = tmp_path / "o"
        assert run(["run", "--config", str(config), "--out", str(out), "--quick"]) == EXIT_OK
        summary = json.loads((out / "summary.json").read_text())
        checks = summary["checks"]
        assert checks and all(c["passed"] for c in checks), checks
        # every cell is a plain number: repr of a numpy scalar would read np.float64(...)
        lines = (out / f"{summary['kind']}.csv").read_text().splitlines()[1:]
        assert lines and [float(x) for line in lines for x in line.split(",")]

    @pytest.mark.parametrize("config", SHIPPED, ids=lambda p: p.stem)
    def test_quick_run_loads_no_numpy_random(self, tmp_path, config):
        # random draws come from the standard library's random module, Gauss rules are
        # built without numpy.polynomial, and no class of rktlab is a dataclass
        code = (
            "import sys; from rktlab.cli import main; dataclasses_loaded = 'dataclasses' in sys.modules; "
            "code = main(sys.argv[1:]); "
            "print(code, 'numpy.random' in sys.modules, 'numpy.polynomial' in sys.modules, dataclasses_loaded)"
        )
        argv = ["run", "--config", str(config), "--out", str(tmp_path / "o"), "--quick"]
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])))
        done = subprocess.run([sys.executable, "-c", code, *argv], env=env, check=True, capture_output=True, text=True)
        assert done.stdout.split() == [str(EXIT_OK), "False", "False", "False"]

    @pytest.mark.parametrize("config", SHIPPED, ids=lambda p: p.stem)
    def test_full_run_matches_the_benchmark_reference(self, tmp_path, config):
        # the benchmark gate's checks, so a change that moves a gated value fails here too
        out = tmp_path / "o"
        problems, summary, csv_path = gate.check_run(out, run(["run", "--config", str(config), "--out", str(out)]))
        if csv_path is not None:
            problems += gate.compare_to_reference(gate.load_reference(config.stem), summary, csv_path)
        assert not problems, problems


class TestBlasThreads:
    ROOT = Path(__file__).resolve().parents[1]

    def env(self, threads=None):
        env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(self.ROOT / "src"), os.environ.get("PYTHONPATH")]))
        if threads is not None:
            env["OPENBLAS_NUM_THREADS"] = threads
        return env

    def test_import_sets_one_thread_unless_set(self):
        code = "import os, rktlab; print(os.environ['OPENBLAS_NUM_THREADS'])"
        for threads, want in ((None, "1"), ("2", "2")):
            done = subprocess.run([sys.executable, "-c", code], env=self.env(threads), check=True, capture_output=True, text=True)
            assert done.stdout.strip() == want

    @pytest.mark.parametrize("config,kind", [("rkt_hardy", "rkt-hardy"), ("pw_counterexample", "pw-counterexample")])
    def test_csv_byte_identical_under_one_and_two_threads(self, tmp_path, config, kind):
        csvs = []
        for threads in ("1", "2"):
            out = tmp_path / threads
            argv = ["run", "--config", str(self.ROOT / "configs" / f"{config}.json"), "--out", str(out), "--quick"]
            subprocess.run([sys.executable, "-m", "rktlab", *argv], env=self.env(threads), check=True, capture_output=True)
            csvs.append((out / f"{kind}.csv").read_bytes())
        assert csvs[0] == csvs[1]


class TestStartUp:
    def test_main_freezes_the_start_up_heap_and_still_collects(self, tmp_path):
        gc.unfreeze()
        assert run(["run", "--config", str(ROOT / "configs" / "windows.json"), "--out", str(tmp_path / "o"), "--quick"]) == EXIT_OK
        assert gc.get_freeze_count() > 0 and gc.isenabled()

        class Node:
            pass

        a, b = Node(), Node()
        a.other, b.other = b, a
        gone = weakref.ref(a)
        del a, b
        gc.collect()
        assert gone() is None

    def test_debug_log_reports_start_up_cpu_time_only(self, tmp_path, caplog):
        out = tmp_path / "o"
        with caplog.at_level(logging.DEBUG, logger="rktlab"):
            assert run(["run", "--config", str(ROOT / "configs" / "windows.json"), "--out", str(out), "--quick"]) == EXIT_OK
        found = re.search(r"CPU time before main \(start-up\): (\d+\.\d{3}) s", caplog.text)
        assert found and float(found.group(1)) > 0.0
        # the log only: no output file names CPU time or start-up
        assert not [f for f in out.iterdir() if re.search("cpu|start", f.read_text(), re.IGNORECASE)]


class TestReport:
    def test_render_from_summary(self, tmp_path):
        cfg = write_config(tmp_path, "w.json", WINDOWS_DOC)
        out = tmp_path / "o"
        assert run(["run", "--config", cfg, "--out", str(out)]) == EXIT_OK
        report_path = tmp_path / "report.md"
        assert run(["report", "--summary", str(out / "summary.json"), "--out", str(report_path)]) == EXIT_OK
        text = report_path.read_text()
        assert "c3_estimate" in text
        assert "| quantity |" in text
        assert "window lower bound" in text

    def test_report_shows_check_status(self, tmp_path):
        summary = {
            "kind": "windows",
            "c3_estimate": 0.5,
            "c4": 0.5,
            "checks": [{"name": "window-additivity", "passed": False, "detail": "off"}],
        }
        text = render_report(summary)
        assert "FAIL" in text

    @pytest.mark.parametrize(
        "summary,error",
        [([], "AttributeError"), ({"kind": "windows", "checks": [{"name": "window-additivity", "detail": "ok"}]}, "KeyError: 'passed'"),
         ("[" * 1200 + "]" * 1200, "RecursionError")],
        ids=["not-an-object", "check-without-passed", "nested-too-deep"],
    )
    def test_malformed_summary_exits_two(self, tmp_path, caplog, summary, error):
        path = tmp_path / "summary.json"
        path.write_text(summary if isinstance(summary, str) else json.dumps(summary))
        assert run(["report", "--summary", str(path)]) == EXIT_CONFIG
        assert f"cannot load summary: {error}" in caplog.text

    def test_theorem2_report_names_the_sublevel_margin(self, tmp_path):
        cfg = write_config(tmp_path, "t.json", dict(T2_DOC, zeros=[{"re": 0.35, "im": 0.1}, {"re": -0.2, "im": 0.45}]))
        out = tmp_path / "o"
        assert run(["run", "--config", cfg, "--out", str(out), "--quick"]) == EXIT_OK
        summary = json.loads((out / "summary.json").read_text())
        margin = summary["sublevel_margin"]
        assert margin > 0.0
        assert f"| `sublevel_margin` | {margin:.6g} |" in render_report(summary)
