import json
from pathlib import Path

import pytest

from rktlab.cli import EXIT_CONFIG, EXIT_INVARIANT, EXIT_OK, EXIT_PRECISION, main, render_report


def write_config(tmp_path: Path, name: str, doc: dict) -> str:
    p = tmp_path / name
    p.write_text(json.dumps(doc))
    return str(p)


def run(args):
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


class TestConfigValidation:
    def test_malformed_json(self, tmp_path):
        p = tmp_path / "bad.json"
        p.write_text("{not valid")
        assert run(["run", "--config", str(p), "--out", str(tmp_path / "o")]) == EXIT_CONFIG

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
        header = (out / "pw-counterexample.csv").read_text().splitlines()[0]
        assert header == "re_lambda,im_lambda,rkt_sum_low,rkt_sum_high"

    def test_theorem2(self, tmp_path):
        cfg = write_config(tmp_path, "t.json", T2_DOC)
        out = tmp_path / "o"
        assert run(["run", "--config", cfg, "--out", str(out), "--quick"]) == EXIT_OK
        summary = json.loads((out / "summary.json").read_text())
        assert summary["rkt_delta"] > 0.0
        assert summary["witness_ratio"] <= 1e-12
        assert summary["eta"] < 0.5
        assert summary["sublevel_components"] == 1
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
    @pytest.mark.parametrize("doc,kind", [(RKT_DOC, "rkt-hardy"), (T2_DOC, "theorem2")])
    def test_csv_byte_identical(self, tmp_path, doc, kind):
        cfg = write_config(tmp_path, "c.json", doc)
        outs = []
        for sub in ("a", "b"):
            out = tmp_path / sub
            assert run(["run", "--config", cfg, "--out", str(out), "--quick"]) == EXIT_OK
            outs.append((out / f"{kind}.csv").read_bytes())
        assert outs[0] == outs[1]


class TestExitCodes:
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

    def test_precision_error_exits_three(self, tmp_path, monkeypatch):
        from rktlab import cli
        from rktlab.errors import PrecisionError

        def fake_runner(doc, quick, seed):
            raise PrecisionError("forced precision failure")

        monkeypatch.setitem(cli._RUNNERS, "windows", fake_runner)
        cfg = write_config(tmp_path, "w.json", WINDOWS_DOC)
        assert run(["run", "--config", cfg, "--out", str(tmp_path / "o")]) == EXIT_PRECISION


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
