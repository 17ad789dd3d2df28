import csv
import json
import math

import numpy as np
import pytest
from click.testing import CliRunner

from qnslab.cli import main
from qnslab.geometry import lens_area
from qnslab.qns_engine import BallProbeGrid
from qnslab.regions import balls_in_one_primitive, region_from_json


@pytest.fixture
def runner():
    return CliRunner()


def write_json(path, doc):
    path.write_text(json.dumps(doc))
    return str(path)


def strip_stamp(text):
    doc = json.loads(text)
    doc.pop("generated_at", None)
    return doc


GEO_SET = {"form": "family", "window": [0.01, 100.0],
           "family": {"name": "geometric", "params": {"base": 1.0, "ratio": 2.0}}}
SUPER_SET = {"form": "family", "window": [1.1253517471925912e-07, 1.0],
             "family": {"name": "super_geometric", "params": {"power": 2.0}}}

PROBLEM = {
    "region": {"dimension": 2, "primitives": [{"type": "ball", "center": ["0.0", "0.0"], "radius": "2.0"}]},
    "field": {"kind": "indicator",
              "support": {"dimension": 2,
                          "primitives": [{"type": "ball", "center": ["0.0", "0.0"],
                                          "radius": "1.0", "closed": True}]}},
    "probes": {"center_resolution": 11, "radii_per_center": 5, "radius_range": [0.1, 0.999]},
}


class TestAnalyzeSet:
    def test_geometric(self, runner, tmp_path):
        cfg = write_json(tmp_path / "geo.json", GEO_SET)
        result = runner.invoke(main, ["analyze-set", "--config", cfg])
        assert result.exit_code == 0
        doc = strip_stamp(result.output)
        assert doc["favorable_all_open"] == "yes"
        assert doc["gap_constant"] == 2.0

    def test_super_geometric(self, runner, tmp_path):
        cfg = write_json(tmp_path / "super.json", SUPER_SET)
        result = runner.invoke(main, ["analyze-set", "--config", cfg])
        assert result.exit_code == 0
        doc = strip_stamp(result.output)
        assert doc["favorable_all_open"] == "no"
        assert doc["p0"] == 1.0

    def test_invalid_input_exit_2(self, runner, tmp_path):
        cfg = write_json(tmp_path / "bad.json", {"form": "elements", "window": [0.1, 1.0], "elements": []})
        result = runner.invoke(main, ["analyze-set", "--config", cfg])
        assert result.exit_code == 2

    def test_writes_report(self, runner, tmp_path):
        cfg = write_json(tmp_path / "geo.json", GEO_SET)
        out = tmp_path / "out"
        result = runner.invoke(main, ["analyze-set", "--config", cfg, "--out", str(out)])
        assert result.exit_code == 0
        assert (out / "classification.json").exists()


class TestCheckQns:
    def test_pass_below_max_k(self, runner, tmp_path):
        cfg = write_json(tmp_path / "p.json", PROBLEM)
        result = runner.invoke(main, ["check-qns", "--config", cfg, "--max-K", "3", "--samples", "4096"])
        assert result.exit_code == 0

    def test_fail_above_max_k(self, runner, tmp_path):
        cfg = write_json(tmp_path / "p.json", PROBLEM)
        result = runner.invoke(main, ["check-qns", "--config", cfg, "--max-K", "2", "--samples", "4096"])
        assert result.exit_code == 1

    def test_constant_field_k_one(self, runner, tmp_path):
        doc = dict(PROBLEM)
        doc["field"] = {"kind": "constant", "value": "1.0"}
        cfg = write_json(tmp_path / "c.json", doc)
        result = runner.invoke(main, ["check-qns", "--config", cfg, "--max-K", "1.000001"])
        assert result.exit_code == 0

    def test_malformed_exit_2(self, runner, tmp_path):
        cfg = write_json(tmp_path / "bad.json", {"region": {"primitives": []}})
        result = runner.invoke(main, ["check-qns", "--config", cfg])
        assert result.exit_code == 2

    def test_zero_workers_exit_2(self, runner, tmp_path):
        cfg = write_json(tmp_path / "p.json", PROBLEM)
        result = runner.invoke(main, ["check-qns", "--config", cfg, "--workers", "0"])
        assert result.exit_code == 2

    @pytest.mark.parametrize("samples", ["0", "-5", "999"])
    def test_samples_below_the_floor_exit_2(self, runner, tmp_path, samples):
        cfg = write_json(tmp_path / "p.json", PROBLEM)
        result = runner.invoke(main, ["check-qns", "--config", cfg, "--samples", samples])
        assert result.exit_code == 2

    def test_samples_at_the_floor(self, runner, tmp_path):
        cfg = write_json(tmp_path / "p.json", PROBLEM)
        result = runner.invoke(main, ["check-qns", "--config", cfg, "--samples", "1000"])
        assert result.exit_code == 0

    @pytest.mark.parametrize("probes", [
        {"radius_range": [0.5, 0.1]}, {"radius_range": [0.0, 0.5]}, {"radius_range": ["abc", "0.5"]},
        {"center_resolution": 0}, {"radii_per_center": 0}, {"center_resolution": 3.9},
        {"center_resolution": "3.9"}, {"center_resolution": True}, {"radii_per_center": 2.5},
    ], ids=["reversed-radius-range", "zero-radius", "non-numeric-radius", "no-centers", "no-radii",
            "fractional-centers", "fractional-string-centers", "boolean-centers", "fractional-radii"])
    def test_invalid_probe_settings_exit_2(self, runner, tmp_path, probes):
        doc = json.loads(json.dumps(PROBLEM))
        doc["probes"].update(probes)
        cfg = write_json(tmp_path / "p.json", doc)
        result = runner.invoke(main, ["check-qns", "--config", cfg])
        assert result.exit_code == 2 and isinstance(result.exception, SystemExit)
        assert "invalid problem description" in result.output

    def test_decimal_string_radius_range(self, runner, tmp_path):
        doc = json.loads(json.dumps(PROBLEM))
        doc["probes"]["radius_range"] = [repr(float(v)) for v in doc["probes"]["radius_range"]]
        cfg = write_json(tmp_path / "p.json", doc)
        result = runner.invoke(main, ["check-qns", "--config", cfg, "--samples", "1000"])
        assert result.exit_code == 0

    def test_decimal_string_counts(self, runner, tmp_path):
        doc = json.loads(json.dumps(PROBLEM))
        doc["probes"].update(center_resolution="11", radii_per_center="5")
        floats = json.loads(json.dumps(PROBLEM))
        floats["probes"].update(center_resolution=11.0, radii_per_center=5.0)
        outputs = [strip_stamp(runner.invoke(main, ["check-qns", "--config", write_json(tmp_path / name, d)]).output)
                   for name, d in (("s.json", doc), ("f.json", floats), ("p.json", PROBLEM))]
        assert outputs[0] == outputs[1] == outputs[2]

    def test_ball_on_the_bump_circle(self, runner, tmp_path):
        # the 9-point grid puts a center on the bump's center and the largest radius is the bump's:
        # that ball's mean is h/2, so K_hat stays finite and the check passes
        doc = json.loads(json.dumps(PROBLEM))
        doc["field"] = {"kind": "radial_bump", "center": ["0.0", "0.0"], "radius": "1.0", "height": "1.0"}
        doc["probes"].update(center_resolution=9, radius_range=[0.25, 1.0])
        result = runner.invoke(main, ["check-qns", "--config", write_json(tmp_path / "b.json", doc), "--max-K", "10"])
        assert result.exit_code == 0
        assert math.isfinite(strip_stamp(result.output)["K_hat"])

    def test_means_are_exact(self, runner, tmp_path):
        # the indicator of a disk has closed-form means, so K_hat is the grid's exact supremum
        result = runner.invoke(main, ["check-qns", "--config", write_json(tmp_path / "p.json", PROBLEM)])
        doc = strip_stamp(result.output)
        assert doc["quadrature"]["method"] == "auto" and doc["quadrature"]["stderr_max"] == 0.0
        assert doc["quadrature"]["sampled_means"] == 0 and doc["quadrature"]["exact_means"] >= doc["probes"]["used"]
        r, c = doc["witness"]["radius"], doc["witness"]["center"]
        assert doc["K_hat"] == pytest.approx(math.pi * r * r / lens_area(r, 1.0, math.hypot(*c)), rel=1e-12)

    def test_wholesale_containment_failure_exit_2(self, runner, tmp_path):
        doc = json.loads(json.dumps(PROBLEM))
        doc["probes"]["radius_range"] = [50.0, 60.0]
        cfg = write_json(tmp_path / "p.json", doc)
        result = runner.invoke(main, ["check-qns", "--config", cfg])
        assert result.exit_code == 2

    def test_determinism(self, runner, tmp_path):
        cfg = write_json(tmp_path / "p.json", PROBLEM)
        args = ["check-qns", "--config", cfg, "--seed", "5", "--samples", "4096"]
        a = strip_stamp(runner.invoke(main, args).output)
        b = strip_stamp(runner.invoke(main, args).output)
        assert a == b

    def test_worker_count_does_not_change_the_report(self, runner, tmp_path):
        cfg = write_json(tmp_path / "p.json", PROBLEM)
        args = ["check-qns", "--config", cfg, "--seed", "5"]
        one, two = (strip_stamp(runner.invoke(main, args + ["--workers", w]).output) for w in ("1", "2"))
        for doc in (one, two):
            doc.pop("worker_count", None)
        assert one == two

    def test_restricted_radius_set(self, runner, tmp_path):
        doc = json.loads(json.dumps(PROBLEM))
        doc["radius_set"] = {"form": "elements", "window": [0.05, 1.0],
                             "elements": ["0.25", "0.5", "0.9"]}
        del doc["probes"]["radius_range"]
        doc["probes"]["radius_range"] = [0.05, 1.0]
        cfg = write_json(tmp_path / "p.json", doc)
        result = runner.invoke(main, ["check-qns", "--config", cfg])
        assert result.exit_code == 0
        doc_out = strip_stamp(result.output)
        assert doc_out["probes"]["used"] > 0

    def test_3d_union_skips_balls_that_no_primitive_holds(self, runner, tmp_path):
        # two unit balls at (+-0.9, 0, 0): a probe across their waist, such as B(0, 0.1), is
        # refused and counted as skipped, since no 3-D boundary model certifies it
        ball = {"type": "ball", "radius": "1.0"}
        doc = {"region": {"dimension": 3, "primitives": [dict(ball, center=["-0.9", "0.0", "0.0"]),
                                                         dict(ball, center=["0.9", "0.0", "0.0"])]},
               "field": {"kind": "indicator",
                         "support": {"dimension": 3, "primitives": [{"type": "ball", "center": ["0.9", "0.0", "0.0"],
                                                                     "radius": "0.5", "closed": True}]}},
               "probes": {"center_resolution": 5, "radii_per_center": 3, "radius_range": [0.1, 0.4]}}
        result = runner.invoke(main, ["check-qns", "--config", write_json(tmp_path / "p.json", doc),
                                      "--samples", "1000"])
        assert result.exit_code == 0
        probes = strip_stamp(result.output)["probes"]
        omega, _ = region_from_json(doc["region"])
        grid = BallProbeGrid(5, 3, (0.1, 0.4))
        centers, radii = grid.centers(omega), grid.radii(omega)
        held = balls_in_one_primitive(omega, np.repeat(centers, len(radii), axis=0), np.tile(radii, len(centers)))
        assert not balls_in_one_primitive(omega, np.zeros((1, 3)), np.asarray([0.1]))[0]
        assert probes["skipped"] == int((~held).sum()) > 0 and probes["used"] <= int(held.sum())


class TestCounterexample:
    def test_default_run(self, runner, tmp_path):
        out = tmp_path / "ce"
        result = runner.invoke(main, ["counterexample", "--m-count", "4", "--out", str(out),
                                      "--seed", "3"])
        assert result.exit_code == 0, result.output
        assert (out / "domain.json").exists()
        assert (out / "certification.json").exists()
        with open(out / "implied_k.csv", newline="") as fh:
            rows = list(csv.reader(fh))
        assert [round(float(r[8])) for r in rows[1:]] == [4, 16, 36, 64]
        assert [float(r[6]) for r in rows[1:]] == [0.0] * 4  # exact lens-area means
        cert = json.loads((out / "certification.json").read_text())
        assert cert["failure_side"]["verdict"] == "unbounded-constant-confirmed"
        assert cert["restricted_side"]["verdict"] == "pass"

    def test_n0_two_exit_2(self, runner, tmp_path):
        result = runner.invoke(main, ["counterexample", "--n0", "2", "--out", str(tmp_path)])
        assert result.exit_code == 2

    def test_zero_workers_exit_2(self, runner, tmp_path):
        result = runner.invoke(main, ["counterexample", "--workers", "0", "--out", str(tmp_path)])
        assert result.exit_code == 2

    def test_f1_variant(self, runner, tmp_path):
        out = tmp_path / "f1"
        result = runner.invoke(main, ["counterexample", "--variant", "f1", "--m-count", "4",
                                      "--out", str(out), "--seed", "3"])
        assert result.exit_code == 0, result.output
        cert = json.loads((out / "certification.json").read_text())
        assert cert["scale_rule_admissibility"]["verdict"] == "not admissible"
        assert cert["variant_report"]["verdict"] == "pass"


class TestConstants:
    def test_lens_constant(self, runner):
        result = runner.invoke(main, ["constants", "--mc-samples", "1000000"])
        assert result.exit_code == 0
        doc = json.loads(result.output)
        assert math.isclose(doc["lens_constant_analytic"], 0.3910022, abs_tol=1e-7)
        assert abs(doc["lens_constant_mc"] - 0.3910022) < 0.002

    @pytest.mark.parametrize("n", ["0", "-5"])
    def test_nonpositive_mc_samples_exit_2(self, runner, n):
        result = runner.invoke(main, ["constants", "--mc-samples", n])
        assert result.exit_code == 2

    def test_square_conversions(self, runner):
        result = runner.invoke(main, ["constants", "--set", "unit-square", "--K", "1", "--C", "2"])
        doc = json.loads(result.output)
        assert math.isclose(doc["C_from_K"], 2.0, rel_tol=1e-12)
        assert math.isclose(doc["K_from_C"], math.pi, rel_tol=1e-12)

    def test_unit_ball_identity(self, runner):
        result = runner.invoke(main, ["constants", "--set", "unit-ball", "--C", "5"])
        doc = json.loads(result.output)
        assert math.isclose(doc["K_from_C"], 5.0, rel_tol=1e-12)


class TestAnalyzeF:
    def test_linear(self, runner):
        result = runner.invoke(main, ["analyze-f", "--f", "linear"])
        assert result.exit_code == 0
        doc = strip_stamp(result.output)
        assert doc["verdict"] == "admissible on window"
        assert math.isclose(doc["c_window"], 1.0, rel_tol=1e-9)

    def test_periodic(self, runner):
        result = runner.invoke(main, ["analyze-f", "--f", "periodic", "--t-grid", "0.5,1.25"])
        doc = strip_stamp(result.output)
        assert doc["verdict"] == "admissible on window"
        assert doc["c_window"] <= 2.5 + 1e-9

    def test_chain_rule_not_admissible(self, runner):
        result = runner.invoke(main, ["analyze-f", "--f", "chain-rule", "--t-grid", "0.25,0.5"])
        doc = strip_stamp(result.output)
        assert doc["verdict"] == "not admissible"

    def test_bad_window_exit_2(self, runner):
        result = runner.invoke(main, ["analyze-f", "--f", "linear", "--window", "oops"])
        assert result.exit_code == 2


class TestPhi:
    def test_square_deficit(self, runner):
        result = runner.invoke(main, ["phi", "--kind", "isoperimetric_deficit", "--set", "unit-square"])
        doc = json.loads(result.output)
        assert math.isclose(doc["value"], math.sqrt(16.0 - 4.0 * math.pi), rel_tol=1e-12)

    def test_disk_deficit_exit_2(self, runner):
        result = runner.invoke(main, ["phi", "--kind", "isoperimetric_deficit", "--set", "unit-disk"])
        assert result.exit_code == 2

    def test_scaled_perimeter(self, runner):
        result = runner.invoke(main, ["phi", "--kind", "perimeter", "--set", "unit-disk", "--scale", "2.0"])
        doc = json.loads(result.output)
        assert math.isclose(doc["value"], 4.0 * math.pi, rel_tol=1e-12)
