import json
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sacloc import conformal, evalreport
from sacloc.conformal import SacpCalibration, calibrate, nonconformity_scores
from sacloc.dataset import ApInventory, ScanSet
from sacloc.errors import EmptyInput
from sacloc.evalreport import (
    ErrorMapData,
    SweepResult,
    alpha_sweep,
    baseline_positions,
    coverage_by_region,
    emit_report,
    linear_percentiles,
    point_metrics,
    weighted_centroid_baseline,
)
from sacloc.regions import assign_regions, kmeans_fit
from sacloc.rng import stream


class TestPointMetrics:
    def test_perfect_predictor(self):
        pts = stream(1, "pm").normal(size=(20, 2))
        m = point_metrics(pts, pts)
        assert (m.mae, m.mae_euclid, m.rmse, m.median, m.p75, m.p95) == (0,) * 6

    def test_hand_computed_percentiles(self):
        # Euclidean errors 3, 4, 5 via x-offsets
        truths = np.zeros((3, 2))
        preds = np.array([[3.0, 0.0], [4.0, 0.0], [5.0, 0.0]])
        m = point_metrics(preds, truths)
        assert m.median == pytest.approx(4.0)
        assert m.p95 == pytest.approx(4.9)  # 4 + 0.9 * (5 - 4), linear interpolation
        assert m.p75 == pytest.approx(4.5)

    def test_l1_vs_euclid_conventions(self):
        truths = np.zeros((1, 2))
        preds = np.array([[3.0, 4.0]])
        m = point_metrics(preds, truths)
        assert m.mae_l1 == pytest.approx(7.0)
        assert m.mae_euclid == pytest.approx(5.0)
        assert m.mae == m.mae_l1

    def test_brute_force_recompute(self):
        rng = stream(2, "pm-oracle")
        truths = rng.normal(size=(1000, 2)) * 10
        preds = truths + rng.normal(size=(1000, 2)) * 3
        m = point_metrics(preds, truths)
        errs = sorted(
            math.hypot(p[0] - t[0], p[1] - t[1]) for p, t in zip(preds, truths))
        assert m.mae_l1 == pytest.approx(
            np.mean([abs(p[0] - t[0]) + abs(p[1] - t[1])
                     for p, t in zip(preds, truths)]), abs=1e-9)
        assert m.rmse == pytest.approx(math.sqrt(np.mean(np.square(errs))), abs=1e-9)
        assert m.median == pytest.approx(np.percentile(errs, 50), abs=1e-9)

    def test_empty_input(self):
        with pytest.raises(EmptyInput):
            point_metrics(np.zeros((0, 2)), np.zeros((0, 2)))

    @given(seed=st.integers(min_value=0, max_value=10_000),
           n=st.integers(min_value=1, max_value=200))
    @settings(max_examples=30)
    def test_percentile_ordering(self, seed, n):
        rng = np.random.default_rng(seed)
        truths = rng.normal(size=(n, 2))
        preds = truths + rng.normal(size=(n, 2))
        m = point_metrics(preds, truths)
        assert 0.0 <= m.median <= m.p75 <= m.p95

    @given(values=st.lists(st.floats(min_value=-1e12, max_value=1e12), min_size=1,
                           max_size=300),
           percents=st.lists(st.floats(min_value=0.0, max_value=100.0), min_size=1,
                             max_size=5),
           duplicate=st.booleans())
    @example(values=[-0.0], percents=[0.0], duplicate=False)
    @example(values=[0.0, -0.0, -0.0, 1.0], percents=[25.0, 50.0], duplicate=True)
    @settings(max_examples=300)
    def test_linear_percentiles_are_numpys_bitwise(self, values, percents, duplicate):
        # one sort, read by numpy's default rule, gives np.percentile's bits
        # once -0.0 is +0.0
        a = np.array(values * 2 if duplicate else values)
        got = np.array(linear_percentiles(a, percents))
        want = np.array([np.percentile(a + 0.0, q) for q in percents])
        assert got.tobytes() == want.tobytes()

    def test_point_percentiles_are_numpys_bitwise(self):
        for seed in range(20):
            rng = stream(seed, "pm-bits")
            truths = rng.uniform(0, 100, size=(750, 2))
            preds = truths + rng.normal(scale=6.0, size=(750, 2))
            m = point_metrics(preds, truths)
            errs = np.linalg.norm(preds - truths, axis=1)
            assert [m.median, m.p75, m.p95] == [np.percentile(errs, q) for q in (50, 75, 95)]

    def test_nan_error_gives_nan_percentiles(self):
        values = np.array([1.0, math.nan, 2.0])
        assert np.isnan(np.percentile(values, 50))
        assert all(map(math.isnan, linear_percentiles(values, (50, 75, 95))))


def _fitted_calibration(seed=3, n=300, k=4, alpha=0.1, noise=2.0):
    rng = stream(seed, "cov")
    truths = rng.uniform(0, 40, size=(n, 2))
    preds = truths + rng.normal(scale=noise, size=(n, 2))
    return preds, truths, calibrate(preds, truths, alpha, k, seed)


class TestCoverage:
    def test_infinite_radii_cover_everything(self):
        preds, truths, cal = _fitted_calibration()
        rigged = SacpCalibration(
            alpha=cal.alpha, region_model=cal.region_model,
            radii=np.full_like(cal.radii, math.inf), counts=cal.counts,
            global_radius=math.inf, global_count=cal.global_count)
        report = coverage_by_region(preds, truths, rigged)
        assert all(r.coverage in (None, 1.0) for r in report.rows)
        assert report.global_row.coverage == 1.0

    def test_zero_radii_cover_nothing(self):
        preds, truths, cal = _fitted_calibration()
        rigged = SacpCalibration(
            alpha=cal.alpha, region_model=cal.region_model,
            radii=np.zeros_like(cal.radii), counts=cal.counts,
            global_radius=0.0, global_count=cal.global_count)
        report = coverage_by_region(preds, truths, rigged)
        assert all(r.coverage in (None, 0.0) for r in report.rows)
        assert report.global_row.coverage == 0.0

    def test_counts_sum_and_flat_scan_agreement(self):
        preds, truths, cal = _fitted_calibration()
        report = coverage_by_region(preds, truths, cal, "predicted")
        assert sum(r.count for r in report.rows) == report.global_row.count

        # independent flat recomputation of every row
        regions = assign_regions(cal.region_model, preds)
        errors = nonconformity_scores(preds, truths)
        for row in report.rows:
            mask = regions == row.region
            if row.count == 0:
                assert row.coverage is None
                continue
            assert row.count == mask.sum()
            assert row.coverage == np.mean(errors[mask] <= cal.radii[row.region])
        assert report.global_row.coverage == np.mean(errors <= cal.global_radius)

    def test_carries_each_scan_region_by_the_rule(self):
        # the error map reads these instead of routing the scans again
        preds, truths, cal = _fitted_calibration(noise=8.0)
        for mode, points in (("predicted", preds), ("truth", truths)):
            report = coverage_by_region(preds, truths, cal, mode)
            assert np.array_equal(report.regions, assign_regions(cal.region_model, points))
            assert [r.count for r in report.rows] == np.bincount(
                report.regions, minlength=cal.k).tolist()

    def test_assignment_modes_differ(self):
        preds, truths, cal = _fitted_calibration(noise=8.0)
        by_pred = coverage_by_region(preds, truths, cal, "predicted")
        by_truth = coverage_by_region(preds, truths, cal, "truth")
        assert [r.count for r in by_pred.rows] != [r.count for r in by_truth.rows]


class TestAlphaSweep:
    def test_radii_monotone_and_shapes(self):
        rng = stream(4, "sweep")
        cal_truths = rng.uniform(0, 40, size=(400, 2))
        cal_preds = cal_truths + rng.normal(scale=2, size=(400, 2))
        test_truths = rng.uniform(0, 40, size=(200, 2))
        test_preds = test_truths + rng.normal(scale=2, size=(200, 2))
        alphas = (0.05, 0.20)
        sweep = alpha_sweep(cal_preds, cal_truths, test_preds, test_truths,
                            alphas, kmeans_fit(cal_truths, 3, 5))
        assert sweep.radii.shape == (2, 3)
        assert np.all(sweep.radii[0] >= sweep.radii[1])
        assert sweep.global_radii[0] >= sweep.global_radii[1]
        assert sweep.region_counts.sum() == 200

    def test_rows_follow_the_assignment_rule(self):
        # every sweep row is what calibrate and coverage_by_region give at its
        # alpha: integer offsets tie many scores, and at alpha 0.01 a region of
        # ~67 scans has no conformal rank, so its radius is infinite
        rng = stream(4, "sweep-rule")
        truths = rng.uniform(0, 40, size=(300, 2))
        preds = truths + np.round(rng.normal(scale=8, size=(300, 2)))
        region_model = kmeans_fit(truths[:200], 3, 5)
        grid = (0.01, 0.05, 0.2, 0.5)
        for assignment in ("truth", "predicted"):
            sweep = alpha_sweep(preds[:200], truths[:200], preds[200:], truths[200:],
                                grid, region_model, assignment)
            assert np.isinf(sweep.radii[0]).any() and np.isfinite(sweep.radii[-1]).all()
            scores = nonconformity_scores(preds[:200], truths[:200])
            assert len(np.unique(scores)) < len(scores)
            for i, alpha in enumerate(sweep.alphas):
                # the same seed refits the same regions
                cal = calibrate(preds[:200], truths[:200], alpha, 3, 5, assignment=assignment)
                assert np.array_equal(cal.region_model.centroids, region_model.centroids)
                assert np.array_equal(sweep.radii[i], cal.radii), assignment
                assert sweep.global_radii[i] == cal.global_radius
                report = coverage_by_region(preds[200:], truths[200:], cal, "predicted")
                assert [row.count for row in report.rows] == sweep.region_counts.tolist()
                assert [row.coverage for row in report.rows] == [
                    None if math.isnan(v) else v for v in sweep.coverages[i]]
                assert sweep.global_coverages[i] == report.global_row.coverage
        by_truth = alpha_sweep(preds[:200], truths[:200], preds[200:], truths[200:],
                               grid, region_model)
        assert not np.array_equal(by_truth.radii, sweep.radii)

    def test_given_region_model_is_not_refitted(self, monkeypatch):
        rng = stream(4, "sweep-reuse")
        truths = rng.uniform(0, 40, size=(300, 2))
        preds = truths + rng.normal(scale=2, size=(300, 2))
        args = (preds[:200], truths[:200], preds[200:], truths[200:], (0.05, 0.2))
        fitted = alpha_sweep(*args, kmeans_fit(truths[:200], 3, 5))
        region_model = calibrate(preds[:200], truths[:200], 0.1, 3, 5).region_model
        # a call would raise
        monkeypatch.setattr(evalreport, "kmeans_fit", None)
        monkeypatch.setattr(conformal, "kmeans_fit", None)
        reused = alpha_sweep(*args, region_model)
        for field in ("radii", "global_radii", "coverages", "global_coverages",
                      "region_counts"):
            assert np.array_equal(getattr(fitted, field), getattr(reused, field),
                                  equal_nan=True), field

    def test_exchangeable_coverage_tracks_alpha(self):
        # conformal oracle: on exchangeable data, global coverage lands
        # within a few points of 1 - alpha for every alpha
        rng = stream(6, "sweep-mc")
        n = 1500
        truths = rng.uniform(0, 50, size=(2 * n, 2))
        preds = truths + rng.normal(scale=3, size=(2 * n, 2))
        sweep = alpha_sweep(preds[:n], truths[:n], preds[n:], truths[n:],
                            (0.05, 0.1, 0.2, 0.3), kmeans_fit(truths[:n], 1, 7))
        for alpha, cov in zip(sweep.alphas, sweep.global_coverages):
            assert abs(cov - (1.0 - alpha)) <= 0.03

    def test_region_infinite_at_two_alphas(self):
        # a 5-scan region cannot support the conformal rank at alpha 0.01 or
        # 0.05, so its radius is inf at both; inf - inf must not read as a
        # monotonicity violation
        rng = stream(8, "sweep-inf")
        cal_truths = np.vstack([rng.uniform(0, 10, size=(200, 2)),
                                rng.uniform(90, 100, size=(5, 2))])
        cal_preds = cal_truths + rng.normal(scale=1, size=cal_truths.shape)
        sweep = alpha_sweep(cal_preds, cal_truths, cal_preds, cal_truths,
                            (0.01, 0.05, 0.2), kmeans_fit(cal_truths, 2, 3))
        assert isinstance(sweep, SweepResult)
        small = int(np.argmin(sweep.region_counts))
        assert sweep.region_counts[small] == 5
        assert np.isinf(sweep.radii[:2, small]).all()
        assert np.isfinite(sweep.radii[2, small])
        assert np.isfinite(sweep.global_radii).all()

    def test_rejects_bad_grid(self):
        with pytest.raises(ValueError):
            alpha_sweep(np.zeros((5, 2)), np.zeros((5, 2)), np.zeros((5, 2)),
                        np.zeros((5, 2)), (0.2, 0.1), kmeans_fit(np.zeros((5, 2)), 1, 0))


class TestBaseline:
    def _inventory(self):
        return ApInventory(
            ap_ids=("a", "b", "c"),
            coordinates=np.array([[0.0, 0.0], [10.0, 0.0], [0.0, 10.0]]))

    def test_single_detected_ap(self):
        inv = self._inventory()
        pred = weighted_centroid_baseline(np.array([-60.0, 100.0, 100.0]), inv)
        assert np.allclose(pred, [0.0, 0.0])

    def test_equal_rssi_midpoint(self):
        inv = self._inventory()
        pred = weighted_centroid_baseline(np.array([-60.0, -60.0, 100.0]), inv)
        assert np.allclose(pred, [5.0, 0.0])

    def test_no_detection_falls_back_to_centroid(self):
        inv = self._inventory()
        pred = weighted_centroid_baseline(np.array([100.0] * 3), inv)
        assert np.allclose(pred, inv.coordinates.mean(axis=0))

    def test_stronger_ap_pulls_harder(self):
        inv = self._inventory()
        pred = weighted_centroid_baseline(np.array([-40.0, -90.0, 100.0]), inv)
        assert np.linalg.norm(pred - [0, 0]) < np.linalg.norm(pred - [10, 0])

    def test_batch_helper(self):
        inv = self._inventory()
        scans = ScanSet(rssi=[[-60.0, 100.0, 100.0], [100.0] * 3], truth=np.zeros((2, 2)))
        out = baseline_positions(scans, inv)
        assert out.shape == (2, 2)
        for row, pred in zip(scans.rssi, out):
            assert np.array_equal(pred, weighted_centroid_baseline(row, inv))


class TestEmitReport:
    def _inputs(self):
        preds, truths, cal = _fitted_calibration(seed=8, n=200, k=5)
        metrics = point_metrics(preds, truths)
        coverage = coverage_by_region(preds, truths, cal)
        rng = stream(9, "sw")
        sweep = alpha_sweep(preds, truths,
                            truths + rng.normal(scale=2, size=truths.shape), truths,
                            (0.01, 0.05, 0.1, 0.15, 0.2), cal.region_model)
        regions = assign_regions(cal.region_model, preds)
        errs = nonconformity_scores(preds, truths)
        error_map = ErrorMapData(x=truths[:, 0], y=truths[:, 1],
                                 error_m=errs, region=regions)
        baseline = point_metrics(truths + rng.normal(scale=5, size=truths.shape), truths)
        return metrics, coverage, sweep, error_map, baseline

    def _emit(self, out_dir, sweep=None):
        metrics, coverage, _, error_map, baseline = self._inputs()
        return emit_report(out_dir, metrics, coverage, error_map, baseline, sweep=sweep)

    def test_files_written(self, tmp_path):
        metrics, coverage, sweep, error_map, baseline = self._inputs()
        written = emit_report(tmp_path, metrics=metrics, coverage=coverage,
                              sweep=sweep, error_map=error_map, baseline_metrics=baseline)
        names = {p.name for p in written}
        assert names == {"report.json", "report.txt", "fig_error_map.csv",
                         "fig_alpha_coverage.csv", "fig_alpha_radius.csv"}
        doc = json.loads((tmp_path / "report.json").read_text())
        assert "point_metrics" in doc and "coverage" in doc and "sweep" in doc
        assert "linear interpolation" in doc["percentile_convention"]

    def test_radius_row_cardinality(self, tmp_path):
        # 5 alphas x (5 regions + global) data rows
        sweep = self._inputs()[2]
        self._emit(tmp_path, sweep=sweep)
        lines = (tmp_path / "fig_alpha_radius.csv").read_text().splitlines()
        assert lines[0] == "alpha,region,radius"
        assert len(lines) - 1 == 5 * (5 + 1)

    def test_error_map_schema(self, tmp_path):
        written = self._emit(tmp_path)
        assert {p.name for p in written} == {"report.json", "report.txt", "fig_error_map.csv"}
        lines = (tmp_path / "fig_error_map.csv").read_text().splitlines()
        assert lines[0] == "x,y,error_m,region"
        assert len(lines) - 1 == len(self._inputs()[3].x)

    def test_byte_identical_rerun(self, tmp_path):
        metrics, coverage, sweep, error_map, baseline = self._inputs()
        a_dir, b_dir = tmp_path / "a", tmp_path / "b"
        for d in (a_dir, b_dir):
            emit_report(d, metrics=metrics, coverage=coverage, sweep=sweep,
                        error_map=error_map, baseline_metrics=baseline)
        for name in ("report.json", "report.txt", "fig_error_map.csv",
                     "fig_alpha_coverage.csv", "fig_alpha_radius.csv"):
            assert (a_dir / name).read_bytes() == (b_dir / name).read_bytes()

    def test_unwritable_target_raises_io_error(self, tmp_path):
        from sacloc.errors import IoError

        blocker = tmp_path / "blocked"
        blocker.write_text("a file, not a directory")
        with pytest.raises(IoError):
            self._emit(blocker)
