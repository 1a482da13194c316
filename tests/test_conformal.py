import json
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from sacloc.conformal import (
    CALIBRATION_VERSION,
    SacpCalibration,
    calibrate,
    calibration_document,
    conformal_rank,
    load_calibration,
    nonconformity_scores,
    predict_set,
    radius_from_scores,
    save_calibration,
)
from sacloc.errors import BadCalibration, EmptyCalibration
from sacloc.graphbuild import build_ap_adjacency, build_sample_graph
from sacloc.gtmodel import model_for_inventory
from sacloc.rng import stream


def brute_force_radius(scores, alpha):
    """Independent oracle: sort ascending, take the ceil((1-a)(n+1))-th."""
    ordered = sorted(scores)
    p = math.ceil((1.0 - alpha) * (len(ordered) + 1))
    if p > len(ordered):
        return math.inf
    return ordered[p - 1]


class TestScore:
    def test_coincident(self):
        assert nonconformity_scores(np.array([[3.0, 4.0]]), np.array([[3.0, 4.0]]))[0] == 0.0

    def test_three_four_five(self):
        assert nonconformity_scores(np.array([[0.0, 0.0]]), np.array([[3.0, 4.0]]))[0] == 5.0

    def test_unit_offset(self):
        assert nonconformity_scores(np.array([[1.0, 1.0]]), np.array([[1.0, 2.0]]))[0] == 1.0


class TestRank:
    def test_examples(self):
        assert conformal_rank(10, 0.1) == 10
        assert conformal_rank(19, 0.1) == 18
        assert conformal_rank(5, 0.05) == math.inf

    def test_zero_samples_infinite(self):
        assert conformal_rank(0, 0.5) == math.inf

    @given(
        n=st.integers(min_value=0, max_value=5000),
        alpha=st.floats(min_value=1e-6, max_value=1 - 1e-6),
    )
    def test_rank_in_range(self, n, alpha):
        p = conformal_rank(n, alpha)
        if p is not math.inf:
            assert 1 <= p <= n

    def test_oracle_1000_random_instances(self):
        rng = stream(31, "rank-oracle")
        for _ in range(1000):
            n = int(rng.integers(0, 60))
            alpha = float(rng.uniform(0.01, 0.5))
            scores = rng.uniform(0, 10, n)
            if rng.random() < 0.3 and n > 1:  # exercise duplicate handling
                scores[: n // 2] = scores[0]
            assert radius_from_scores(scores, alpha) == brute_force_radius(scores, alpha)


class TestCalibrate:
    def test_k1_integer_scores(self):
        # pred/truth pairs engineered to produce scores 1..10
        truths = np.zeros((10, 2))
        preds = np.column_stack([np.arange(1.0, 11.0), np.zeros(10)])
        cal = calibrate(preds, truths, alpha=0.1, k=1, seed=0)
        assert cal.global_radius == 10.0
        assert cal.radii[0] == 10.0
        assert cal.counts[0] == 10

    def test_constant_scores(self):
        truths = stream(1, "t").normal(size=(40, 2)) * 5
        preds = truths + np.array([3.0, 4.0])  # every score is exactly 5
        cal = calibrate(preds, truths, alpha=0.2, k=3, seed=1)
        finite = np.isfinite(cal.radii)
        assert finite.any()
        assert np.all(cal.radii[finite] == 5.0)

    def test_counts_sum_to_calibration_size(self):
        rng = stream(2, "c")
        truths = rng.normal(size=(100, 2)) * 10
        preds = truths + rng.normal(size=(100, 2))
        cal = calibrate(preds, truths, alpha=0.1, k=4, seed=2)
        assert cal.counts.sum() == 100
        assert cal.global_count == 100

    def test_underpopulated_region_gets_infinity(self, caplog):
        truths = np.vstack([np.zeros((50, 2)), [[100.0, 100.0]]])
        preds = truths + 0.5
        with caplog.at_level("WARNING"):
            cal = calibrate(preds, truths, alpha=0.1, k=2, seed=3)
        lone = int(np.argmin(cal.counts))
        assert cal.counts[lone] == 1
        assert math.isinf(cal.radii[lone])
        assert "infinite" in caplog.text

    def test_empty_calibration(self):
        with pytest.raises(EmptyCalibration):
            calibrate(np.zeros((0, 2)), np.zeros((0, 2)), 0.1, 1, 0)

    def test_predicted_assignment_mode(self):
        rng = stream(4, "mode")
        truths = rng.normal(size=(200, 2)) * 10
        preds = truths + rng.normal(size=(200, 2)) * 3
        by_truth = calibrate(preds, truths, 0.1, 3, 5, assignment="truth")
        by_pred = calibrate(preds, truths, 0.1, 3, 5, assignment="predicted")
        # same regions (fit on truths either way), different score grouping
        assert np.array_equal(
            by_truth.region_model.centroids, by_pred.region_model.centroids)
        assert not np.array_equal(by_truth.counts, by_pred.counts)

    def test_radii_monotone_in_alpha(self):
        rng = stream(5, "mono")
        truths = rng.normal(size=(300, 2)) * 10
        preds = truths + rng.normal(size=(300, 2)) * 2
        # the same seed refits the same regions at every alpha
        cals = [calibrate(preds, truths, a, 4, 6) for a in (0.02, 0.05, 0.1, 0.2, 0.4)]
        for cal in cals[1:]:
            assert np.array_equal(cal.region_model.centroids, cals[0].region_model.centroids)
        radii = [cal.radii for cal in cals]
        for tighter, looser in zip(radii, radii[1:]):
            assert np.all(looser <= tighter)

    def test_nesting_of_prediction_sets(self, small_world, graph_cfg):
        _, inventory, samples = small_world
        model = model_for_inventory(inventory, hidden=8, n_heads=2, seed=5)
        rng = stream(6, "nest")
        truths = rng.normal(size=(100, 2)) * 10
        preds = truths + rng.normal(size=(100, 2)) * 2
        cal_small_alpha = calibrate(preds, truths, 0.05, 2, 7)
        cal_large_alpha = calibrate(preds, truths, 0.20, 2, 7)  # same seed, same regions
        assert np.array_equal(cal_large_alpha.region_model.centroids,
                              cal_small_alpha.region_model.centroids)
        ap_adj = build_ap_adjacency(inventory, graph_cfg)
        graph = build_sample_graph(samples[0], inventory, ap_adj, graph_cfg)
        tight = predict_set(model, cal_large_alpha, graph)
        wide = predict_set(model, cal_small_alpha, graph)
        assert wide.center == tight.center and wide.region == tight.region
        assert wide.radius >= tight.radius  # the lower-alpha circle contains the other


class TestPredictSet:
    def _fitted(self, small_world, graph_cfg, alpha=0.1):
        _, inventory, samples = small_world
        model = model_for_inventory(inventory, hidden=8, n_heads=2, seed=5)
        rng = stream(7, "ps")
        truths = rng.uniform(0, 30, size=(60, 2))
        preds = truths + rng.normal(size=(60, 2))
        cal = calibrate(preds, truths, alpha, 2, 8)
        ap_adj = build_ap_adjacency(inventory, graph_cfg)
        graph = build_sample_graph(samples[0], inventory, ap_adj, graph_cfg)
        return model, cal, graph

    def test_deterministic(self, small_world, graph_cfg):
        model, cal, graph = self._fitted(small_world, graph_cfg)
        assert predict_set(model, cal, graph) == predict_set(model, cal, graph)

    def test_radius_matches_region(self, small_world, graph_cfg):
        model, cal, graph = self._fitted(small_world, graph_cfg)
        ps = predict_set(model, cal, graph)
        assert ps.radius == cal.radii[ps.region]

    def test_infinite_radius_propagates(self, small_world, graph_cfg):
        model, cal, graph = self._fitted(small_world, graph_cfg)
        rigged = SacpCalibration(
            alpha=cal.alpha, region_model=cal.region_model,
            radii=np.full_like(cal.radii, math.inf), counts=cal.counts,
            global_radius=cal.global_radius, global_count=cal.global_count)
        assert math.isinf(predict_set(model, rigged, graph).radius)

    def test_rejects_scan_set_graph(self, small_world, graph_cfg):
        model, cal, _ = self._fitted(small_world, graph_cfg)
        _, inventory, samples = small_world
        graph = build_sample_graph(samples[:2], inventory,
                                   build_ap_adjacency(inventory, graph_cfg), graph_cfg)
        with pytest.raises(ValueError, match="one-scan graph, got 2 scans"):
            predict_set(model, cal, graph)


class TestMarginalCoverage:
    def test_split_conformal_guarantee(self):
        # fixed predictor, exchangeable pool: mean coverage over trials must
        # sit just above 1 - alpha (quick version; the acceptance suite runs
        # the full 200-trial protocol)
        alpha, n_cal, n_test = 0.1, 500, 500
        coverages = []
        for trial in range(50):
            rng = stream(trial, "marginal-mc")
            pool = rng.uniform(0, 50, size=(n_cal + n_test, 2))
            preds = pool + rng.normal(scale=3.0, size=pool.shape)  # fixed predictor
            cal = calibrate(preds[:n_cal], pool[:n_cal], alpha, 1, seed=trial)
            errs = nonconformity_scores(preds[n_cal:], pool[n_cal:])
            coverages.append(np.mean(errs <= cal.global_radius))
        assert 0.88 <= np.mean(coverages) <= 0.92


class TestArtifact:
    def test_round_trip_with_infinity(self, tmp_path):
        rng = stream(8, "art")
        truths = np.vstack([rng.normal(size=(50, 2)), [[500.0, 500.0]]])
        preds = truths + rng.normal(size=(51, 2))
        cal = calibrate(preds, truths, alpha=0.1, k=2, seed=9)
        assert np.isinf(cal.radii).any()
        path = tmp_path / "cal.json"
        save_calibration(path, cal)
        back = load_calibration(path)
        assert back.alpha == cal.alpha
        assert np.array_equal(back.radii, cal.radii)
        assert np.array_equal(back.counts, cal.counts)
        assert back.global_radius == cal.global_radius
        assert np.array_equal(back.region_model.centroids, cal.region_model.centroids)
        assert back.region_model.seed == cal.region_model.seed

    def test_rejects_foreign_file(self, tmp_path):
        path = tmp_path / "x.json"
        path.write_text('{"magic": "nope"}')
        with pytest.raises(BadCalibration, match="not a calibration file"):
            load_calibration(path)

    def saved(self, tmp_path):
        truths = stream(8, "art").normal(size=(30, 2))
        path = tmp_path / "cal.json"
        save_calibration(path, calibrate(truths + 0.5, truths, alpha=0.2, k=2, seed=9))
        return path, json.loads(path.read_text())

    def test_rejects_invalid_json(self, tmp_path):
        path, _ = self.saved(tmp_path)
        path.write_text(path.read_text()[:-20])
        with pytest.raises(BadCalibration, match="not valid JSON") as err:
            load_calibration(path)
        assert err.value.path == path

    def test_rejects_missing_key(self, tmp_path):
        path, doc = self.saved(tmp_path)
        del doc["kmeans"]["iteration_cap"]
        path.write_text(json.dumps(doc))
        with pytest.raises(BadCalibration, match="missing key 'iteration_cap'"):
            load_calibration(path)

    @pytest.mark.parametrize("edit, reason", [
        (lambda d: d["regions"][0].update(centroid=[1.0]),
         "a region centroid is not two finite numbers"),
        (lambda d: d["regions"][1].update(centroid=[math.nan, 0.0]),
         "a region centroid is not two finite numbers"),
        (lambda d: d["regions"][0].update(radius=None), "radius None is not"),
        (lambda d: d["regions"][0].update(radius=-1.0), "radius -1.0 is not"),
        (lambda d: d["global"].update(radius="infinity"), "radius 'infinity' is not"),
        (lambda d: d.update(regions=[]), "no regions"),
        (lambda d: d["regions"][1].update(id=2), "region ids are not 0..1"),
        (lambda d: d["regions"][1].update(id="1"), "not supported between"),
        (lambda d: d.update(alpha="0.1"), "alpha '0.1' is not a number in (0, 1)"),
        (lambda d: d.update(alpha=1.0), "alpha 1.0 is not a number in (0, 1)"),
        (lambda d: d["regions"][0].update(count=2.5), "count 2.5 is not a non-negative integer"),
        (lambda d: d["global"].update(count=True), "count True is not a non-negative integer"),
        (lambda d: d.update(regions={"0": {}}), "string indices must be integers"),
        (lambda d: d.update(region_seed="s"), "region_seed 's' is not an integer"),
        (lambda d: d["kmeans"].update(iteration_cap="x"),
         "kmeans.iteration_cap 'x' is not a positive integer"),
        (lambda d: d["kmeans"].update(convergence_tol=None),
         "kmeans.convergence_tol None is not a non-negative number"),
        (lambda d: d["regions"][0].update(count=d["regions"][0]["count"] + 1),
         "region counts sum to 31, not global.count 30"),
    ], ids=["centroid-short", "centroid-nan", "radius-null", "radius-negative",
            "radius-infinity", "no-regions", "ids-gap", "id-str", "alpha-str", "alpha-one",
            "count-float", "count-bool", "regions-object", "seed-str", "cap-str", "tol-null",
            "counts-sum"])
    def test_rejects_malformed_value(self, tmp_path, edit, reason):
        path, doc = self.saved(tmp_path)
        edit(doc)
        path.write_text(json.dumps(doc))
        with pytest.raises(BadCalibration) as err:
            load_calibration(path)
        assert err.value.reason.startswith("malformed value: ") and reason in err.value.reason
        assert err.value.path == path

    @pytest.mark.parametrize("assignment", ["truth", "predicted"])
    def test_assignment_round_trip(self, tmp_path, assignment):
        truths = stream(8, "art").normal(size=(30, 2))
        cal = calibrate(truths + 0.5, truths, alpha=0.2, k=2, seed=9, assignment=assignment)
        path = tmp_path / "cal.json"
        save_calibration(path, cal)
        assert json.loads(path.read_text())["assignment"] == assignment
        back = load_calibration(path)
        assert back.assignment == assignment
        assert calibration_document(back) == calibration_document(cal)

    def test_rejects_unknown_assignment(self, tmp_path):
        path, doc = self.saved(tmp_path)
        doc["assignment"] = "nearest"
        path.write_text(json.dumps(doc))
        with pytest.raises(BadCalibration, match="unknown assignment rule 'nearest'"):
            load_calibration(path)

    def test_rejects_version_1_with_rerun_hint(self, tmp_path):
        # a version-1 file does not say which rule grouped its scores
        path, doc = self.saved(tmp_path)
        doc["version"] = 1
        del doc["assignment"]
        path.write_text(json.dumps(doc))
        with pytest.raises(BadCalibration, match="rerun `sacloc calibrate`"):
            load_calibration(path)

    @pytest.mark.parametrize("version", [0, CALIBRATION_VERSION + 1, None])
    def test_rejects_other_version(self, tmp_path, version):
        path, doc = self.saved(tmp_path)
        doc["version"] = version
        path.write_text(json.dumps(doc))
        with pytest.raises(BadCalibration, match="unsupported calibration version"):
            load_calibration(path)
