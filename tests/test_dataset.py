import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from sacloc.dataset import (
    SENTINEL,
    ApInventory,
    SyntheticConfig,
    coord_affine,
    denormalize_coords,
    generate_synthetic,
    load_fingerprints,
    load_inventory,
    normalize_coords,
    normalize_rssi,
    path_loss_rssi,
    save_fingerprints,
    save_inventory,
    split_train_calibration,
    synthesize_scans,
)
from sacloc.errors import EmptyFile, EmptyInput, MalformedRow, MissingColumn

from conftest import make_sample


class TestLoadFingerprints:
    def _write(self, path, header, rows):
        lines = [",".join(header)] + [",".join(str(v) for v in r) for r in rows]
        path.write_text("\n".join(lines) + "\n")

    def test_loads_rows(self, tmp_path, line_inventory):
        path = tmp_path / "fp.csv"
        self._write(path, ["a", "b", "c", "x", "y"],
                    [[-60, -70, 100, 1.5, 2.5], [100, 100, 100, 0, 0]])
        samples = load_fingerprints(path, line_inventory)
        assert len(samples) == 2
        assert samples[0].rssi.tolist() == [-60.0, -70.0, 100.0]
        assert samples[0].truth.tolist() == [1.5, 2.5]
        # sentinel-only row is a legal sample
        assert np.all(samples[1].rssi == SENTINEL)

    def test_missing_ap_column(self, tmp_path, line_inventory):
        path = tmp_path / "fp.csv"
        self._write(path, ["a", "b", "x", "y"], [[-60, -70, 1, 2]])
        with pytest.raises(MissingColumn):
            load_fingerprints(path, line_inventory)

    def test_missing_coordinate_column(self, tmp_path, line_inventory):
        path = tmp_path / "fp.csv"
        self._write(path, ["a", "b", "c", "x"], [[-60, -70, 100, 1]])
        with pytest.raises(MissingColumn):
            load_fingerprints(path, line_inventory)

    def test_malformed_row_reports_index(self, tmp_path, line_inventory):
        path = tmp_path / "fp.csv"
        self._write(path, ["a", "b", "c", "x", "y"],
                    [[-60, -70, 100, 1, 2], [-60, "oops", 100, 1, 2]])
        with pytest.raises(MalformedRow) as err:
            load_fingerprints(path, line_inventory)
        assert err.value.row_index == 2

    def test_nan_truth_is_malformed_row(self, tmp_path, line_inventory):
        path = tmp_path / "fp.csv"
        self._write(path, ["a", "b", "c", "x", "y"],
                    [[-60, -70, 100, 1, 2], [-60, -70, 100, "nan", 2]])
        with pytest.raises(MalformedRow, match="finite") as err:
            load_fingerprints(path, line_inventory)
        assert err.value.row_index == 2

    def test_empty_file(self, tmp_path, line_inventory):
        path = tmp_path / "fp.csv"
        path.write_text("a,b,c,x,y\n")
        with pytest.raises(EmptyFile):
            load_fingerprints(path, line_inventory)

    def test_extra_columns_ignored(self, tmp_path, line_inventory, caplog):
        path = tmp_path / "fp.csv"
        self._write(path, ["a", "b", "c", "x", "y", "floor"],
                    [[-60, -70, 100, 1, 2, 3]])
        with caplog.at_level("WARNING"):
            samples = load_fingerprints(path, line_inventory)
        assert len(samples) == 1
        assert "floor" in caplog.text

    def test_round_trip_bit_exact(self, tmp_path, small_world):
        _, inventory, samples = small_world
        path = tmp_path / "fp.csv"
        save_fingerprints(path, samples, inventory)
        back = load_fingerprints(path, inventory)
        assert len(back) == len(samples)
        for orig, loaded in zip(samples, back):
            assert np.array_equal(orig.rssi, loaded.rssi)
            assert np.all(np.abs(orig.truth - loaded.truth) <= 1e-9)

    def test_inventory_round_trip(self, tmp_path, small_world):
        _, inventory, _ = small_world
        path = tmp_path / "aps.csv"
        save_inventory(path, inventory)
        back = load_inventory(path)
        assert back.ap_ids == inventory.ap_ids
        assert np.array_equal(back.coordinates, inventory.coordinates)


class TestSampleValidation:
    def test_rejects_positive_non_sentinel(self):
        with pytest.raises(ValueError):
            make_sample([-60.0, 12.0])

    def test_rejects_nan(self):
        with pytest.raises(ValueError):
            make_sample([np.nan, -60.0])

    def test_inventory_rejects_duplicate_ids(self):
        with pytest.raises(ValueError):
            ApInventory(ap_ids=("a", "a"), coordinates=np.zeros((2, 2)))


class TestSplit:
    def _pool(self, n):
        return [make_sample([-50.0], truth=(i, 0.0)) for i in range(n)]

    def test_reference_sizes(self):
        train, cal = split_train_calibration(self._pool(11370), 0.8, seed=1)
        assert len(train) == 9096
        assert len(cal) == 2274

    def test_union_and_disjointness(self):
        pool = self._pool(10)
        train, cal = split_train_calibration(pool, 0.8, seed=9)
        assert len(train) == 8 and len(cal) == 2
        ids = sorted(int(s.truth[0]) for s in train + cal)
        assert ids == list(range(10))

    def test_determinism_over_seeds(self):
        pool = self._pool(37)
        for seed in range(100):
            a = split_train_calibration(pool, 0.8, seed)
            b = split_train_calibration(pool, 0.8, seed)
            assert [id(s) for s in a[0]] == [id(s) for s in b[0]]
            assert [id(s) for s in a[1]] == [id(s) for s in b[1]]

    def test_different_seeds_same_sizes(self):
        pool = self._pool(10)
        t1, c1 = split_train_calibration(pool, 0.8, 1)
        t2, c2 = split_train_calibration(pool, 0.8, 2)
        assert (len(t1), len(c1)) == (len(t2), len(c2)) == (8, 2)

    def test_empty_input(self):
        with pytest.raises(EmptyInput):
            split_train_calibration([], 0.8, 0)


class TestNormalizeRssi:
    def test_linear_map(self):
        out = normalize_rssi(np.array([-75.0]), floor=-100.0, ceiling=-30.0)
        assert out[0] == pytest.approx(25.0 / 70.0)

    def test_sentinel_maps_to_zero(self):
        assert normalize_rssi(np.array([SENTINEL]))[0] == 0.0

    def test_clamps_above_ceiling(self):
        assert normalize_rssi(np.array([-20.0]), ceiling=-30.0)[0] == 1.0

    def test_clamps_below_floor(self):
        assert normalize_rssi(np.array([-120.0]), floor=-100.0)[0] == 0.0

    @given(
        v1=st.floats(min_value=-120.0, max_value=0.0),
        v2=st.floats(min_value=-120.0, max_value=0.0),
    )
    def test_monotone_and_bounded(self, v1, v2):
        lo, hi = sorted([v1, v2])
        out = normalize_rssi(np.array([lo, hi]))
        assert 0.0 <= out[0] <= out[1] <= 1.0


class TestCoordAffine:
    def test_round_trip(self, small_world):
        _, inventory, samples = small_world
        affine = coord_affine(inventory)
        pts = np.stack([s.truth for s in samples])
        assert np.allclose(denormalize_coords(normalize_coords(pts, affine), affine), pts)

    def test_degenerate_axis(self):
        inv = ApInventory(
            ap_ids=("a", "b"), coordinates=np.array([[0.0, 5.0], [10.0, 5.0]]))
        offset, scale = coord_affine(inv)
        assert scale[1] == 1.0  # flat axis falls back to unit scale


class TestSynthetic:
    def test_path_loss_formula(self):
        # reference power at 1 m, then -10 * n * log10(d)
        assert path_loss_rssi(np.array([10.0]), -40.0, 2.0)[0] == pytest.approx(-60.0)
        assert path_loss_rssi(np.array([1.0]), -40.0, 2.0)[0] == pytest.approx(-40.0)

    def test_noise_free_matches_closed_form(self):
        cfg = SyntheticConfig(
            ap_count=4, area=(40.0, 40.0), path_loss_exponent=2.0,
            ref_power_dbm=-40.0, noise_sigma_db=0.0, detection_floor_dbm=-90.0,
            sample_count=50, seed=5,
        )
        inventory, samples = generate_synthetic(cfg)
        for s in samples:
            d = np.linalg.norm(inventory.coordinates - s.truth, axis=1)
            expected = np.minimum(-40.0 - 20.0 * np.log10(np.maximum(d, 1e-12)), 0.0)
            expected = np.where(expected < -90.0, SENTINEL, expected)
            assert np.all(np.abs(s.rssi - expected) <= 1e-9)

    def test_detection_floor_becomes_sentinel(self):
        cfg = SyntheticConfig(
            ap_count=3, area=(500.0, 500.0), path_loss_exponent=3.0,
            ref_power_dbm=-40.0, noise_sigma_db=0.0, detection_floor_dbm=-60.0,
            sample_count=30, seed=8,
        )
        _, samples = generate_synthetic(cfg)
        rssi = np.concatenate([s.rssi for s in samples])
        detected = rssi[rssi != SENTINEL]
        assert np.any(rssi == SENTINEL)  # the floor is high enough to trigger
        assert np.all(detected >= -60.0)

    def test_deterministic_under_seed(self):
        cfg = SyntheticConfig(ap_count=3, area=(10.0, 10.0), noise_sigma_db=2.0,
                              sample_count=5, seed=42)
        inv1, s1 = generate_synthetic(cfg)
        inv2, s2 = generate_synthetic(cfg)
        assert np.array_equal(inv1.coordinates, inv2.coordinates)
        for a, b in zip(s1, s2):
            assert np.array_equal(a.rssi, b.rssi)
            assert np.array_equal(a.truth, b.truth)

    def test_test_stream_independent_of_train(self):
        cfg = SyntheticConfig(ap_count=3, area=(10.0, 10.0), sample_count=5, seed=42)
        inventory, train = generate_synthetic(cfg)
        test = synthesize_scans(inventory, cfg, 5, "test")
        assert not np.allclose(
            np.stack([s.truth for s in train]), np.stack([s.truth for s in test]))
