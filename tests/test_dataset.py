import csv
import io
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sacloc.dataset import (
    RSSI_CEILING,
    RSSI_FLOOR,
    SENTINEL,
    ApInventory,
    FingerprintSample,
    ScanSet,
    SyntheticConfig,
    coord_affine,
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
from sacloc.errors import (
    BadInventory,
    DuplicateColumn,
    EmptyFile,
    EmptyInput,
    MalformedRow,
    MissingColumn,
)

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


class TestLoaderValues:
    """The bulk reader against a per-cell `float()` reference."""

    def test_matches_per_cell_float_reference(self, tmp_path, line_inventory, caplog):
        # columns out of inventory order, a quoted extra column holding the
        # delimiter, ref_point_id, quoted numbers, integers, exponents,
        # sentinels and blank lines
        text = (
            'ref_point_id,c,y,note,b,x,a\r\n'
            '7,100,2.5,"left, door",-70,1.25,-60\r\n'
            '\r\n'
            '8,"-61.5",1E+01,plain,100,-3,-6.05e1\r\n'
            '9,-1e2,0.1,"say ""hi""",-99.999,1e-3,100\r\n'
            '\r\n'
        )
        path = tmp_path / "fp.csv"
        path.write_text(text, newline="")
        with caplog.at_level("WARNING"):
            scans = load_fingerprints(path, line_inventory)
        header, *body = [r for r in csv.reader(io.StringIO(text, newline="")) if r]

        def cells(names):
            return [[float(row[header.index(name)]) for name in names] for row in body]

        assert np.array_equal(scans.rssi, cells("abc"))
        assert np.array_equal(scans.truth, cells("xy"))
        assert "note" in caplog.text and "ref_point_id" not in caplog.text

    def test_ref_point_id_is_ignored(self, tmp_path, line_inventory, caplog):
        path = tmp_path / "fp.csv"
        path.write_text("a,b,c,x,y,ref_point_id\n-60,-70,100,1,2,not-an-int\n")
        with caplog.at_level("WARNING"):
            scans = load_fingerprints(path, line_inventory)
        assert scans.truth.tolist() == [[1.0, 2.0]]
        assert caplog.text == ""
        assert not hasattr(scans[0], "ref_point_id")

    def test_numerals_only_float_reads(self, tmp_path, line_inventory):
        # np.loadtxt rejects these; the row-by-row rescan takes them as float() does
        path = tmp_path / "fp.csv"
        path.write_text("a,b,c,x,y\n-6_0,-70,100,1,2\n")
        assert load_fingerprints(path, line_inventory).rssi.tolist() == [[-60.0, -70.0, 100.0]]

    @pytest.mark.parametrize("text", ["a,b,c,a,x,y\n-60,-70,100,-50,1,2\n",
                                      "a,b,c,x,y,note,note\n-60,-70,100,1,2,p,q\n"])
    def test_duplicate_column_rejected(self, tmp_path, line_inventory, text):
        path = tmp_path / "fp.csv"
        path.write_text(text)
        with pytest.raises(DuplicateColumn, match="appears more than once") as err:
            load_fingerprints(path, line_inventory)
        assert str(path) in str(err.value)

    @pytest.mark.parametrize("body, row_index, message", [
        ("-60,-70,100,1,2\n-60,oops,100,1,2\n", 2, "could not convert string to float: 'oops'"),
        ("-60,-70,100,1,2\n-60,-70,100\n", 2,
         "float() argument must be a string or a real number, not 'NoneType'"),
        ("-60,-70,100,1,2\n-60,-70,100,nan,2\n", 2, "truth must be finite, got [nan, 2.0]"),
        ("-60,-70,100,1,inf\n", 1, "truth must be finite, got [1.0, inf]"),
        ("-60,-70,100,1,2\n\n-60,12,100,1,2\n", 2,
         "detected RSSI entries must be finite and <= 0 dBm; entry 2 is 12"),
        ("-60,-70,nan,1,2\n", 1, "detected RSSI entries must be finite and <= 0 dBm; entry 3 is nan"),
        # the first bad row wins, whether it fails to parse or breaks the scan rule
        ("-60,5,100,1,2\n-60,x,100,1,2\n", 1,
         "detected RSSI entries must be finite and <= 0 dBm; entry 2 is 5"),
        ("-60,x,100,1,2\n-60,5,100,1,2\n", 1, "could not convert string to float: 'x'"),
        ("-60,5,100,nan,2\n", 1, "truth must be finite, got [nan, 2.0]"),
        ("-60,-70,100,1,2\n   \n", 2, "could not convert string to float: '   '"),
    ], ids=["non-number", "short-row", "nan-truth", "inf-truth", "positive-rssi", "nan-rssi",
            "rule-before-parse", "parse-before-rule", "truth-before-rssi", "whitespace-line"])
    def test_bad_row_index_and_message(self, tmp_path, line_inventory, body, row_index, message):
        path = tmp_path / "fp.csv"
        path.write_text("a,b,c,x,y\n" + body)
        with pytest.raises(MalformedRow) as err:
            load_fingerprints(path, line_inventory)
        assert (err.value.path, err.value.row_index) == (path, row_index)
        assert str(err.value) == f"{path}: row {row_index}: {message}"

    def test_blank_body_is_empty_file(self, tmp_path, line_inventory):
        path = tmp_path / "fp.csv"
        path.write_text("a,b,c,x,y\n\n\n")
        with pytest.raises(EmptyFile):
            load_fingerprints(path, line_inventory)

    def test_save_load_save_byte_identical(self, tmp_path, small_world):
        _, inventory, scans = small_world
        first, second = tmp_path / "one.csv", tmp_path / "two.csv"
        save_fingerprints(first, scans, inventory)
        save_fingerprints(second, load_fingerprints(first, inventory), inventory)
        assert first.read_bytes() == second.read_bytes()

    def test_save_writes_repr_and_crlf(self, tmp_path, small_world):
        _, inventory, scans = small_world
        path = tmp_path / "fp.csv"
        save_fingerprints(path, scans, inventory)
        lines = path.read_bytes().decode().split("\r\n")
        assert lines[0] == ",".join([*inventory.ap_ids, "x", "y"])
        assert lines[1] == ",".join(repr(float(v)) for v in [*scans.rssi[0], *scans.truth[0]])
        assert len(lines) == len(scans) + 2 and lines[-1] == ""

    def test_bulk_paths_build_no_sample(self, tmp_path, monkeypatch):
        cfg = SyntheticConfig(ap_count=4, area=(30.0, 20.0), noise_sigma_db=2.0,
                              train_samples=1000, seed=6)
        inventory, scans = generate_synthetic(cfg)
        path = tmp_path / "fp.csv"
        save_fingerprints(path, scans, inventory)

        def no_sample(*args, **kwargs):
            raise AssertionError("built a FingerprintSample")

        monkeypatch.setattr(FingerprintSample, "__init__", no_sample)
        assert len(load_fingerprints(path, inventory)) == 1000
        assert len(synthesize_scans(inventory, cfg, 1000, "test")) == 1000


class TestLoadInventory:
    def _write(self, tmp_path, text):
        path = tmp_path / "aps.csv"
        path.write_text(text)
        return path

    def test_duplicate_ap_id(self, tmp_path):
        path = self._write(tmp_path, "ap_id,x,y\na,0,0\nb,1,0\na,2,0\n")
        with pytest.raises(BadInventory, match="ap_ids are not unique: 'a'") as err:
            load_inventory(path)
        assert str(path) in str(err.value)

    @pytest.mark.parametrize("ap_id", ["x", "y", "ref_point_id"])
    def test_reserved_column_name_as_ap_id(self, tmp_path, ap_id):
        # an AP named `y` would read the truth's y coordinate as its power,
        # and one named `x` gives a fingerprint header its loader rejects
        path = self._write(tmp_path, f"ap_id,x,y\nAP1,0,0\n{ap_id},1,0\n")
        with pytest.raises(BadInventory, match=f"ap_id '{ap_id}' is a reserved") as err:
            load_inventory(path)
        assert str(path) in str(err.value)

    @pytest.mark.parametrize("cell", ["nan", "inf"])
    def test_non_finite_coordinate(self, tmp_path, cell):
        path = self._write(tmp_path, f"ap_id,x,y\na,0,0\nb,{cell},0\n")
        with pytest.raises(BadInventory, match=r"must be finite; 'b' is at \[") as err:
            load_inventory(path)
        assert str(path) in str(err.value)

    def test_malformed_row_names_file(self, tmp_path):
        path = self._write(tmp_path, "ap_id,x,y\na,0,0\nb,oops,0\n")
        with pytest.raises(MalformedRow) as err:
            load_inventory(path)
        assert (err.value.path, err.value.row_index) == (path, 2)
        assert str(err.value) == f"{path}: row 2: could not convert string to float: 'oops'"

    def test_duplicate_column(self, tmp_path):
        path = self._write(tmp_path, "ap_id,x,y,x\na,0,0,5\n")
        with pytest.raises(DuplicateColumn):
            load_inventory(path)


class TestScanSet:
    def _scans(self):
        return ScanSet(rssi=[[-60.0, 100.0], [-70.0, -80.0], [100.0, 100.0]],
                       truth=[[0.0, 1.0], [2.0, 3.0], [4.0, 5.0]])

    def test_int_index_gives_sample(self):
        scans = self._scans()
        for i in (1, np.int64(1), -2):
            sample = scans[i]
            assert isinstance(sample, FingerprintSample)
            assert sample.rssi.tolist() == [-70.0, -80.0] and sample.truth.tolist() == [2.0, 3.0]

    @pytest.mark.parametrize("index", [slice(1, 3), np.array([1, 2]), np.array([False, True, True])])
    def test_slices_and_index_arrays_give_scan_sets(self, index):
        part = self._scans()[index]
        assert isinstance(part, ScanSet) and len(part) == 2
        assert part.truth.tolist() == [[2.0, 3.0], [4.0, 5.0]]

    def test_len_and_iteration(self):
        scans = self._scans()
        assert len(scans) == 3
        assert [s.truth.tolist() for s in scans] == scans.truth.tolist()

    def test_matrices_are_contiguous_float64(self):
        table = np.arange(12.0).reshape(3, 4) - 20.0
        scans = ScanSet(rssi=table[:, :2], truth=table[:, 2:])
        for a in (scans.rssi, scans.truth):
            assert a.dtype == np.float64 and a.flags.c_contiguous

    @pytest.mark.parametrize("rssi, truth, row, message", [
        ([[-60.0], [12.0]], [[0.0, 0.0], [0.0, 0.0]], 1,
         "detected RSSI entries must be finite and <= 0 dBm; entry 1 is 12"),
        ([[-60.0, np.nan]], [[np.inf, 0.0]], 0, "truth must be finite, got [inf, 0.0]"),
    ])
    def test_first_bad_row_named(self, rssi, truth, row, message):
        with pytest.raises(ValueError) as err:
            ScanSet(rssi=rssi, truth=truth)
        assert str(err.value) == f"scans[{row}]: {message}"
        # one rule: the single-scan type says the same about that row
        with pytest.raises(ValueError) as single:
            make_sample(rssi[row], truth[row])
        assert str(single.value) == message

    def test_shape_mismatch(self):
        with pytest.raises(ValueError, match="need"):
            ScanSet(rssi=np.zeros((3, 2)) - 1, truth=np.zeros((2, 2)))


class TestSampleValidation:
    def test_rejects_positive_non_sentinel(self):
        with pytest.raises(ValueError):
            make_sample([-60.0, 12.0])

    def test_rejects_nan(self):
        with pytest.raises(ValueError):
            make_sample([np.nan, -60.0])

    @pytest.mark.parametrize("count", [0, -5, float("nan")])
    def test_synthetic_config_refuses_fewer_than_one_sample(self, count):
        with pytest.raises(ValueError, match="train_samples must be at least 1"):
            SyntheticConfig(ap_count=3, area=(10.0, 10.0), train_samples=count, seed=1)

    def test_inventory_rejects_duplicate_ids(self):
        with pytest.raises(ValueError):
            ApInventory(ap_ids=("a", "a"), coordinates=np.zeros((2, 2)))


class TestSplit:
    def _pool(self, n):
        return ScanSet(rssi=np.full((n, 1), -50.0),
                       truth=np.column_stack([np.arange(n), np.zeros(n)]))

    def test_reference_sizes(self):
        train, cal = split_train_calibration(self._pool(11370), 0.8, seed=1)
        assert len(train) == 9096
        assert len(cal) == 2274

    def test_union_and_disjointness(self):
        pool = self._pool(10)
        train, cal = split_train_calibration(pool, 0.8, seed=9)
        assert len(train) == 8 and len(cal) == 2
        ids = sorted(np.concatenate([train.truth[:, 0], cal.truth[:, 0]]).astype(int))
        assert ids == list(range(10))

    def test_parts_keep_pool_order(self):
        train, cal = split_train_calibration(self._pool(37), 0.8, seed=4)
        assert np.all(np.diff(train.truth[:, 0]) > 0)
        assert np.all(np.diff(cal.truth[:, 0]) > 0)

    def test_determinism_over_seeds(self):
        pool = self._pool(37)
        for seed in range(100):
            a = split_train_calibration(pool, 0.8, seed)
            b = split_train_calibration(pool, 0.8, seed)
            for part_a, part_b in zip(a, b):
                assert np.array_equal(part_a.rssi, part_b.rssi)
                assert np.array_equal(part_a.truth, part_b.truth)

    def test_different_seeds_same_sizes(self):
        pool = self._pool(10)
        t1, c1 = split_train_calibration(pool, 0.8, 1)
        t2, c2 = split_train_calibration(pool, 0.8, 2)
        assert (len(t1), len(c1)) == (len(t2), len(c2)) == (8, 2)

    def test_empty_input(self):
        with pytest.raises(EmptyInput):
            split_train_calibration(self._pool(0), 0.8, 0)


class TestNormalizeRssi:
    def test_linear_map(self):
        out = normalize_rssi(np.array([-75.0]))
        assert out[0] == pytest.approx(25.0 / 70.0)

    def test_sentinel_maps_to_zero(self):
        assert normalize_rssi(np.array([SENTINEL]))[0] == 0.0

    def test_clamps_above_ceiling(self):
        assert normalize_rssi(np.array([-20.0]))[0] == 1.0

    def test_clamps_below_floor(self):
        assert normalize_rssi(np.array([-120.0]))[0] == 0.0

    @given(
        v1=st.floats(min_value=-120.0, max_value=0.0),
        v2=st.floats(min_value=-120.0, max_value=0.0),
    )
    def test_monotone_and_bounded(self, v1, v2):
        lo, hi = sorted([v1, v2])
        out = normalize_rssi(np.array([lo, hi]))
        assert 0.0 <= out[0] <= out[1] <= 1.0

    @given(st.lists(st.one_of(st.floats(), st.sampled_from(
        [SENTINEL, -100.0, math.inf, -math.inf, math.nan])), min_size=1, max_size=40))
    @settings(max_examples=300)
    def test_clamp_is_np_clip_bitwise(self, values):
        rssi = np.array(values)
        scaled = np.clip((rssi - RSSI_FLOOR) / (RSSI_CEILING - RSSI_FLOOR), 0.0, 1.0)
        want = np.where(rssi != SENTINEL, scaled, 0.0)
        assert normalize_rssi(rssi).tobytes() == want.tobytes()


def denormalize_coords(points, affine):
    """Reference inverse of `normalize_coords`."""
    offset, scale = affine
    return np.asarray(points, dtype=np.float64) * scale + offset


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
            train_samples=50, seed=5,
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
            train_samples=30, seed=8,
        )
        _, samples = generate_synthetic(cfg)
        rssi = np.concatenate([s.rssi for s in samples])
        detected = rssi[rssi != SENTINEL]
        assert np.any(rssi == SENTINEL)  # the floor is high enough to trigger
        assert np.all(detected >= -60.0)

    def test_deterministic_under_seed(self):
        cfg = SyntheticConfig(ap_count=3, area=(10.0, 10.0), noise_sigma_db=2.0,
                              train_samples=5, seed=42)
        inv1, s1 = generate_synthetic(cfg)
        inv2, s2 = generate_synthetic(cfg)
        assert np.array_equal(inv1.coordinates, inv2.coordinates)
        for a, b in zip(s1, s2):
            assert np.array_equal(a.rssi, b.rssi)
            assert np.array_equal(a.truth, b.truth)

    def test_test_stream_independent_of_train(self):
        cfg = SyntheticConfig(ap_count=3, area=(10.0, 10.0), train_samples=5, seed=42)
        inventory, train = generate_synthetic(cfg)
        test = synthesize_scans(inventory, cfg, 5, "test")
        assert not np.allclose(
            np.stack([s.truth for s in train]), np.stack([s.truth for s in test]))
