"""Dataset types, partitioning, and severity-distribution summaries."""

import collections

import numpy as np
import pytest

import sevlogit as sl
from sevlogit.data import PARTITION_DIMS, ROAD_CLASSES, real


class TestOutcomeSet:
    def test_default_three_levels(self):
        outs = sl.OutcomeSet()
        assert outs.labels == ("property-damage-only", "injury", "fatality")
        assert outs.n_outcomes == 3
        assert outs.base_label == "property-damage-only"

    def test_validation(self):
        with pytest.raises(ValueError):
            sl.OutcomeSet(("only-one",))
        with pytest.raises(ValueError):
            sl.OutcomeSet(("a", "a"))
        with pytest.raises(ValueError):
            sl.OutcomeSet(("a", ""))

    def test_a_string_is_not_a_label_sequence(self):
        with pytest.raises(ValueError, match="sequence of strings, not 'pdo'"):
            sl.OutcomeSet("pdo")

    @pytest.mark.parametrize("labels", [(1, 2), ("a", None), ("a", b"b")])
    def test_labels_must_be_strings(self, labels):
        with pytest.raises(ValueError, match="outcome labels must be strings"):
            sl.OutcomeSet(labels)

    def test_index_of(self):
        outs = sl.OutcomeSet()
        assert outs.index_of("injury") == 1
        with pytest.raises(KeyError):
            outs.index_of("Injury")  # labels are case-sensitive


class TestRealRule:
    @pytest.mark.parametrize(
        "value, expected", [(2, 2.0), (0.35, 0.35), (np.float32(0.5), 0.5), (np.int64(-3), -3.0)]
    )
    def test_finite_numbers_are_floats(self, value, expected):
        assert real(value) == expected and type(real(value)) is float

    @pytest.mark.parametrize(
        "value",
        [True, np.bool_(True), "0.35", None, float("nan"), float("inf"), 10**400, [1.0], 1j],
    )
    def test_anything_else_is_refused(self, value):
        assert real(value) is None


class TestSegmentKey:
    def test_other_is_legal_everywhere(self):
        key = sl.SegmentKey()
        assert (key.road_class, key.location, key.accident_type) == ("other",) * 3

    def test_closed_enumerations(self):
        sl.SegmentKey(road_class="interstate", location="rural", accident_type="C/LT+HT")
        with pytest.raises(ValueError):
            sl.SegmentKey(road_class="motorway")
        with pytest.raises(ValueError):
            sl.SegmentKey(location="suburban")
        with pytest.raises(ValueError):
            sl.SegmentKey(accident_type="pileup")


class TestObservation:
    def test_weight_and_finiteness(self):
        with pytest.raises(ValueError):
            sl.Observation({}, 0, weight=0.0)
        with pytest.raises(ValueError):
            sl.Observation({}, 0, weight=-1.0)
        with pytest.raises(ValueError):
            sl.Observation({"x": float("nan")}, 0)
        with pytest.raises(ValueError):
            sl.Observation({"x": float("inf")}, 0)


class TestDataset:
    def test_covariates_must_match_declared(self):
        outs = sl.OutcomeSet()
        good = sl.Observation({"a": 1.0}, 0)
        bad = sl.Observation({"b": 1.0}, 0)
        sl.Dataset(outs, (good,), ("a",))
        with pytest.raises(ValueError, match="covariates do not match"):
            sl.Dataset(outs, (good, bad), ("a",))

    def test_outcome_in_range(self):
        outs = sl.OutcomeSet(("a", "b"))
        with pytest.raises(ValueError, match="out of range"):
            sl.Dataset(outs, (sl.Observation({}, 2),), ())

    def test_arrays(self):
        outs = sl.OutcomeSet()
        obs = (
            sl.Observation({"x": 1.0, "y": 10.0}, 0, weight=2.0),
            sl.Observation({"x": 3.0, "y": 30.0}, 2),
        )
        ds = sl.Dataset(outs, obs, ("y", "x"))
        assert np.array_equal(ds.covariate_matrix, [[10.0, 1.0], [30.0, 3.0]])
        assert np.array_equal(ds.outcome_indices, [0, 2])
        assert np.array_equal(ds.weights, [2.0, 1.0])
        assert np.array_equal(ds.outcome_counts(), [1, 0, 1])

    def test_equality_and_with_period(self):
        outs = sl.OutcomeSet()
        ds = sl.Dataset(outs, (sl.Observation({"x": 1.5}, 1),), ("x",))
        assert ds == sl.Dataset(outs, (sl.Observation({"x": 1.5}, 1),), ("x",))
        relabelled = ds.with_period("2006")
        assert relabelled != ds
        assert all(o.period == "2006" for o in relabelled.observations)


def _segmented_dataset(road_classes, locations=("rural",), n=None):
    outs = sl.OutcomeSet()
    obs = []
    n = n or len(road_classes)
    for i in range(n):
        seg = sl.SegmentKey(
            road_class=road_classes[i % len(road_classes)],
            location=locations[i % len(locations)],
        )
        obs.append(sl.Observation({"x": float(i)}, i % 3, seg))
    return sl.Dataset(outs, tuple(obs), ("x",))


class TestPartition:
    def test_single_key_identity(self):
        ds = _segmented_dataset(["interstate"], n=5)
        parts = sl.partition(ds, ("road_class",))
        assert list(parts) == [("interstate",)]
        assert parts[("interstate",)] == ds

    def test_two_class_split_counts(self):
        roads = ["interstate"] * 6 + ["county-road"] * 4
        outs = sl.OutcomeSet()
        obs = tuple(
            sl.Observation({"x": float(i)}, 0, sl.SegmentKey(road_class=rc))
            for i, rc in enumerate(roads)
        )
        ds = sl.Dataset(outs, obs, ("x",))
        parts = sl.partition(ds, ("road_class",))
        sizes = {key[0]: sub.n_obs for key, sub in parts.items()}
        assert sizes == {"interstate": 6, "county-road": 4}

    def test_thousand_obs_cross_partition(self):
        # brute-force count per (road, location) pair is the oracle
        rng = np.random.default_rng(123)
        roads = ["county-road", "city-street", "state-route", "us-route", "interstate"]
        locs = ["rural", "urban"]
        outs = sl.OutcomeSet()
        draws = [(roads[rng.integers(5)], locs[rng.integers(2)]) for _ in range(1000)]
        obs = tuple(
            sl.Observation({"x": 0.0}, 0, sl.SegmentKey(road_class=r, location=l))
            for r, l in draws
        )
        ds = sl.Dataset(outs, obs, ("x",))
        parts = sl.partition(ds, ("road_class", "location"))
        expected = collections.Counter(draws)
        assert len(parts) == 10
        assert sum(sub.n_obs for sub in parts.values()) == 1000
        for key, sub in parts.items():
            assert sub.n_obs == expected[key]
            assert sub.outcome_set == ds.outcome_set
            assert sub.variable_names == ds.variable_names

    def test_cover_and_disjoint_multiset(self):
        ds = _segmented_dataset(
            ["interstate", "county-road", "us-route"], ("rural", "urban"), n=57
        )
        parts = sl.partition(ds, ("road_class", "location"))
        # x is unique per row, so equal value multisets mean each row lands in exactly one cell
        def rows(observations):
            return collections.Counter(
                (o.covariates["x"], o.outcome, o.segment) for o in observations
            )

        merged = [o for sub in parts.values() for o in sub.observations]
        assert rows(merged) == rows(ds.observations)
        assert len(rows(ds.observations)) == ds.n_obs

    def test_keys_in_label_order_and_rows_in_file_order(self):
        # codes follow ROAD_CLASSES' enumeration order; keys must follow the label strings
        periods = ("2006", None, "2004")
        obs = tuple(
            sl.Observation(
                {"x": float(i)},
                i % 3,
                sl.SegmentKey(road_class=ROAD_CLASSES[(5 * i) % 6]),
                period=periods[(i // 6) % 3],
            )
            for i in range(60)
        )
        ds = sl.Dataset(sl.OutcomeSet(), obs, ("x",))
        parts = sl.partition(ds, ("period", "road_class"))
        assert len(parts) == 18
        assert list(parts) == sorted(parts, key=lambda k: (k[0], k[1] or ""))
        assert [k[0] for k in parts][:3] == ["city-street"] * 3
        assert [k[1] for k in parts][:3] == [None, "2004", "2006"]
        assert list(sl.partition(ds, ("period",))) == [(None,), ("2004",), ("2006",)]
        for (road, period), cell in parts.items():
            mask = np.array([o.segment.road_class == road and o.period == period for o in obs])
            assert np.array_equal(cell.covariate_matrix, ds.covariate_matrix[mask])
            assert np.array_equal(cell.outcome_indices, ds.outcome_indices[mask])

    def test_partition_by_period(self):
        outs = sl.OutcomeSet()
        obs = tuple(
            sl.Observation({}, 0, period=p) for p in ("2004", "2006", "2004", None)
        )
        ds = sl.Dataset(outs, obs, ())
        parts = sl.partition(ds, ("period",))
        assert {k[0]: v.n_obs for k, v in parts.items()} == {"2004": 2, "2006": 1, None: 1}

    def test_empty_dims_rejected(self):
        ds = _segmented_dataset(["interstate"], n=2)
        with pytest.raises(ValueError, match="non-empty"):
            sl.partition(ds, ())
        with pytest.raises(ValueError, match="unknown partition dims"):
            sl.partition(ds, ("county",))

    def test_dims_order_canonical(self):
        ds = _segmented_dataset(["interstate", "county-road"], ("rural", "urban"), n=20)
        a = sl.partition(ds, ("location", "road_class"))
        b = sl.partition(ds, ("road_class", "location"))
        assert list(a) == list(b)
        assert PARTITION_DIMS == ("road_class", "location", "accident_type", "period")


def _speed_dataset(records):
    outs = sl.OutcomeSet()
    obs = tuple(sl.Observation({"speed_limit": s}, o) for s, o in records)
    return sl.Dataset(outs, obs, ("speed_limit",))


class TestSummarize:
    def test_single_record(self):
        table = sl.summarize(_speed_dataset([(45.0, 1)]), bins=[30, 50, 60])
        band = next(b for b in table.bins if b.total)
        assert band.label == "(30, 50]"
        assert band.shares == (0.0, 1.0, 0.0)

    def test_hand_counted_fixture(self):
        records = [(40.0, 0)] * 8 + [(40.0, 1)] * 2
        table = sl.summarize(_speed_dataset(records), bins=[30, 50, 60])
        band = next(b for b in table.bins if b.total)
        assert band.shares == (0.8, 0.2, 0.0)

    def test_counts_cover_and_shares_sum(self):
        rng = np.random.default_rng(7)
        records = [(float(rng.uniform(10, 80)), int(rng.integers(3))) for _ in range(500)]
        table = sl.summarize(_speed_dataset(records), bins=[30, 50, 60])
        assert table.total == 500
        for band in table.bins:
            if band.shares is not None:
                assert abs(sum(band.shares) - 1.0) < 1e-12

    def test_reordering_invariance(self):
        rng = np.random.default_rng(8)
        records = [(float(rng.uniform(10, 80)), int(rng.integers(3))) for _ in range(200)]
        t1 = sl.summarize(_speed_dataset(records), bins=[30, 55])
        rng.shuffle(records)
        t2 = sl.summarize(_speed_dataset(records), bins=[30, 55])
        assert t1 == t2

    def test_band_edges_closed_right(self):
        records = [(30.0, 0), (30.0000001, 0), (50.0, 0), (60.0, 0), (60.1, 0)]
        table = sl.summarize(_speed_dataset(records), bins=[30, 50, 60])
        assert [b.total for b in table.bins] == [1, 2, 1, 1]

    def test_missing_variable(self):
        outs = sl.OutcomeSet()
        ds = sl.Dataset(outs, (sl.Observation({"x": 1.0}, 0),), ("x",))
        with pytest.raises(sl.SchemaError):
            sl.summarize(ds, bins=[30])

    def test_bad_bins(self):
        ds = _speed_dataset([(40.0, 0)])
        with pytest.raises(ValueError):
            sl.summarize(ds, bins=[])
        with pytest.raises(ValueError):
            sl.summarize(ds, bins=[50, 30])

    def test_empty_band_has_no_shares(self):
        table = sl.summarize(_speed_dataset([(20.0, 0)]), bins=[30, 50])
        assert table.bins[0].shares == (1.0, 0.0, 0.0)
        assert table.bins[1].shares is None
        assert table.bins[2].shares is None


class TestConcatenate:
    def test_round_trip_with_partition(self):
        ds = _segmented_dataset(["interstate", "county-road"], n=9)
        parts = sl.partition(ds, ("road_class",))
        pooled = sl.concatenate(list(parts.values()))
        assert sorted(o.covariates["x"] for o in pooled.observations) == sorted(
            o.covariates["x"] for o in ds.observations
        )

    def test_mismatch_rejected(self):
        outs = sl.OutcomeSet()
        a = sl.Dataset(outs, (sl.Observation({"x": 1.0}, 0),), ("x",))
        b = sl.Dataset(outs, (sl.Observation({"y": 1.0}, 0),), ("y",))
        with pytest.raises(ValueError):
            sl.concatenate([a, b])
        with pytest.raises(ValueError):
            sl.concatenate([])


class TestObservationOwnsItsValues:
    @pytest.mark.parametrize("outcome", [True, 1.5, "1", None, -1])
    def test_outcome_is_a_non_negative_integer(self, outcome):
        refused = f"outcome index must be a non-negative integer, got {outcome!r}"
        with pytest.raises(ValueError, match=refused):
            sl.Observation({}, outcome)

    @pytest.mark.parametrize("weight", ["2", True, float("inf"), float("nan"), 0.0])
    def test_weight_is_a_positive_finite_number(self, weight):
        with pytest.raises(ValueError, match=f"weight must be positive and finite, got {weight!r}"):
            sl.Observation({}, 0, weight=weight)

    @pytest.mark.parametrize("value", ["1", True, None, float("nan")])
    def test_covariates_are_finite_numbers(self, value):
        refused = f"covariate 'x' must be a finite number, got {value!r}"
        with pytest.raises(ValueError, match=refused):
            sl.Observation({"x": value}, 0)

    def test_values_are_stored_normalised(self):
        obs = sl.Observation({"x": np.int64(3)}, 2.0, weight=np.float32(2.0))
        assert obs == sl.Observation({"x": 3.0}, 2, weight=2.0)
        assert type(obs.outcome) is int and type(obs.weight) is float
        assert type(obs.covariates["x"]) is float


class TestPeriodLabelsAreStrings:
    @pytest.mark.parametrize("period", [2006, 2006.0, True, b"2006"])
    def test_observation(self, period):
        refused = f"period label must be a string or None, got {period!r}"
        with pytest.raises(ValueError, match=refused):
            sl.Observation({}, 0, period=period)

    def test_with_period(self):
        ds = sl.Dataset(sl.OutcomeSet(), (sl.Observation({}, 0),), ())
        with pytest.raises(ValueError, match="period label must be a string or None, got 2006"):
            ds.with_period(2006)
        assert ds.with_period("2006").period_labels == ("2006",)
        assert ds.with_period(None).period_labels == ()

    def test_from_columns(self):
        n = 2
        columns = {"X": np.empty((n, 0)), "y": [0, 1], "w": [1.0, 1.0], "period": [0, 1],
                   **{dim: [0, 0] for dim in sl.data.SEGMENT_LEVELS}}
        with pytest.raises(ValueError, match="period label must be a string or None, got 2004"):
            sl.Dataset.from_columns(sl.OutcomeSet(), (), columns, ("2006", 2004))
        ds = sl.Dataset.from_columns(sl.OutcomeSet(), (), columns, ("2006", None))
        assert ds.period_labels == ("2006",)
