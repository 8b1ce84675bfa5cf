"""Term specs, parameter layout, and utility evaluation."""

import dataclasses
import re

import numpy as np
import pytest

import sevlogit as sl
from sevlogit.modelspec import Slot, bind_design


class TestTermSpec:
    def test_base_outcome_excluded(self):
        with pytest.raises(sl.ModelSpecError, match="base outcome"):
            sl.TermSpec("speed_limit", (0, 1))

    def test_shared_needs_two_outcomes(self):
        with pytest.raises(sl.ModelSpecError, match="at least two"):
            sl.TermSpec("speed_limit", (1,), shared=True)

    def test_outcomes_sorted_and_deduped(self):
        term = sl.TermSpec("x", (2, 1, 2))
        assert term.outcomes == (1, 2)

    @pytest.mark.parametrize("outcome", [1.7, True, "1", None])
    def test_outcome_indices_must_be_integers(self, outcome):
        with pytest.raises(sl.ModelSpecError, match="'x': outcomes must be integer indices"):
            sl.TermSpec("x", (outcome, 2))

    @pytest.mark.parametrize("outcomes", [(-1,), (2, -3)])
    def test_outcome_indices_must_not_be_negative(self, outcomes):
        # -1 would otherwise name the slot of the last outcome and index numpy arrays from the end
        with pytest.raises(sl.ModelSpecError, match=r"^term 'x': outcome indices must be >= 0, "
                                                    rf"got {re.escape(str(outcomes))}$"):
            sl.TermSpec("x", outcomes)

    def test_integral_outcome_indices_become_ints(self):
        term = sl.TermSpec("x", (2.0, np.int64(1)))
        assert term.outcomes == (1, 2)
        assert all(type(out) is int for out in term.outcomes)

    @pytest.mark.parametrize("shared", ["false", 0, 1, None])
    def test_shared_must_be_a_bool(self, shared):
        with pytest.raises(sl.ModelSpecError, match="'x': shared must be true or false"):
            sl.TermSpec("x", (1, 2), shared=shared)


class TestModelSpec:
    def test_duplicate_pair_rejected(self):
        outs = sl.OutcomeSet()
        with pytest.raises(sl.ModelSpecError, match="duplicate"):
            sl.ModelSpec(
                outs,
                (sl.TermSpec("x", (1, 2), shared=True), sl.TermSpec("x", (1,))),
            )

    def test_outcome_range_checked(self):
        outs = sl.OutcomeSet(("a", "b"))
        with pytest.raises(sl.ModelSpecError, match="references outcome"):
            sl.ModelSpec(outs, (sl.TermSpec("x", (2,)),))

    def test_param_count_unshared_constants(self, three_outcomes):
        model = sl.ModelSpec(three_outcomes, (sl.TermSpec("constant", (1, 2)),))
        assert model.n_params == 2

    def test_param_count_shared_plus_constants(self, three_outcomes):
        model = sl.ModelSpec(
            three_outcomes,
            (
                sl.TermSpec("speed_limit", (1, 2), shared=True),
                sl.TermSpec("constant", (1, 2)),
            ),
        )
        assert model.n_params == 3


class TestLayout:
    def test_shared_term_maps_to_one_slot(self, three_outcomes):
        # mirrors a published row where injury and fatality carry one estimate
        model = sl.ModelSpec(
            three_outcomes, (sl.TermSpec("speed_limit", (1, 2), shared=True),)
        )
        layout = sl.build_layout(model)
        assert layout.n_params == 1
        assert layout.slot_of[("speed_limit", 1)] == layout.slot_of[("speed_limit", 2)] == 0
        assert layout.slots[0] == Slot("speed_limit", (1, 2), True)

    def test_unshared_term_maps_to_distinct_slots(self, three_outcomes):
        model = sl.ModelSpec(three_outcomes, (sl.TermSpec("speed_limit", (1, 2)),))
        layout = sl.build_layout(model)
        assert layout.slot_of[("speed_limit", 1)] != layout.slot_of[("speed_limit", 2)]

    def test_bijection_onto_range(self, speed_model):
        layout = sl.build_layout(speed_model)
        assert sorted(set(layout.slot_of.values())) == list(range(layout.n_params))

    def test_permutation_invariance(self, three_outcomes):
        terms = (
            sl.TermSpec("constant", (1, 2)),
            sl.TermSpec("speed_limit", (1, 2), shared=True),
            sl.TermSpec("curve", (2,)),
        )
        layouts = [
            sl.build_layout(sl.ModelSpec(three_outcomes, perm))
            for perm in (terms, terms[::-1], (terms[1], terms[2], terms[0]))
        ]
        names = [l.slot_names() for l in layouts]
        assert names[0] == names[1] == names[2]
        assert layouts[0].slots == layouts[1].slots == layouts[2].slots

    def test_permutation_keeps_slot_of(self, three_outcomes):
        terms = (
            sl.TermSpec("constant", (1, 2)),
            sl.TermSpec("speed_limit", (1, 2), shared=True),
            sl.TermSpec("curve", (2,)),
        )
        first, *others = (
            sl.build_layout(sl.ModelSpec(three_outcomes, perm)).slot_of
            for perm in (terms, terms[::-1], (terms[1], terms[2], terms[0]))
        )
        assert all(other == first for other in others)
        assert first == {
            ("constant", 1): 0,
            ("constant", 2): 1,
            ("curve", 2): 2,
            ("speed_limit", 1): 3,
            ("speed_limit", 2): 3,
        }

    def test_slot_index_unknown_pair_is_key_error(self, speed_model):
        layout = sl.build_layout(speed_model)
        assert layout.slot_index("curve", 2) == 2
        for variable, outcome in (("curve", 1), ("nope", 1), ("speed_limit", 0)):
            with pytest.raises(KeyError, match=f"no slot for variable '{variable}'"):
                layout.slot_index(variable, outcome)

    def test_slot_names(self, speed_model):
        layout = sl.build_layout(speed_model)
        assert layout.slot_names() == (
            "constant:injury",
            "constant:fatality",
            "curve:fatality",
            "speed_limit:injury+fatality",
        )


class TestParameterVector:
    def test_length_checked(self, speed_model):
        layout = sl.build_layout(speed_model)
        with pytest.raises(ValueError):
            sl.ParameterVector(np.zeros(layout.n_params + 1), layout)

    def test_from_dict_round_trip(self, speed_model):
        layout = sl.build_layout(speed_model)
        mapping = dict(zip(layout.slot_names(), [0.1, 0.2, 0.3, 0.4]))
        theta = sl.ParameterVector.from_dict(layout, mapping)
        assert dict(zip(layout.slot_names(), theta.values)) == mapping
        with pytest.raises(ValueError, match="missing"):
            sl.ParameterVector.from_dict(layout, {"constant:injury": 1.0})

    def test_zeros(self, speed_model):
        layout = sl.build_layout(speed_model)
        theta = sl.ParameterVector.zeros(layout)
        assert theta.layout is layout
        assert np.array_equal(theta.values, np.zeros(layout.n_params))


class TestUtility:
    def test_base_outcome_always_zero(self, speed_model, speed_theta):
        obs = sl.Observation({"speed_limit": 55.0, "curve": 1.0}, 1)
        assert sl.utility(speed_model, speed_theta, obs, 0) == 0.0

    def test_zero_theta_zero_utility(self, speed_model):
        obs = sl.Observation({"speed_limit": 55.0, "curve": 1.0}, 0)
        zero = np.zeros(speed_model.n_params)
        for i in range(3):
            assert sl.utility(speed_model, zero, obs, i) == 0.0

    def test_single_term_direct_value(self, three_outcomes):
        model = sl.ModelSpec(three_outcomes, (sl.TermSpec("speed_limit", (1,)),))
        obs = sl.Observation({"speed_limit": 55.0}, 0)
        assert sl.utility(model, np.array([0.04]), obs, 1) == pytest.approx(2.2)

    def test_linearity_in_theta(self, speed_model):
        rng = np.random.default_rng(5)
        layout = sl.build_layout(speed_model)
        for _ in range(25):
            t1 = rng.normal(size=layout.n_params)
            t2 = rng.normal(size=layout.n_params)
            a, b = rng.normal(size=2)
            obs = sl.Observation(
                {"speed_limit": float(rng.uniform(20, 70)), "curve": float(rng.integers(2))}, 0
            )
            for i in range(3):
                left = sl.utility(speed_model, a * t1 + b * t2, obs, i)
                right = a * sl.utility(speed_model, t1, obs, i) + b * sl.utility(
                    speed_model, t2, obs, i
                )
                assert left == pytest.approx(right, abs=1e-12)

    def test_softmax_of_utilities_is_probabilities(self, speed_model):
        rng = np.random.default_rng(8)
        for _ in range(25):
            theta = rng.normal(size=speed_model.n_params)
            obs = sl.Observation(
                {"speed_limit": float(rng.uniform(20, 70)), "curve": float(rng.integers(2))}, 0
            )
            u = np.array([sl.utility(speed_model, theta, obs, i) for i in range(3)])
            softmax = np.exp(u - u.max()) / np.exp(u - u.max()).sum()
            np.testing.assert_allclose(
                softmax, sl.probabilities(speed_model, theta, obs), rtol=0, atol=1e-15
            )

    def test_missing_covariate_is_schema_error(self, speed_model, speed_theta):
        obs = sl.Observation({"speed_limit": 55.0}, 0)
        with pytest.raises(sl.SchemaError, match="curve"):
            sl.utility(speed_model, speed_theta, obs, 2)

    def test_an_outcome_out_of_range_is_refused(self, speed_model, speed_theta):
        obs = sl.Observation({"speed_limit": 55.0, "curve": 1.0}, 0)
        with pytest.raises(ValueError, match="^outcome index 3 out of range$"):
            sl.utility(speed_model, speed_theta, obs, 3)

    def test_another_layouts_vector_is_refused(self, speed_model, constants_model):
        other = sl.ParameterVector.zeros(sl.build_layout(constants_model))
        obs = sl.Observation({"speed_limit": 55.0, "curve": 1.0}, 0)
        with pytest.raises(ValueError, match="^parameter vector layout does not match this model$"):
            sl.utility(speed_model, other, obs, 1)

    def test_constant_contributes_coefficient(self, constants_model):
        obs = sl.Observation({}, 0)
        assert sl.utility(constants_model, np.array([0.5, -1.0]), obs, 1) == 0.5
        assert sl.utility(constants_model, np.array([0.5, -1.0]), obs, 2) == -1.0


class TestTermVariableIsALabel:
    @pytest.mark.parametrize("variable", [7, True, None, 1.5, ""])
    def test_a_non_string_or_empty_variable_is_refused(self, variable):
        refused = f"term variable must be a non-empty string, got {variable!r}"
        with pytest.raises(sl.ModelSpecError, match=refused):
            sl.TermSpec(variable, (1,))


class TestParameterVectorOwnsItsNumbers:
    """Each value is a real number (ValueError naming it) and finite (NumericError)."""

    @pytest.fixture
    def layout(self, speed_model):
        return sl.build_layout(speed_model)

    @pytest.mark.parametrize("bad", ["0.3", True, None, object(), [0.1]])
    @pytest.mark.parametrize("kind", ["list", "tuple", "object-array"])
    def test_a_non_number_is_refused_by_position(self, layout, kind, bad):
        values = [0.1, 0.2, bad, 0.4]
        if kind != "list":
            values = tuple(values) if kind == "tuple" else np.array(values, dtype=object)
        with pytest.raises(ValueError, match=r"^value 2 must be a finite number, got "):
            sl.ParameterVector(values, layout)

    def test_strings_are_not_converted(self, layout):
        with pytest.raises(ValueError, match="value 0 must be a finite number, got '-1'"):
            sl.ParameterVector(["-1", "-2", "0.3", "0.4"], layout)

    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
    @pytest.mark.parametrize("kind", ["list", "float-array"])
    def test_a_non_finite_value_is_a_numeric_error(self, layout, kind, bad):
        values = [0.1, bad, 0.3, 0.4]
        values = np.array(values) if kind == "float-array" else values
        with pytest.raises(sl.NumericError, match=f"^value 1 must be a finite number, got {bad}$"):
            sl.ParameterVector(values, layout)

    def test_from_dict_names_the_slot(self, layout):
        mapping = dict(zip(layout.slot_names(), [0.1, 0.2, 0.3, 0.4]))
        refused = "value of 'constant:injury' must be a finite number, got True"
        with pytest.raises(ValueError, match=refused):
            sl.ParameterVector.from_dict(layout, {**mapping, "constant:injury": True})
        refused = "value of 'curve:fatality' must be a finite number, got inf$"
        with pytest.raises(sl.NumericError, match=refused):
            sl.ParameterVector.from_dict(layout, {**mapping, "curve:fatality": np.float64(np.inf)})

    def test_integers_become_floats(self, layout):
        theta = sl.ParameterVector([1, np.int64(2), 3.0, np.float32(0.5)], layout)
        assert theta.values.dtype == np.float64 and theta.values.tolist() == [1.0, 2.0, 3.0, 0.5]

    def test_values_are_a_read_only_copy(self, layout):
        given = np.zeros(layout.n_params)
        theta = sl.ParameterVector(given, layout)
        given[0] = np.inf  # the caller's array stays the caller's
        assert theta.values[0] == 0.0
        with pytest.raises(ValueError, match="read-only"):
            theta.values[0] = np.inf  # no value can turn non-finite after the check


class TestBoundDesignIsSharedAndImmutable:
    NAMES = ("speed_limit", "curve")

    @staticmethod
    def _speed_model():
        """A spec equal to the speed model's, built anew: equal, not the same object."""
        return sl.ModelSpec(
            sl.OutcomeSet(),
            (
                sl.TermSpec("constant", (1, 2)),
                sl.TermSpec("speed_limit", (1, 2), shared=True),
                sl.TermSpec("curve", (2,)),
            ),
        )

    def test_an_equal_spec_gets_the_same_design(self, speed_model):
        other = self._speed_model()
        assert other == speed_model and other is not speed_model
        design = bind_design(speed_model, self.NAMES)
        assert bind_design(other, self.NAMES) is design
        assert bind_design(speed_model, tuple(list(self.NAMES))) is design  # an equal tuple

    def test_designs_compare_and_hash_by_identity(self, speed_model):
        design = bind_design(speed_model, self.NAMES)
        reordered = bind_design(speed_model, self.NAMES[::-1])
        # a dataclass __eq__ over the index arrays raised "truth value ... is ambiguous"
        assert design == bind_design(self._speed_model(), self.NAMES)
        assert design != reordered
        assert hash(design) == hash(bind_design(self._speed_model(), self.NAMES))
        assert len({design, bind_design(speed_model, self.NAMES), reordered}) == 2

    def test_a_designs_arrays_and_layout_are_read_only(self, speed_model):
        design = bind_design(speed_model, self.NAMES)
        slots = design.entry_slot.copy()
        for array in (design.entry_slot, design.entry_outcome, design.entry_col):
            with pytest.raises(ValueError, match="read-only"):
                array[0] = 5
        with pytest.raises(TypeError):
            design.layout.slot_of[("speed_limit", 1)] = 0
        with pytest.raises(dataclasses.FrozenInstanceError):
            design.entry_slot = np.zeros(4, dtype=np.int64)
        assert np.array_equal(design.entry_slot, slots)
        assert design.layout.slot_of[("speed_limit", 1)] == 3  # after constant:*, curve:fatality

    def test_a_results_layout_map_is_read_only(self, speed_model, speed_dataset):
        layout = sl.estimate(speed_model, speed_dataset).theta_hat.layout
        assert layout is bind_design(speed_model, speed_dataset.variable_names).layout
        with pytest.raises(TypeError):
            layout.slot_of[("curve", 1)] = 0
        assert ("curve", 1) not in layout.slot_of

    def test_a_missing_variable_raises_on_every_call(self, speed_model):
        cached = bind_design.cache_info().currsize
        for _ in range(3):
            with pytest.raises(sl.SchemaError, match="'curve' is not in the dataset"):
                bind_design(speed_model, ("speed_limit",))
        assert bind_design.cache_info().currsize == cached
