import pytest

import sevlogit as sl


@pytest.fixture(scope="session")
def three_outcomes():
    return sl.OutcomeSet()


@pytest.fixture(scope="session")
def constants_model(three_outcomes):
    return sl.ModelSpec(three_outcomes, (sl.TermSpec("constant", (1, 2)),))


@pytest.fixture(scope="session")
def speed_model(three_outcomes):
    """Constants plus a shared speed-limit slope plus one fatality-only indicator."""
    return sl.ModelSpec(
        three_outcomes,
        (
            sl.TermSpec("constant", (1, 2)),
            sl.TermSpec("speed_limit", (1, 2), shared=True),
            sl.TermSpec("curve", (2,)),
        ),
    )


@pytest.fixture(scope="session")
def speed_theta(speed_model):
    layout = sl.build_layout(speed_model)
    return sl.ParameterVector.from_dict(
        layout,
        {
            "constant:injury": -1.8,
            "constant:fatality": -4.0,
            "speed_limit:injury+fatality": 0.03,
            "curve:fatality": 0.7,
        },
    )


@pytest.fixture(scope="session")
def speed_dataset(speed_model, speed_theta):
    config = sl.GeneratorConfig(
        model=speed_model,
        true_theta=speed_theta,
        n_obs=4000,
        covariates={
            "speed_limit": sl.UniformDist(25, 70),
            "curve": sl.IndicatorDist(0.3),
        },
        seed=11,
    )
    return sl.simulate(config)


def dataset_from_outcomes(outcome_indices, outcome_set=None, covariates=None):
    """Tiny dataset helper: one observation per given outcome index."""
    outcome_set = outcome_set or sl.OutcomeSet()
    covariates = covariates or {}
    obs = tuple(sl.Observation(dict(covariates), int(o)) for o in outcome_indices)
    return sl.Dataset(outcome_set, obs, tuple(covariates))


@pytest.fixture
def share_dataset():
    """Counts matching the published 2006 severity shares: 79.03 / 20.56 / 0.41 percent."""
    outcomes = [0] * 7903 + [1] * 2056 + [2] * 41
    return dataset_from_outcomes(outcomes)


@pytest.fixture(scope="session")
def dark_gap_model(three_outcomes):
    """Constants, a shared speed-limit slope and a fatality-only `dark` indicator."""
    return sl.ModelSpec(
        three_outcomes,
        (
            sl.TermSpec("constant", (1, 2)),
            sl.TermSpec("speed_limit", (1, 2), shared=True),
            sl.TermSpec("dark", (2,)),
        ),
    )


@pytest.fixture(scope="session")
def dark_gap_dataset(dark_gap_model):
    """Two road classes; `dark` is always 0 on county roads, so that cell cannot identify
    dark:fatality while the pooled data and the interstate cell can."""
    theta = sl.ParameterVector.from_dict(
        sl.build_layout(dark_gap_model),
        {
            "constant:injury": -1.8,
            "constant:fatality": -4.0,
            "speed_limit:injury+fatality": 0.03,
            "dark:fatality": 0.7,
        },
    )

    def draw(road_class, dark, seed):
        config = sl.GeneratorConfig(
            dark_gap_model,
            theta,
            1500,
            {"speed_limit": sl.UniformDist(25, 70), "dark": dark},
            segments=(sl.SegmentComponent(sl.SegmentKey(road_class=road_class), 1.0),),
            seed=seed,
        )
        return sl.simulate(config)

    interstate = draw("interstate", sl.IndicatorDist(0.3), 21)
    county = draw("county-road", sl.ConstantDist(0.0), 22)
    return sl.concatenate([interstate, county])
