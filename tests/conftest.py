import hypothesis
import pytest

from dataecon import ModelParams, baseline_params

hypothesis.settings.register_profile(
    "default", deadline=None, max_examples=60, derandomize=True,
    suppress_health_check=[hypothesis.HealthCheck.filter_too_much,
                           hypothesis.HealthCheck.too_slow])
hypothesis.settings.load_profile("default")


@pytest.fixture
def baseline() -> ModelParams:
    return baseline_params()


@pytest.fixture
def baseline_eta0() -> ModelParams:
    return baseline_params(eta=0.0)
