import math
from dataclasses import fields

import pytest
from hypothesis import given
from hypothesis import strategies as st

from dataecon import (BASELINE, ModelParams, ParameterError, RegimeError,
                      baseline_params, steady_state, validate_params)
from dataecon.core import steady_states

from .strategies import kx


def test_baseline_values():
    p = baseline_params()
    assert (p.alpha, p.beta, p.w, p.delta, p.rho) == (0.6, 0.2, 1.0, 0.08, 0.07)
    assert (p.sigma, p.a) == (2.0, 2.0)


def test_baseline_regime_sign_negative():
    p = validate_params({"eta": 0.2, "theta": 0.5})
    assert kx(p) < 0.0
    assert steady_states(p)[0] == "ok"


@pytest.mark.parametrize("field,value", [
    ("alpha", 1.2), ("alpha", 0.0), ("beta", 1.0), ("eta", 1.0),
    ("eta", -0.1), ("theta", 1.5), ("w", 0.0), ("delta", -0.01),
    ("rho", 0.0), ("sigma", 1.0), ("a", 0.0),
])
def test_out_of_range_rejected_naming_field(field, value):
    with pytest.raises(ParameterError) as exc:
        validate_params({field: value})
    assert field in str(exc.value)


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf, 10**400])
@pytest.mark.parametrize("field", [f.name for f in fields(ModelParams)])
def test_non_finite_value_rejected(field, value):
    with pytest.raises(ParameterError) as exc:
        ModelParams(**{field: value})
    assert exc.value.violations == [f"{field} must be a finite number, got {value!r}"]


def test_alpha_plus_beta_bound():
    with pytest.raises(ParameterError) as exc:
        validate_params({"alpha": 0.7, "beta": 0.5})
    assert "alpha + beta" in str(exc.value)


def test_all_violations_reported_together():
    with pytest.raises(ParameterError) as exc:
        validate_params({"alpha": 1.2, "w": -1.0, "sigma": 0.5})
    msg = str(exc.value)
    assert "alpha" in msg and "w" in msg and "sigma" in msg
    assert len(exc.value.violations) == 3


def test_unknown_field_rejected():
    with pytest.raises(ParameterError) as exc:
        validate_params({"gamma": 0.5})
    assert "gamma" in str(exc.value)


def test_singular_at_band_center():
    # alpha+beta+alpha*eta-1 = 0 exactly at eta = (1-alpha-beta)/alpha
    p = ModelParams(alpha=0.6, beta=0.2, eta=1.0 / 3.0, theta=0.5)
    assert abs(kx(p)) < 1e-15
    with pytest.raises(RegimeError, match="inside the singular band"):
        steady_state(p)
    assert steady_states(p)[0] == "singular"


def test_band_is_configurable():
    p = ModelParams(alpha=0.6, beta=0.2, eta=0.31, theta=0.5)
    assert steady_states(p)[0] == "singular"    # default band 0.02; exponent -0.014
    q = p.replace(singular_band=0.005)
    assert steady_states(q)[0] == "ok"
    assert steady_state(q).feasible


def test_edges_admitted_for_reductions():
    validate_params({"eta": 0.0, "theta": 0.0})
    validate_params({"eta": 0.0, "theta": 1.0})
    validate_params({"alpha": 0.5, "beta": 0.5})


def test_composite_positivity_invariants():
    for record in ({"eta": 0.9}, {"alpha": 0.9, "beta": 0.1, "eta": 0.85}):
        p = validate_params(record)
        assert 1.0 - p.alpha * p.eta > 0.0
        assert 1.0 - p.beta - p.alpha * p.eta > 0.0


def test_defaults_cover_all_baseline_keys():
    assert set(BASELINE) == {"alpha", "beta", "eta", "theta", "w", "delta",
                             "rho", "sigma", "a"}


# every field is out of range below zero
_BAD = st.one_of(st.floats(max_value=-1e-300),
                 st.sampled_from([math.nan, math.inf, -math.inf, 10**400, "0.5", None]))


@st.composite
def invalid_records(draw):
    """Records with one or more bad fields, the rest anywhere in [-2, 2]."""
    names = st.sampled_from([f.name for f in fields(ModelParams)])
    record = {name: draw(st.floats(-2.0, 2.0))
              for name in draw(st.lists(names, unique=True))}
    record.update({name: draw(_BAD)
                   for name in draw(st.lists(names, min_size=1, unique=True))})
    return record


@given(invalid_records())
def test_validate_params_reports_the_constructors_violations(raw):
    with pytest.raises(ParameterError) as by_constructor:
        ModelParams(**raw)
    with pytest.raises(ParameterError) as by_validate:
        validate_params(raw)
    assert by_validate.value.violations == by_constructor.value.violations != []
