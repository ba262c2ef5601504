"""The package's public surface, pinned: a name leaves ``dataecon.__all__``
only by an edit to this list, so every removal is deliberate.  ``__all__``
is built from the package's namespace, so each listed name imports."""

import dataecon

PUBLIC_NAMES = [
    "BASELINE", "Classification", "ClassificationError", "ConfigError",
    "DEFAULT_SINGULAR_BAND", "DegenerateError", "Derivative", "DesignError", "DgpConfig",
    "DidResult", "DomainError", "EventStudyResult", "IntegrationError", "IsoContour",
    "ModelError", "ModelParams", "Panel", "ParameterError", "PhasePortrait", "QState",
    "RankDeficiencyError", "RegimeError", "RenderSpec", "SearchError", "SensitivityReport",
    "ShockResult", "State", "SteadyState", "SweepGrid", "ThresholdCurve", "Trajectory",
    "band_free_intervals", "baseline_params", "classify_equilibrium", "core", "csvcells",
    "did_fits", "dynamics", "empirics", "errors", "event_study", "firm_steady_state",
    "generate_panel", "grid_sweep", "integrate", "interest_rate", "investment_rate",
    "iso_equilibrium_contour", "jacobian", "k_of_q", "nullclines", "output", "params",
    "phase_portrait", "q_dot", "qtheory", "read_panel_csv", "render_svg", "rhs",
    "saddle_path", "sensitivity_signs", "shock_experiment", "steady_state", "svgplot",
    "sweep", "threshold_curve", "twfe_did", "validate_params", "write_panel_csv",
]


def test_public_names_are_pinned():
    assert sorted(dataecon.__all__) == PUBLIC_NAMES
