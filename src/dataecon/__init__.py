"""Solver and simulator for a representative-agent data-economy growth model.

Output is produced with data as an input (a policy-set share theta of output
is converted to data, which raises technology with elasticity eta); the firm
prices capital through a q-theory investment problem, and the household side
yields a two-dimensional consumption-capital dynamical system with a
closed-form steady state.  The package computes those steady states, phase
portraits and saddle paths, (theta, eta) equilibrium surfaces with thresholds
and iso-contours, and includes a synthetic staggered difference-in-differences
harness for desk-scale estimator studies.
"""

__version__ = "0.1.0"

from .core import SteadyState, interest_rate, output, steady_state
from .dynamics import (Classification, PhasePortrait, ShockResult, State,
                       Trajectory, classify_equilibrium,
                       integrate, jacobian, nullclines, phase_portrait, rhs,
                       saddle_path, shock_experiment)
from .empirics import (DgpConfig, DidResult, EventStudyResult, Panel, did_fits,
                       event_study, generate_panel, read_panel_csv, twfe_did,
                       write_panel_csv)
from .errors import (ClassificationError, ConfigError, DegenerateError,
                     DesignError, DomainError, IntegrationError, ModelError,
                     ParameterError, RankDeficiencyError, RegimeError,
                     SearchError)
from .params import (BASELINE, DEFAULT_SINGULAR_BAND, ModelParams, baseline_params,
                     validate_params)
from .qtheory import QState, firm_steady_state, investment_rate, k_of_q, q_dot
from .sweep import (Derivative, IsoContour, SensitivityReport, SweepGrid,
                    ThresholdCurve, band_free_intervals, grid_sweep,
                    iso_equilibrium_contour, sensitivity_signs, threshold_curve)
from .svgplot import RenderSpec, render_svg

__all__ = [name for name in dir() if not name.startswith("_")]
