"""Synthetic staggered-adoption panels and two-way fixed-effects DID.

The generator builds balanced unit-year panels with additive unit and year
effects, controls, noise, and a treatment contribution that is either a
level shift from the adoption year onward or a per-relative-period dynamic
profile.  The estimator absorbs unit and year fixed effects by an exact
projection (within-unit demeaning, then one small solve for the year
effects), tests the rank of the projected design and solves it with one
pivoted QR (explicit dummies refit it by least squares as a cross-check),
and reports unit-clustered standard errors (CR1 small-sample scaling) from
that QR's triangle.  The design, the controls and the outcome share one
column-major buffer that the projection overwrites, and the tall QR runs on
row blocks of it.  Every design follows one rule: relative periods are
clipped to a window's ends, -1 is the reference, and each other period
whose bin holds a sample row gets a dummy; TWFE is the window (-1, 0).
``did_fits`` reads TWFE off the event study's projected design and
triangle, so one projection and one tall QR serve both fits.

Rows at relative period 0 (the adoption year itself) are excluded by
default, mirroring designs that drop the implementation period; the plain
TWFE estimand under heterogeneous timing carries the usual caveats and no
robust staggered estimator is attempted here.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass

import numpy as np

from .csvcells import (_CSV_CHUNK_ROWS, _PAD, _float_cells, _int_cells, _text_cells,
                       _write_rows)
from .errors import DesignError, DomainError, RankDeficiencyError

_DUMMY_MAX_CELLS = 5e7  # doubles in the dense dummies oracle (400 MB)
_QR_BLOCK_ROWS = 1024  # rows per block of the tall QR (90 KB at 11 columns)


@dataclass(frozen=True)
class DgpConfig:
    """Data-generating process for a synthetic city-year panel.

    ``dynamic_profile[i]`` is the outcome effect at relative period i
    (adoption year = 0); periods beyond the profile hold its last value and
    pre-adoption periods are untreated, so the reference period -1 carries
    no effect by construction.  ``effect`` is the homogeneous level shift
    used when no profile is given.  A panel of more than ``_DUMMY_MAX_CELLS``
    cells (rows times 4 + controls columns) is refused before it is drawn.
    """

    n_units: int = 200
    years: tuple[int, int] = (2000, 2019)
    share_treated: float = 0.5
    adoption_years: tuple[int, ...] | None = None
    unit_effect_scale: float = 1.0
    year_effect_scale: float = 1.0
    noise_scale: float = 1.0
    effect: float = 0.0
    dynamic_profile: tuple[float, ...] | None = None
    control_coefs: tuple[float, ...] = ()
    seed: int = 0

    def __post_init__(self):
        for name in ("years", "adoption_years"):
            values = getattr(self, name) or ()
            if not all(isinstance(v, (int, np.integer)) for v in values):
                raise DomainError(f"{name} must be integers, got {values}")
        y0, y1 = self.years
        if self.n_units < 2 or y1 < y0:
            raise DomainError("need at least 2 units and a nonempty year span")
        cells = int(self.n_units) * (int(y1) - int(y0) + 1) * (4 + len(self.control_coefs))
        if cells > _DUMMY_MAX_CELLS:
            raise DomainError(f"panel would hold {cells} cells (limit {_DUMMY_MAX_CELLS:.0f})")
        if not 0.0 <= self.share_treated <= 1.0:
            raise DomainError(f"share_treated must lie in [0, 1], got {self.share_treated}")
        for name in ("unit_effect_scale", "year_effect_scale", "noise_scale"):
            if not getattr(self, name) >= 0.0:
                raise DomainError(f"{name} must be nonnegative, got {getattr(self, name)}")
        if not self.seed >= 0:
            raise DomainError(f"seed must be nonnegative, got {self.seed}")
        if self.dynamic_profile is not None and len(self.dynamic_profile) == 0:
            raise DomainError("dynamic_profile must be nonempty when given")
        if self.adoption_years is not None:
            if len(self.adoption_years) == 0:
                raise DomainError("adoption_years must be nonempty when given")
            if min(self.adoption_years) < y0:
                raise DomainError("adoption years must not precede the span start")

    def _effect_at(self, rel: np.ndarray) -> np.ndarray:
        """The treatment effect on rows at relative periods ``rel`` (NaN for
        never-treated rows): none before adoption, then ``effect`` or the
        profile."""
        treated = rel >= 0  # NaN compares False
        effect = np.zeros(len(rel))
        if self.dynamic_profile is not None:
            profile = np.asarray(self.dynamic_profile, dtype=float)
            idx = np.clip(rel[treated].astype(int), 0, len(profile) - 1)
            effect[treated] = profile[idx]
        else:
            effect[treated] = self.effect
        return effect

    def true_att(self, panel: Panel, drop_adoption_period: bool = True) -> float:
        """The mean effect over the panel's treated rows in the DID estimation
        sample (without relative period 0 when the adoption year is
        dropped); ``effect`` itself when no profile is given."""
        if self.dynamic_profile is None:
            return self.effect
        _, rel = _estimation_sample(panel, drop_adoption_period)
        return float(self._effect_at(rel)[rel >= 0].mean())


def _whole(values: np.ndarray) -> bool:
    """Every value is a finite whole number, as the panel CSV writes it."""
    if values.dtype.kind in "iu":
        return True
    return bool(np.all(np.isfinite(values) & (values == np.round(values))))


def _in_int64(values: np.ndarray) -> bool:
    """Every value lies in int64's range, in which the panel CSV writes ids."""
    return not values.size or (-2 ** 63 <= values.min().item()
                               and values.max().item() < 2 ** 63)


@dataclass(frozen=True)
class Panel:
    """City-year rows with optional staggered adoption and controls.
    ``outcome`` and ``controls`` must be finite, and ``unit``, ``year`` and
    ``adoption_year`` (NaN: never treated) whole numbers in int64's range."""

    unit: np.ndarray
    year: np.ndarray
    outcome: np.ndarray
    adoption_year: np.ndarray  # NaN marks never-treated
    controls: np.ndarray  # shape (n_rows, n_controls)
    control_names: tuple[str, ...]

    def __post_init__(self):
        n = len(self.unit)
        if not (len(self.year) == len(self.outcome) == len(self.adoption_year)
                == self.controls.shape[0] == n):
            raise DomainError("panel columns must have equal length")
        if self.controls.ndim != 2 or self.controls.shape[1] != len(self.control_names):
            raise DomainError(f"controls of shape {self.controls.shape} need 2 dimensions and "
                              f"one column per name ({len(self.control_names)} names)")
        if n == 0:
            raise DomainError("panel has no rows")
        for name, values in (("outcome", self.outcome), ("control", self.controls)):
            if not np.all(np.isfinite(values)):
                raise DomainError(f"{name} values must be finite")
        adopt = self.adoption_year[~np.isnan(self.adoption_year)]
        for name, values in (("unit", self.unit), ("year", self.year), ("adoption_year", adopt)):
            if not _whole(values):
                raise DomainError(f"{name} values must be whole numbers")
            if not _in_int64(values):
                raise DomainError(f"{name} values must lie in [-2**63, 2**63)")
        order = np.lexsort((self.year, self.unit))
        unit, year = self.unit[order], self.year[order]
        if np.any((unit[1:] == unit[:-1]) & (year[1:] == year[:-1])):
            raise DomainError("duplicate (unit, year) rows")
        start = int(self.year.min())
        if adopt.size and adopt.min() < start:
            raise DomainError("adoption years must not precede the span start")

    @property
    def n_units(self) -> int:
        return len(np.unique(self.unit))

    @property
    def year_span(self) -> tuple[int, int]:
        return int(self.year.min()), int(self.year.max())

    def relative_period(self) -> np.ndarray:
        """year - adoption_year; NaN for never-treated rows."""
        return self.year - self.adoption_year


@dataclass(frozen=True)
class DidResult:
    att: float
    se: float
    n_obs: int
    n_units_absorbed: int
    n_years_absorbed: int


@dataclass(frozen=True)
class EventStudyResult:
    """Relative-period coefficients with the -1 reference fixed at zero.

    Periods are contiguous over the requested window; endpoints bin all
    more-extreme periods.  A NaN coefficient and standard error mark a
    period whose bin holds no row of the estimation sample: relative period
    0 when the adoption year is dropped, or one the panel's span misses.
    """

    periods: np.ndarray
    coefficients: np.ndarray
    std_errors: np.ndarray
    n_obs: int
    n_units_absorbed: int = 0
    n_years_absorbed: int = 0


def generate_panel(cfg: DgpConfig) -> Panel:
    """Draw one synthetic panel; deterministic for a given seed."""
    rng = np.random.default_rng(cfg.seed)
    y0, y1 = cfg.years
    years = np.arange(y0, y1 + 1)
    n_units, n_years = cfg.n_units, len(years)

    unit_fx = rng.normal(0.0, cfg.unit_effect_scale, n_units)
    year_fx = rng.normal(0.0, cfg.year_effect_scale, n_years)

    n_treated = int(round(cfg.share_treated * n_units))
    treated_units = rng.permutation(n_units)[:n_treated]
    if cfg.adoption_years is not None:
        pool = np.asarray(cfg.adoption_years)
    else:
        lo = y0 + n_years // 4
        hi = y0 + (3 * n_years) // 4
        pool = np.arange(lo, max(hi, lo + 1))
    adoption = np.full(n_units, np.nan)
    adoption[treated_units] = rng.choice(pool, size=n_treated)

    unit_col = np.repeat(np.arange(n_units), n_years)
    year_col = np.tile(years, n_units)
    adopt_col = adoption[unit_col]

    m = len(cfg.control_coefs)
    controls = rng.normal(0.0, 1.0, (n_units * n_years, m)) if m else np.empty((n_units * n_years, 0))
    noise = rng.normal(0.0, 1.0, n_units * n_years) * cfg.noise_scale

    with np.errstate(over="ignore", invalid="ignore"):  # Panel refuses what overflows
        outcome = (unit_fx[unit_col] + year_fx[year_col - y0]
                   + controls @ np.asarray(cfg.control_coefs, dtype=float)
                   + cfg._effect_at(year_col - adopt_col) + noise)
    names = tuple(f"control_{i + 1}" for i in range(m))
    return Panel(unit_col, year_col, outcome, adopt_col, controls, names)


def _two_way_demean(mat: np.ndarray, unit_idx: np.ndarray, year_idx: np.ndarray) -> np.ndarray:
    """Project unit and year fixed effects out of every column, exactly.

    Demeans within units, then removes the remaining year effects b by one
    least-squares solve of ``A b = Y'x`` with ``A = diag(year counts) -
    C' diag(1/unit counts) C``, C the unit-by-year count table (Wansbeek &
    Kapteyn 1989); the min-norm solution covers disconnected panels.  The
    factors swap roles when units are fewer, so A is on the shorter one.
    A is a dense m x m matrix, m the shorter factor's length, and its SVD
    solve costs O(m^3): nothing at 23 years, about 1 s on a sparse
    6,000-row panel of some 1,500 units and 1,500 years.
    ``mat`` must be a float array, best column-major: it is overwritten
    with the projection and returned, so no copy of the design is made.
    Raises DesignError, before anything is allocated, when C or the m x m
    arrays of the solve would exceed the dummies oracle's cell bound.
    """
    n_u = int(unit_idx.max()) + 1
    n_y = int(year_idx.max()) + 1
    if n_u < n_y:
        unit_idx, year_idx, n_u, n_y = year_idx, unit_idx, n_y, n_u
    if n_u * n_y > _DUMMY_MAX_CELLS:
        raise DesignError(f"two-way count table would hold {n_u * n_y} cells "
                          f"(limit {_DUMMY_MAX_CELLS:.0f})")
    # At most three m x m arrays at once: A is built from two (the diagonal
    # and the product), and lstsq holds A, its own copy of A and an SVD
    # workspace of about 140 m doubles, under m^2 for m above 140.
    if 3 * n_y * n_y > _DUMMY_MAX_CELLS:
        raise DesignError(f"two-way {n_y} x {n_y} system and its solve would hold "
                          f"{3 * n_y * n_y} cells (limit {_DUMMY_MAX_CELLS:.0f})")
    # C as floats, then scaled in place to C / sqrt(unit counts): one table
    counts = np.bincount(unit_idx * n_y + year_idx, weights=np.ones(len(unit_idx)),
                         minlength=n_u * n_y).reshape(n_u, n_y)
    u_counts = counts.sum(axis=1)
    system = np.diag(counts.sum(axis=0))
    counts /= np.sqrt(u_counts)[:, None]
    system -= counts.T @ counts
    year_sums = np.empty((n_y, mat.shape[1]))
    for j in range(mat.shape[1]):
        col = mat[:, j]
        col -= (np.bincount(unit_idx, weights=col, minlength=n_u) / u_counts)[unit_idx]
        year_sums[:, j] = np.bincount(year_idx, weights=col, minlength=n_y)
    year_fx = np.linalg.lstsq(system, year_sums, rcond=1e-10)[0]
    # unit means of year_fx[year_idx], read off the count table
    unit_fx = (counts @ year_fx) / np.sqrt(u_counts)[:, None]
    for j in range(mat.shape[1]):
        mat[:, j] -= year_fx[:, j][year_idx] - unit_fx[:, j][unit_idx]
    return mat


def _dummy_design(x: np.ndarray, unit_idx: np.ndarray, year_idx: np.ndarray):
    """Explicit unit and year dummies (one year dropped), for cross-checks."""
    n_u = unit_idx.max() + 1
    n_y = year_idx.max() + 1
    n = len(unit_idx)
    cells = n * (x.shape[1] + n_u + n_y - 1)
    if cells > _DUMMY_MAX_CELLS:
        raise DesignError(f"dense dummy design would hold {cells} cells "
                          f"(limit {_DUMMY_MAX_CELLS:.0f}); use method='within'")
    d_unit = np.zeros((n, n_u))
    d_unit[np.arange(n), unit_idx] = 1.0
    d_year = np.zeros((n, n_y - 1))
    keep = year_idx > 0
    d_year[np.arange(n)[keep], year_idx[keep] - 1] = 1.0
    return np.hstack([x, d_unit, d_year])


def _clustered_se(x_cols, resid: np.ndarray, clusters: np.ndarray,
                  n_absorbed: int, r_inv: np.ndarray) -> np.ndarray:
    """CR1 cluster-robust standard errors of the coefficients on the
    columns ``x_cols`` (an n x q array's transpose, or a list of n-vectors).

    The scores ``x_j * resid`` are summed per cluster one column at a time
    into the n_c x q S, so no n x q score matrix is formed.  The bread
    (x'x)^-1 is ``r_inv @ r_inv.T``, from the fit's own triangle
    (``_triangle_solve``), and the covariance is dof B'B with B = S (x'x)^-1:
    neither x'x, which squares the condition number, nor S'S is formed.
    Fewer than three clusters raise DesignError: two clusters' scores sum
    to zero, so both are zero up to rounding and the standard error with
    them.
    """
    n, q = len(resid), len(x_cols)
    n_c = int(clusters.max()) + 1
    if n_c < 3:
        raise DesignError(f"{n_c} clusters give no usable cluster-robust standard "
                          f"error; need at least 3")
    cluster_scores = np.empty((n_c, q))
    for j, col in enumerate(x_cols):
        cluster_scores[:, j] = np.bincount(clusters, weights=col * resid, minlength=n_c)
    b = cluster_scores @ (r_inv @ r_inv.T)
    dof = (n_c / (n_c - 1)) * ((n - 1) / max(n - q - n_absorbed, 1))
    return np.sqrt(dof * (b * b).sum(axis=0))


def _pivoted_qr(a: np.ndarray) -> tuple[np.ndarray, np.ndarray, list[int]]:
    """Householder QR with column pivoting (Businger & Golub 1965) of the
    first k columns of the k x (k+1) ``a``, the reflectors applied to the
    last column too: the pivoted triangle R, Q' times the last column, and
    the pivot order.  Each step takes the column of largest norm below the
    reduced rows (the lowest index on a tie), recomputing the norms where
    LAPACK's dgeqp3 downdates them: one small product, and no cancellation
    to guard against.  A pivoted column stays in place, zero below its
    step, so later reflectors leave it as it is.  A column is reflected
    whenever a value below its step is nonzero: a tail below
    sqrt(eps)|alpha| leaves the squared norm at alpha^2 yet holds the last
    pivot of a near copy.
    """
    a = a.copy()
    k = a.shape[0]
    rest, piv = list(range(k)), []
    for i in range(k):
        sq = np.einsum("ij,ij->j", a[i:, :k], a[i:, :k]).tolist()
        p = max(rest, key=sq.__getitem__)
        rest.remove(p)
        piv.append(p)
        u = a[i:, p]
        alpha = beta = a.item(i, p)
        if sq[p] and u[1:].any():  # else reduced, or too small to square
            beta = -math.copysign(math.sqrt(sq[p]), alpha)
            u[0] = alpha - beta  # u is now the reflector's vector
            # H = I - 2 u u' / u'u, and u'u = 2 beta (beta - alpha)
            a[i:] -= u[:, None] * (u.dot(a[i:]) * (1.0 / (beta * (beta - alpha))))
        u[1:] = 0.0
        a[i, p] = beta
    return a[:, piv], a[:, k], piv


def _tall_triangle(xy: np.ndarray) -> np.ndarray:
    """The (k+1) x (k+1) triangle R of an unpivoted QR of the n x (k+1)
    ``xy``, zero rows padding a design of fewer rows.

    numpy's QR runs on blocks of ``_QR_BLOCK_ROWS`` rows, and one more QR
    reduces their stacked triangles to the triangle of the whole (TSQR;
    Demmel, Grigori, Hoemmen & Langou 2012), so LAPACK's two copies of its
    input are of one block, not of the design.  A block of 1,024 rows stays
    in L2; a 216 x 23 panel's design of about 4,750 rows spans five.  A
    design of one block is factored as it is; above it, R moves by
    rounding only.
    """
    n, k1 = xy.shape
    blocks = [np.linalg.qr(xy[i:i + _QR_BLOCK_ROWS], mode="r")
              for i in range(0, n, _QR_BLOCK_ROWS)]
    r = blocks[0] if len(blocks) == 1 else np.linalg.qr(np.vstack(blocks), mode="r")
    r_aug = np.zeros((k1, k1))
    r_aug[:len(r)] = r
    return r_aug


def _triangle_solve(r_aug: np.ndarray, names: list[str]) -> tuple[np.ndarray, np.ndarray]:
    """Least squares of y on x from the (k+1) x (k+1) triangle ``[R Q'y]``
    of an unpivoted QR of ``[x y]``, by a column-pivoted QR of R;
    RankDeficiencyError names the columns whose pivots fall below 1e-10 of
    the largest.  Returns the coefficients and R^-1 of the pivoted triangle
    with its rows in x's column order: x = Q R P', so (x'x)^-1 =
    (P R^-1)(P R^-1)', and ``r_inv`` is P R^-1.

    R has x's Gram matrix and so x's pivots, and ``_pivoted_qr`` pivots
    only R, a loop of k small steps.
    """
    k = r_aug.shape[1] - 1
    r, qty, piv = _pivoted_qr(r_aug[:k])
    diag = np.abs(np.diag(r))
    ref = diag[0] if diag.size else 0.0
    bad = [names[piv[i]] for i in range(len(diag))
           if diag[i] <= 1e-10 * max(ref, 1.0)]
    if bad:
        raise RankDeficiencyError(
            f"design is rank deficient after absorbing fixed effects; "
            f"offending columns: {', '.join(sorted(set(bad)))}", columns=bad)
    beta = np.empty(k)
    beta[piv] = np.linalg.solve(r, qty)  # r is its own LU: back substitution
    r_inv = np.empty((k, k))
    r_inv[piv] = np.linalg.inv(r)
    return beta, r_inv


def _estimation_sample(panel: Panel, drop_adoption_period: bool):
    """The rows of the DID estimation sample (all rows, or all but relative
    period 0) and their relative periods; DesignError when no row is treated."""
    rel = panel.relative_period()
    keep = (rel != 0) | (not drop_adoption_period)
    rel = rel[keep]
    if not (rel >= 0).any():
        raise DesignError("no treated observations in the estimation sample")
    return keep, rel


def _design(panel: Panel, drop_adoption_period: bool, window: tuple[int, int]):
    """The one DID design: the estimation sample's column-major buffer
    ``[x y]``, x the dummies of the periods of ``window`` whose bins hold a
    sample row (TWFE's window (-1, 0) gives ``treated_post``), then the
    controls, with its unit and year codes.  A sample without untreated
    rows raises DesignError: its dummies would sum to the unit effects.

    Each control and y is scaled by 2^-e once the buffer is filled, e the
    binary exponent of the column's largest magnitude (0 for an all-zero
    column).  A power of two scales exactly, every fitted number is linear
    in y, and a control's scale moves only its own coefficient: y at most
    1 in magnitude keeps the squares of its cluster scores in range, and
    the pivots and the rank test see no column above 1 in magnitude.
    Returns the buffer, the periods with a dummy, x's column names, each
    column's e (0 for the dummies) and the codes.
    """
    keep, rel = _estimation_sample(panel, drop_adoption_period)
    if (rel >= 0).all():
        raise DesignError("no untreated observations in the estimation sample")
    unit_idx = np.unique(panel.unit[keep], return_inverse=True)[1]
    year_idx = np.unique(panel.year[keep], return_inverse=True)[1]
    binned = np.clip(rel, *window)  # NaN stays NaN: no dummy is set
    dummies = {t: binned == t for t in range(window[0], window[1] + 1) if t != -1}
    periods = [t for t, col in dummies.items() if col.any()]
    names = ["treated_post"] if window == (-1, 0) else [f"rel_{t}" for t in periods]
    columns = [*map(dummies.get, periods), *panel.controls[keep].T, panel.outcome[keep]]
    xy = np.empty((len(rel), len(columns)), order="F")  # the one design buffer
    for j, col in enumerate(columns):
        xy[:, j] = col
    exps = np.zeros(len(columns), dtype=int)
    for j in range(len(periods), len(columns)):
        col = xy[:, j]
        exps[j] = np.frexp(max(col.max(), -col.min()))[1]
        np.ldexp(col, -exps[j], out=col)
    return xy, periods, names + list(panel.control_names), exps, unit_idx, year_idx


def _estimate(panel: Panel, drop_adoption_period: bool, window: tuple[int, int],
              method: str, with_twfe: bool = False):
    """The DID fit of ``_design``'s buffer [x y], from one projection and
    its tall triangle R.  With ``with_twfe``, TWFE is fitted first from the
    same R: its ``treated_post`` is the sum of the dummies of periods 0 and
    up, as binning at the window's end covers every later period, and the
    projection is linear, so its projected [x y] is the buffer times M, M
    summing those columns and passing the controls and y, and its triangle
    is that of R M (Demmel, Grigori, Hoemmen & Langou 2012).  Returns the
    periods with a dummy, each fit's coefficients and CR1 standard errors,
    TWFE's first, then the row count and the absorbed unit and year
    counts."""
    if method not in ("within", "dummies"):
        raise DomainError(f"unknown method {method!r}; use 'within' or 'dummies'")
    xy, periods, names, exps, unit_idx, year_idx = _design(panel, drop_adoption_period, window)
    raw = xy.copy(order="F") if method == "dummies" else None
    xy = _two_way_demean(xy, unit_idx, year_idx)
    r_aug = _tall_triangle(xy)
    x_t, y_t = xy[:, :-1], xy[:, -1]
    n_u, n_y = int(unit_idx.max()) + 1, int(year_idx.max()) + 1
    fits = []
    if with_twfe:
        p = len(periods)
        m = np.zeros((len(r_aug), len(r_aug) - p + 1))
        m[:p, 0] = np.asarray(periods) >= 0
        m[p:, 1:] = np.eye(len(r_aug) - p)
        beta, r_inv = _triangle_solve(np.linalg.qr(r_aug @ m, mode="r"),
                                      ["treated_post", *names[p:]])
        cols = [x_t[:, :p] @ m[:p, 0], *x_t[:, p:].T]  # x M, the controls as views
        resid = y_t - x_t @ (m[:-1, :-1] @ beta)
        se = _clustered_se(cols, resid, unit_idx, n_u + n_y - 1, r_inv)
        fits.append((beta, se, np.r_[0, exps[p:]]))
        del cols, resid
    beta, r_inv = _triangle_solve(r_aug, names)
    resid = y_t - x_t @ beta
    if raw is not None:
        # oracle: refit on the explicit dummy design instead of the projection
        full = _dummy_design(raw[:, :-1], unit_idx, year_idx)
        beta_full, *_ = np.linalg.lstsq(full, raw[:, -1], rcond=None)
        beta, resid = beta_full[:len(beta)], raw[:, -1] - full @ beta_full
    se = _clustered_se(x_t.T, resid, unit_idx, n_u + n_y - 1, r_inv)
    fits.append((beta, se, exps))
    # back to the panel's units
    return (periods,
            [(np.ldexp(b, e[-1] - e[:-1]), np.ldexp(s, e[-1] - e[:-1])) for b, s, e in fits],
            (len(xy), n_u, n_y))


def _event_result(window: tuple[int, int], periods: list[int], beta: np.ndarray,
                  se: np.ndarray, sizes) -> EventStudyResult:
    """The event study over ``window``: the fitted coefficients and
    standard errors at ``periods``, zero at the reference -1 and NaN at
    every other period."""
    all_periods = np.arange(window[0], window[1] + 1)
    fitted = np.full((2, len(all_periods)), np.nan)  # coefficients, standard errors
    fitted[:, -1 - window[0]] = 0.0
    fitted[:, np.asarray(periods) - window[0]] = beta[:len(periods)], se[:len(periods)]
    return EventStudyResult(all_periods, *fitted, *sizes)


def twfe_did(panel: Panel, drop_adoption_period: bool = True,
             method: str = "within") -> DidResult:
    """Two-way fixed-effects DID on the treated-and-post indicator.

    Absorbs unit and year fixed effects, estimates by least squares on the
    projected design, and clusters standard errors by unit.
    """
    _, [(beta, se)], sizes = _estimate(panel, drop_adoption_period, (-1, 0), method)
    return DidResult(float(beta[0]), float(se[0]), *sizes)


def event_study(panel: Panel, window: tuple[int, int] = (-5, 5),
                drop_adoption_period: bool = True,
                method: str = "within") -> EventStudyResult:
    """Dynamic DID with relative-period indicators, reference period -1.

    Periods beyond the window endpoints are binned into the endpoints.  The
    window must cover at least -2..+2.
    """
    w_lo, w_hi = int(window[0]), int(window[1])
    if w_lo > -2 or w_hi < 2:
        raise DomainError(f"window must cover periods -2..+2, got {window}")
    window = (w_lo, w_hi)
    periods, [(beta, se)], sizes = _estimate(panel, drop_adoption_period, window, method)
    return _event_result(window, periods, beta, se, sizes)


def did_fits(panel: Panel,
             drop_adoption_period: bool = True) -> tuple[DidResult, EventStudyResult]:
    """``twfe_did`` and ``event_study`` (window (-5, 5), method 'within')
    from one design, one projection and one tall QR.

    ``_estimate`` reads TWFE off the event study's projected design and
    triangle.  The event study is bit for bit ``event_study``'s, and TWFE
    moves from ``twfe_did``'s by rounding.  TWFE is fitted first, so errors
    come as from ``twfe_did`` followed by ``event_study``.
    """
    periods, [(tw_beta, tw_se), (beta, se)], sizes = _estimate(
        panel, drop_adoption_period, (-5, 5), "within", with_twfe=True)
    return (DidResult(float(tw_beta[0]), float(tw_se[0]), *sizes),
            _event_result((-5, 5), periods, beta, se, sizes))


# Panel CSV schema: unit,year,outcome,adoption_year,control_1..control_m
# with an empty adoption_year for never-treated rows.
def write_panel_csv(panel: Panel, path) -> None:
    """Write the panel in blocks of ``_CSV_CHUNK_ROWS`` rows, each column of
    a block formatted at once (17-digit floats)."""
    header = ["unit", "year", "outcome", "adoption_year", *panel.control_names]
    with open(path, "wb") as fh:
        _write_rows(fh, [_text_cells([name]) for name in header])
        for start in range(0, len(panel.unit), _CSV_CHUNK_ROWS):
            rows = slice(start, start + _CSV_CHUNK_ROWS)
            adopt = panel.adoption_year[rows]
            never = np.isnan(adopt)
            adopt_cells = _int_cells(np.where(never, 0, adopt).astype(np.int64))
            adopt_cells[never] = _PAD
            _write_rows(fh, [
                _int_cells(panel.unit[rows].astype(np.int64)),
                _int_cells(panel.year[rows].astype(np.int64)),
                _float_cells(panel.outcome[rows]),
                adopt_cells,
                *(_float_cells(col) for col in panel.controls[rows].T)])


def read_panel_csv(path) -> Panel:
    """Read a panel CSV of the schema above.  DomainError names the 1-based
    line of a missing header, of a row with more or fewer cells than the
    header, and of a cell that does not parse as an integer (unit, year) or
    a float (the rest; an empty adoption_year is never-treated)."""
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None:
            raise DomainError("panel CSV line 1: no header")
        if header[:4] != ["unit", "year", "outcome", "adoption_year"]:
            raise DomainError(f"unexpected panel header: {header[:4]}")
        names = tuple(header[4:])
        units, years, outcomes, adopts, ctrls = [], [], [], [], []
        for row in reader:
            if len(row) != len(header):
                raise DomainError(f"panel CSV line {reader.line_num}: {len(row)} cells "
                                  f"under a header of {len(header)}")
            try:
                units.append(int(row[0]))
                years.append(int(row[1]))
                outcomes.append(float(row[2]))
                adopts.append(float(row[3]) if row[3] != "" else math.nan)
                ctrls.append([float(v) for v in row[4:]])
            except ValueError as exc:
                raise DomainError(f"panel CSV line {reader.line_num}: {exc}") from None
    n = len(units)
    controls = np.asarray(ctrls, dtype=float).reshape(n, len(names))
    return Panel(np.asarray(units), np.asarray(years), np.asarray(outcomes),
                 np.asarray(adopts), controls, names)
