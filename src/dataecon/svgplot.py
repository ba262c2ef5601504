"""Self-contained deterministic SVG renderers.

No external assets, no plotting library: every figure is assembled from
fixed-format strings, so identical inputs produce byte-identical documents.
A heatmap is one embedded PNG with one pixel per grid cell, coloured by one
vectorized ramp.  Its deflate stream is written as stored (uncompressed)
blocks, so its bytes do not depend on the zlib build; the image is clipped
to the plot frame, so the edge cells show at full width up to the frame.
"""

from __future__ import annotations

import binascii
import math
import struct
import zlib
from dataclasses import dataclass

import numpy as np

from .dynamics import PhasePortrait, ShockResult
from .empirics import EventStudyResult
from .errors import DomainError
from .sweep import IsoContour, SweepGrid

# Anchors of a dark-to-light perceptual ramp (viridis-like).
_VIRIDIS = (
    (0.267, 0.005, 0.329), (0.283, 0.141, 0.458), (0.254, 0.265, 0.530),
    (0.207, 0.372, 0.553), (0.164, 0.471, 0.558), (0.128, 0.567, 0.551),
    (0.135, 0.659, 0.518), (0.267, 0.749, 0.441), (0.478, 0.821, 0.318),
    (0.741, 0.873, 0.150), (0.993, 0.906, 0.144),
)


@dataclass(frozen=True)
class RenderSpec:
    """Figure kind plus canvas geometry."""

    kind: str  # 'surface-heatmap' | 'contour' | 'phase' | 'event-study'
    width: int = 720
    height: int = 540
    x_range: tuple[float, float] | None = None
    y_range: tuple[float, float] | None = None

    def __post_init__(self):
        if self.width <= 0 or self.height <= 0:
            raise DomainError("render dimensions must be positive")
        for rng in (self.x_range, self.y_range):
            if rng is not None:
                _check_range(rng)


def _check_range(rng) -> None:
    if not rng[1] > rng[0]:
        raise DomainError(f"empty axis range {rng}")


_MARGIN = 56.0


def _fmt(v: float) -> str:
    return "%.2f" % v


def _ramp(t) -> np.ndarray:
    """``(n, 3)`` uint8 RGB of the values ``t`` (clipped to [0, 1]) on the
    viridis ramp; channels round half to even, like Python's ``round``."""
    stops = np.asarray(_VIRIDIS)
    x = np.clip(t, 0.0, 1.0) * (len(stops) - 1)
    i = np.minimum(x.astype(int), len(stops) - 2)
    f = (x - i)[:, None]
    return np.rint(255 * (stops[i] + f * (stops[i + 1] - stops[i]))).astype(np.uint8)


def _color(t: float) -> str:
    return "#%02x%02x%02x" % tuple(_ramp(np.array([t]))[0].tolist())


class _Canvas:
    def __init__(self, spec: RenderSpec, x_range, y_range, title: str,
                 x_label: str, y_label: str):
        self.spec = spec
        self.x0, self.x1 = x_range
        self.y0, self.y1 = y_range
        self.px0, self.px1 = _MARGIN, spec.width - 18.0
        self.py0, self.py1 = spec.height - _MARGIN, 30.0
        self.frame = (f'x="{_fmt(self.px0)}" y="{_fmt(self.py1)}" '
                      f'width="{_fmt(self.px1 - self.px0)}" height="{_fmt(self.py0 - self.py1)}"')
        self.parts = [
            '<?xml version="1.0" encoding="UTF-8"?>\n'
            f'<svg xmlns="http://www.w3.org/2000/svg" width="{spec.width}" '
            f'height="{spec.height}" viewBox="0 0 {spec.width} {spec.height}">\n',
            f'<rect x="0" y="0" width="{spec.width}" height="{spec.height}" fill="white"/>\n',
            f'<text x="{_fmt(spec.width / 2)}" y="20" text-anchor="middle" '
            f'font-family="monospace" font-size="13">{title}</text>\n',
        ]
        self._axes(x_label, y_label)

    def px(self, x: float) -> float:
        return self.px0 + (x - self.x0) / (self.x1 - self.x0) * (self.px1 - self.px0)

    def py(self, y: float) -> float:
        return self.py0 + (y - self.y0) / (self.y1 - self.y0) * (self.py1 - self.py0)

    def _axes(self, x_label, y_label):
        p = self.parts
        p.append(f'<rect {self.frame} fill="none" stroke="black" stroke-width="1"/>\n')
        for i in range(5):
            xv = self.x0 + i * (self.x1 - self.x0) / 4
            yv = self.y0 + i * (self.y1 - self.y0) / 4
            xp, yp = self.px(xv), self.py(yv)
            p.append(f'<line x1="{_fmt(xp)}" y1="{_fmt(self.py0)}" x2="{_fmt(xp)}" '
                     f'y2="{_fmt(self.py0 + 4)}" stroke="black" stroke-width="1"/>\n')
            p.append(f'<text x="{_fmt(xp)}" y="{_fmt(self.py0 + 16)}" text-anchor="middle" '
                     f'font-family="monospace" font-size="10">{xv:.3g}</text>\n')
            p.append(f'<line x1="{_fmt(self.px0 - 4)}" y1="{_fmt(yp)}" x2="{_fmt(self.px0)}" '
                     f'y2="{_fmt(yp)}" stroke="black" stroke-width="1"/>\n')
            p.append(f'<text x="{_fmt(self.px0 - 6)}" y="{_fmt(yp + 3)}" text-anchor="end" '
                     f'font-family="monospace" font-size="10">{yv:.3g}</text>\n')
        p.append(f'<text x="{_fmt((self.px0 + self.px1) / 2)}" y="{_fmt(self.py0 + 32)}" '
                 f'text-anchor="middle" font-family="monospace" font-size="11">{x_label}</text>\n')
        p.append(f'<text x="14" y="{_fmt((self.py0 + self.py1) / 2)}" text-anchor="middle" '
                 f'font-family="monospace" font-size="11" transform="rotate(-90 14 '
                 f'{_fmt((self.py0 + self.py1) / 2)})">{y_label}</text>\n')

    def polyline(self, xs, ys, color: str, width: float = 1.5, dash: str | None = None):
        if len(xs) == 0:
            return
        pts = " ".join(f"{_fmt(self.px(x))},{_fmt(self.py(y))}" for x, y in zip(xs, ys))
        d = f' stroke-dasharray="{dash}"' if dash else ""
        self.parts.append(f'<polyline points="{pts}" fill="none" stroke="{color}" '
                          f'stroke-width="{width}"{d}/>\n')

    def marker(self, x, y, color: str, r: float = 4.0, label: str | None = None):
        self.parts.append(f'<circle cx="{_fmt(self.px(x))}" cy="{_fmt(self.py(y))}" '
                          f'r="{r}" fill="{color}" stroke="black" stroke-width="0.8"/>\n')
        if label:
            self.parts.append(f'<text x="{_fmt(self.px(x) + 7)}" y="{_fmt(self.py(y) - 6)}" '
                              f'font-family="monospace" font-size="11">{label}</text>\n')

    def arrow(self, x, y, dx, dy, color: str = "#777777"):
        x1, y1 = self.px(x), self.py(y)
        x2, y2 = self.px(x + dx), self.py(y + dy)
        self.parts.append(f'<line x1="{_fmt(x1)}" y1="{_fmt(y1)}" x2="{_fmt(x2)}" '
                          f'y2="{_fmt(y2)}" stroke="{color}" stroke-width="1"/>\n')
        ang = math.atan2(y2 - y1, x2 - x1)
        for rot in (2.6, -2.6):
            hx = x2 + 4.0 * math.cos(ang + rot)
            hy = y2 + 4.0 * math.sin(ang + rot)
            self.parts.append(f'<line x1="{_fmt(x2)}" y1="{_fmt(y2)}" x2="{_fmt(hx)}" '
                              f'y2="{_fmt(hy)}" stroke="{color}" stroke-width="1"/>\n')

    def finish(self) -> str:
        self.parts.append("</svg>\n")
        return "".join(self.parts)


def _step(name: str, axis) -> float:
    """Mean step of an axis of two or more points.  An image has equal
    cells, so steps off the mean by more than 1e-9 of it are refused."""
    _check_range((float(axis[0]), float(axis[-1])))
    step = (float(axis[-1]) - float(axis[0])) / (len(axis) - 1)
    if np.max(np.abs(np.diff(axis) - step)) > 1e-9 * step:
        raise DomainError(f"heatmap {name} axis is not evenly spaced")
    return step


def _chunk(tag: bytes, data: bytes) -> bytes:
    return struct.pack(">I", len(data)) + tag + data + struct.pack(">I", zlib.crc32(tag + data))


def _png(rgb: np.ndarray) -> bytes:
    """8-bit RGB PNG of an ``(h, w, 3)`` uint8 array.  Its zlib stream is
    stored deflate blocks, so the bytes do not depend on the zlib build."""
    h, w, _ = rgb.shape
    raw = np.insert(rgb.reshape(h, 3 * w), 0, 0, axis=1).tobytes()  # row filter 0
    z = [b"\x78\x01"]
    for at in range(0, len(raw), 0xFFFF):
        block = raw[at:at + 0xFFFF]
        z += [struct.pack("<BHH", at + 0xFFFF >= len(raw), len(block), len(block) ^ 0xFFFF),
              block]
    z.append(struct.pack(">I", zlib.adler32(raw)))
    return (b"\x89PNG\r\n\x1a\n" + _chunk(b"IHDR", struct.pack(">IIBBBBB", w, h, 8, 2, 0, 0, 0))
            + _chunk(b"IDAT", b"".join(z)) + _chunk(b"IEND", b""))


def render_heatmap(grid: SweepGrid, variable: str, spec: RenderSpec) -> str:
    """2-D heatmap of one equilibrium variable over evenly spaced axes, one
    pixel per cell; masked cells are gray.

    Values spanning more than three decades are colored on a log10 scale.
    """
    tx, ey = grid.theta_axis, grid.eta_axis
    dx, dy = _step("theta", tx), _step("eta", ey)
    vals = grid.values(variable)
    ok = np.isfinite(vals)
    finite = vals[ok]
    with np.errstate(over="ignore"):  # a ratio past float64 is past 1e3 too
        log_scale = (finite.size > 0 and np.all(finite > 0)
                     and finite.max() / max(finite.min(), 1e-300) > 1e3)
    norm = np.log10(finite) if log_scale else finite
    lo = float(norm.min()) if norm.size else 0.0
    hi = float(norm.max()) if norm.size else 1.0
    span = (hi - lo) or 1.0
    rgb = np.full(vals.shape + (3,), 0xBB, np.uint8)  # masked cells: #bbbbbb
    rgb[ok] = _ramp((norm - lo) / span)
    png = _png(rgb.transpose(1, 0, 2)[::-1])  # rows: eta, largest first

    xr = spec.x_range or (float(tx[0]), float(tx[-1]))
    yr = spec.y_range or (float(ey[0]), float(ey[-1]))
    scale_tag = "log10" if log_scale else "linear"
    cv = _Canvas(spec, xr, yr, f"{variable} ({scale_tag} color scale)",
                 "theta", "eta")
    x0, x1 = cv.px(tx[0] - dx / 2), cv.px(tx[-1] + dx / 2)
    y0, y1 = cv.py(ey[-1] + dy / 2), cv.py(ey[0] - dy / 2)
    cv.parts += [
        f'<clipPath id="frame"><rect {cv.frame}/></clipPath>\n',
        f'<image x="{_fmt(x0)}" y="{_fmt(y0)}" width="{_fmt(x1 - x0)}" '
        f'height="{_fmt(y1 - y0)}" preserveAspectRatio="none" '
        'style="image-rendering:pixelated" clip-path="url(#frame)" '
        f'href="data:image/png;base64,{binascii.b2a_base64(png, newline=False).decode()}"/>\n',
        f'<rect {cv.frame} fill="none" stroke="black" stroke-width="1"/>\n',
    ]
    return cv.finish()


def render_contour(contour: IsoContour, spec: RenderSpec) -> str:
    """One iso-level contour, every component, in the (theta, eta) plane."""
    cv = _Canvas(spec, spec.x_range or (0.0, 1.0), spec.y_range or (0.0, 1.0),
                 f"iso-{contour.variable} contours", "theta", "eta")
    color = _color(0.15)
    for comp in contour.components:
        if len(comp) == 1:  # a lone crossing row; a one-point polyline draws nothing
            cv.marker(comp[0, 0], comp[0, 1], color, r=2.0)
        else:
            cv.polyline(comp[:, 0], comp[:, 1], color, width=1.8)
    if len(contour.points):
        mid = contour.points[len(contour.points) // 2]
        cv.parts.append(f'<text x="{_fmt(cv.px(mid[0]) + 4)}" y="{_fmt(cv.py(mid[1]) - 4)}" '
                        f'font-family="monospace" font-size="10" fill="{color}">'
                        f'{contour.level:.4g}</text>\n')
    return cv.finish()


def _portrait_layers(cv: _Canvas, portrait: PhasePortrait, accent: str,
                     label: str, with_field: bool = True):
    if with_field and len(portrait.vector_field):
        field = portrait.vector_field
        span_x = cv.x1 - cv.x0
        span_y = cv.y1 - cv.y0
        mags = np.hypot(field[:, 3] / span_x, field[:, 2] / span_y)
        ref = float(np.percentile(mags[mags > 0], 80)) if np.any(mags > 0) else 1.0
        for k, c, dc, dk in field:
            m = math.hypot(dk / span_x, dc / span_y)
            if m == 0.0:
                continue
            g = min(m / ref, 1.0) * 0.035
            cv.arrow(k, c, (dk / span_x) / m * g * span_x, (dc / span_y) / m * g * span_y)
    cv.polyline(portrait.k_nullcline[:, 0], portrait.k_nullcline[:, 1],
                accent, width=2.0)
    cv.polyline(portrait.c_nullcline[:, 0], portrait.c_nullcline[:, 1],
                accent, width=2.0, dash="6,4")
    for path in portrait.stable_paths:
        cv.polyline(path.k, path.c, "#d62728", width=2.2)
    cv.marker(portrait.equilibrium.k, portrait.equilibrium.c, accent, label=label)


def render_phase(portrait: PhasePortrait, spec: RenderSpec) -> str:
    """Phase diagram: nullclines, equilibrium, stable branches, quiver."""
    xr = spec.x_range or portrait.k_range
    y_hi = float(np.max(portrait.c_nullcline[:, 1]))
    yr = spec.y_range or (0.0, y_hi)
    cv = _Canvas(spec, xr, yr,
                 f"consumption-capital phase diagram ({portrait.classification})",
                 "k", "c")
    _portrait_layers(cv, portrait, "#1f2a6e", "E")
    return cv.finish()


def render_shock(shock: ShockResult, spec: RenderSpec) -> str:
    """Before/after phase portraits overlaid in one frame."""
    xr = spec.x_range or (min(shock.before.k_range[0], shock.after.k_range[0]),
                          max(shock.before.k_range[1], shock.after.k_range[1]))
    y_hi = max(float(np.max(shock.before.c_nullcline[:, 1])),
               float(np.max(shock.after.c_nullcline[:, 1])))
    yr = spec.y_range or (0.0, y_hi)
    cv = _Canvas(spec, xr, yr, "equilibrium shift under a parameter shock", "k", "c")
    _portrait_layers(cv, shock.before, "#333333", "E1", with_field=False)
    _portrait_layers(cv, shock.after, "#1f77b4", "E2", with_field=False)
    return cv.finish()


def render_curve(xs, ys, spec: RenderSpec, title: str,
                 x_label: str, y_label: str) -> str:
    """Single polyline with markers; generic x-y curve."""
    xs = np.asarray(xs, dtype=float)
    ys = np.asarray(ys, dtype=float)
    pad_x = 0.05 * (xs.max() - xs.min() or 1.0)
    pad_y = 0.05 * (ys.max() - ys.min() or 1.0)
    xr = spec.x_range or (float(xs.min()) - pad_x, float(xs.max()) + pad_x)
    yr = spec.y_range or (float(ys.min()) - pad_y, float(ys.max()) + pad_y)
    cv = _Canvas(spec, xr, yr, title, x_label, y_label)
    cv.polyline(xs, ys, "#1f77b4", width=2.0)
    for x, y in zip(xs, ys):
        cv.marker(x, y, "#1f77b4", r=3.0)
    return cv.finish()


def render_event_study(result: EventStudyResult, spec: RenderSpec) -> str:
    """Point estimates with 95% whiskers around a zero line."""
    mask = ~np.isnan(result.coefficients)
    per = result.periods[mask]
    coef = result.coefficients[mask]
    se = result.std_errors[mask]
    hi = coef + 1.96 * se
    lo = coef - 1.96 * se
    pad = 0.1 * max(float(np.max(np.abs(np.concatenate([hi, lo])))), 1e-12)
    xr = spec.x_range or (float(result.periods[0]) - 0.5, float(result.periods[-1]) + 0.5)
    yr = spec.y_range or (float(lo.min()) - pad, float(hi.max()) + pad)
    cv = _Canvas(spec, xr, yr, "event-study coefficients", "relative period", "effect")
    zy = cv.py(0.0)
    cv.parts.append(f'<line x1="{_fmt(cv.px0)}" y1="{_fmt(zy)}" x2="{_fmt(cv.px1)}" '
                    f'y2="{_fmt(zy)}" stroke="#999999" stroke-width="1" '
                    'stroke-dasharray="4,3"/>\n')
    for t, b, s in zip(per, coef, se):
        x = cv.px(t)
        cv.parts.append(f'<line x1="{_fmt(x)}" y1="{_fmt(cv.py(b - 1.96 * s))}" '
                        f'x2="{_fmt(x)}" y2="{_fmt(cv.py(b + 1.96 * s))}" '
                        'stroke="#1f77b4" stroke-width="1.4"/>\n')
        cv.marker(t, b, "#1f77b4", r=3.0)
    return cv.finish()


def render_svg(artifact, spec: RenderSpec, variable: str = "c_star") -> str:
    """Dispatch on ``spec.kind``; the artifact type must match the kind."""
    kind = spec.kind
    if kind == "surface-heatmap":
        if not isinstance(artifact, SweepGrid):
            raise DomainError("surface-heatmap requires a SweepGrid")
        return render_heatmap(artifact, variable, spec)
    if kind == "contour":
        if not isinstance(artifact, IsoContour):
            raise DomainError("contour rendering requires an IsoContour")
        return render_contour(artifact, spec)
    if kind == "phase":
        if isinstance(artifact, ShockResult):
            return render_shock(artifact, spec)
        if isinstance(artifact, PhasePortrait):
            return render_phase(artifact, spec)
        raise DomainError("phase rendering requires a PhasePortrait or ShockResult")
    if kind == "event-study":
        if not isinstance(artifact, EventStudyResult):
            raise DomainError("event-study rendering requires an EventStudyResult")
        return render_event_study(artifact, spec)
    raise DomainError(f"unknown figure kind {kind!r}")
