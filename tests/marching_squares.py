"""Marching squares over a theta x eta field: the oracle of the row contour.

``sweep.iso_equilibrium_contour`` places one vertex per eta row by
interpolating log z in log theta.  This is the generic algorithm it replaced:
segment endpoints on every cell edge the level crosses, interpolated
linearly in z and keyed by grid edge so that adjacent cells connect exactly,
then chained into polylines.  A cell touching a NaN corner is skipped.
"""

import numpy as np


def _interp(x0, x1, v0, v1, level):
    t = (level - v0) / (v1 - v0)
    return x0 + t * (x1 - x0)


def cell_segments(i, j, x, y, z, level):
    """Level-crossing segments of one grid cell, as ((edge_key, point), ...)."""
    v00, v10 = z[i, j], z[i + 1, j]
    v01, v11 = z[i, j + 1], z[i + 1, j + 1]
    corners = (v00 > level, v10 > level, v11 > level, v01 > level)
    case = sum(b << n for n, b in enumerate(corners))
    if case in (0, 15):
        return ()

    def bottom():
        return (("h", i, j), (_interp(x[i], x[i + 1], v00, v10, level), y[j]))

    def top():
        return (("h", i, j + 1), (_interp(x[i], x[i + 1], v01, v11, level), y[j + 1]))

    def left():
        return (("v", i, j), (x[i], _interp(y[j], y[j + 1], v00, v01, level)))

    def right():
        return (("v", i + 1, j), (x[i + 1], _interp(y[j], y[j + 1], v10, v11, level)))

    pairs = {
        1: (left, bottom), 2: (bottom, right), 3: (left, right),
        4: (right, top), 6: (bottom, top), 7: (left, top),
        8: (top, left), 9: (bottom, top), 11: (right, top),
        12: (left, right), 13: (bottom, right), 14: (bottom, left),
    }
    if case in (5, 10):  # ambiguous saddle cell: split by the center value
        center = 0.25 * (v00 + v10 + v01 + v11)
        if case == 5:
            segs = ((left(), top()), (right(), bottom())) if center > level else \
                   ((left(), bottom()), (right(), top()))
        else:
            segs = ((bottom(), left()), (top(), right())) if center > level else \
                   ((bottom(), right()), (top(), left()))
        return segs
    a, b = pairs[case]
    return ((a(), b()),)


def chain_segments(segments):
    """Join edge-keyed segments into ordered polylines."""
    adj: dict = {}
    seg_pts = []
    for (ka, pa), (kb, pb) in segments:
        idx = len(seg_pts)
        seg_pts.append(((ka, pa), (kb, pb)))
        adj.setdefault(ka, []).append(idx)
        adj.setdefault(kb, []).append(idx)
    used = [False] * len(seg_pts)
    chains = []
    order = sorted(adj, key=lambda k: (len(adj[k]), k))
    for start_key in [k for k in order if len(adj[k]) == 1] + list(order):
        for idx in adj[start_key]:
            if used[idx]:
                continue
            pts = []

            def push(pt):
                if not pts or pts[-1] != pt:  # node crossings duplicate coords
                    pts.append(pt)

            key = start_key
            cur = idx
            while cur is not None and not used[cur]:
                used[cur] = True
                (ka, pa), (kb, pb) = seg_pts[cur]
                if ka == key:
                    push(pa)
                    push(pb)
                    key = kb
                else:
                    push(pb)
                    push(pa)
                    key = ka
                cur = next((n for n in adj.get(key, []) if not used[n]), None)
            if len(pts) >= 2:
                chains.append(np.asarray(pts))
    return chains


def crossing_segments(x, y, z, level):
    """Segments of every cell whose four corners are non-NaN and one to
    three of them above the level, in row-major cell order."""
    corners = (np.s_[:-1, :-1], np.s_[1:, :-1], np.s_[:-1, 1:], np.s_[1:, 1:])
    finite = np.logical_and.reduce([~np.isnan(z[c]) for c in corners])
    above = sum((z[c] > level).astype(int) for c in corners)
    keep = finite & (above > 0) & (above < 4)
    segments = []
    for i, j in zip(*(idx.tolist() for idx in np.nonzero(keep))):
        segments.extend(cell_segments(i, j, x, y, z, level))
    return segments


def contour(x, y, z, level):
    """The polylines of the level set, longest first."""
    return sorted(chain_segments(crossing_segments(x, y, z, level)), key=len, reverse=True)
