"""Minimal SVG line plots: polylines, axes, ticks, legend.  Needs only numpy.

Each polyline's ``points`` text is written from one byte buffer, not
formatted point by point: ``numfmt.fixed_cells`` writes the ``'{:.2f}'``
bytes of every pixel coordinate, and ``numfmt.join_rows`` sets the x and y
cells side by side with their comma and space separators.  So the bytes
are those of ``" ".join(f"{x:.2f},{y:.2f}")`` over the coordinates.
"""

from __future__ import annotations

import math

import numpy as np

from .numfmt import fixed_cells, join_rows

PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b")
WIDTH, HEIGHT = 720, 480   # pixel size of every plot
TICK_TARGET = 5            # ticks a linear axis aims for


def _nice_ticks(lo: float, hi: float) -> list[float]:
    if hi <= lo:
        return [lo]
    raw = (hi - lo) / TICK_TARGET
    mag = 10.0 ** math.floor(math.log10(raw))
    for mult in (1.0, 2.0, 5.0, 10.0):
        if raw <= mult * mag:
            step = mult * mag
            break
    first = math.ceil(lo / step) * step
    ticks = []
    t = first
    while t <= hi + 1e-12 * step:
        ticks.append(0.0 if abs(t) < step * 1e-9 else t)
        t += step
    return ticks


def _log_ticks(lo: float, hi: float) -> list[float]:
    decades = [10.0 ** k for k in range(math.floor(math.log10(lo)),
                                        math.ceil(math.log10(hi)) + 1)
               if lo <= 10.0 ** k <= hi]
    if len(decades) >= 2:
        return decades
    # dict.fromkeys drops repeats: among subnormals, two of the four round
    # to one double
    return list(dict.fromkeys(10.0 ** x for x in
                              (lo_l + f * (hi_l - lo_l)
                               for lo_l, hi_l in [(math.log10(lo), math.log10(hi))]
                               for f in (0.0, 1 / 3, 2 / 3, 1.0))))


def _widen(v: float) -> tuple[float, float]:
    """A linear axis range around the one value v: v -+ 0.5, or v -+ |v|/2
    where v -+ 0.5 rounds back to v, as it can from |v| = 2**52 on."""
    lo, hi = v - 0.5, v + 0.5
    return (lo, hi) if lo < hi else (v - 0.5 * abs(v), v + 0.5 * abs(v))


def _widen_log(v: float) -> tuple[float, float]:
    """A log axis range around the one value v > 0: v/2 to 2v, or v to 2v
    where v/2 rounds to 0, as it does at v = 5e-324; there v sits on the
    axis's lower end."""
    lo = 0.5 * v
    return (lo if lo > 0 else v), 2.0 * v


def _fmt(x: float) -> str:
    return f"{x:.6g}"


def _escape(text) -> str:
    return str(text).replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")


def _floats(values, n: int) -> np.ndarray:
    """The first n values as float64.  None, strings and other non-numbers
    raise TypeError, as ``float()`` would, instead of turning into NaN."""
    a = np.asarray(values[:n])
    if a.dtype.kind not in "biuf":
        raise TypeError(f"plot values must be real numbers, got {a.dtype} data")
    return a.astype(np.float64, copy=False)


def _unit(v, lo: float, hi: float, log: bool) -> np.ndarray:
    """Position of each value on the axis [lo, hi]: 0 at lo, 1 at hi."""
    if log:
        a, b = math.log10(lo), math.log10(hi)
        # math.log10 per point keeps the bits of the scalar renderer; the
        # log-axis plots have a handful of points.
        v = np.array([math.log10(t) for t in v])
    else:
        a, b = lo, hi
        v = np.asarray(v, dtype=np.float64)
    return (v - a) / (b - a)


def render_line_plot(series, *, title: str = "", xlabel: str = "", ylabel: str = "",
                     logx: bool = False, logy: bool = False) -> str:
    """Render [(xs, ys, label), ...] as a standalone SVG string.

    Pairs beyond the shorter of xs and ys, pairs with a NaN or an infinity
    and, on a log axis, nonpositive values are left out.  An axis range too
    wide for a float64 raises ValueError.  Pixel coordinates are computed as
    arrays and written by ``numfmt.fixed_cells``.
    """
    ml, mr, mt, mb = 72, 24, 40, 52
    pw, ph = WIDTH - ml - mr, HEIGHT - mt - mb

    clean = []
    for xs, ys, label in series:
        n = min(len(xs), len(ys))
        x, y = _floats(xs, n), _floats(ys, n)
        keep = np.isfinite(x) & np.isfinite(y)
        if logx:
            keep &= x > 0
        if logy:
            keep &= y > 0
        if keep.any():
            clean.append((x[keep], y[keep], label))
    if not clean:
        raise ValueError("nothing to plot")

    all_x = np.concatenate([x for x, _, _ in clean])
    all_y = np.concatenate([y for _, y, _ in clean])
    x0, x1 = float(all_x.min()), float(all_x.max())
    y0, y1 = float(all_y.min()), float(all_y.max())
    if x1 == x0:
        x0, x1 = _widen_log(x0) if logx else _widen(x0)
    if y1 == y0:
        y0, y1 = _widen_log(y0) if logy else _widen(y0)
    if not logy:
        pad = 0.05 * (y1 - y0)
        y0, y1 = y0 - pad, y1 + pad
    for name, lo, hi, v in (("x", x0, x1, all_x), ("y", y0, y1, all_y)):
        if not math.isfinite(hi - lo):
            raise ValueError(f"{name} values from {float(v.min())!r} to "
                             f"{float(v.max())!r}: the axis range overflows float64")

    def tx(v) -> np.ndarray:
        return ml + _unit(v, x0, x1, logx) * pw

    def ty(v) -> np.ndarray:
        return mt + ph - _unit(v, y0, y1, logy) * ph

    xticks = _log_ticks(x0, x1) if logx else _nice_ticks(x0, x1)
    yticks = _log_ticks(y0, y1) if logy else _nice_ticks(y0, y1)

    out = [f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH}" height="{HEIGHT}" '
           f'viewBox="0 0 {WIDTH} {HEIGHT}" font-family="sans-serif" font-size="12">',
           f'<rect width="{WIDTH}" height="{HEIGHT}" fill="white"/>']
    if title:
        out.append(f'<text x="{WIDTH / 2:.1f}" y="24" text-anchor="middle" '
                   f'font-size="15">{_escape(title)}</text>')
    for t, px in zip(xticks, tx(xticks).tolist()):
        out.append(f'<line x1="{px:.2f}" y1="{mt}" x2="{px:.2f}" y2="{mt + ph}" '
                   'stroke="#dddddd"/>')
        out.append(f'<text x="{px:.2f}" y="{mt + ph + 18}" text-anchor="middle">{_fmt(t)}</text>')
    for t, py in zip(yticks, ty(yticks).tolist()):
        out.append(f'<line x1="{ml}" y1="{py:.2f}" x2="{ml + pw}" y2="{py:.2f}" '
                   'stroke="#dddddd"/>')
        out.append(f'<text x="{ml - 8}" y="{py + 4:.2f}" text-anchor="end">{_fmt(t)}</text>')
    out.append(f'<rect x="{ml}" y="{mt}" width="{pw}" height="{ph}" fill="none" '
               'stroke="black"/>')
    if xlabel:
        out.append(f'<text x="{ml + pw / 2:.1f}" y="{HEIGHT - 12}" '
                   f'text-anchor="middle">{_escape(xlabel)}</text>')
    if ylabel:
        out.append(f'<text x="18" y="{mt + ph / 2:.1f}" text-anchor="middle" '
                   f'transform="rotate(-90 18 {mt + ph / 2:.1f})">{_escape(ylabel)}</text>')

    x_cells = fixed_cells(tx(all_x))
    start = 0
    for k, (x, y, label) in enumerate(clean):
        stop = start + len(x)
        coords = join_rows([x_cells[start:stop], fixed_cells(ty(y))], b", ")[:-1].decode()
        start = stop
        color = PALETTE[k % len(PALETTE)]
        out.append(f'<polyline points="{coords}" fill="none" stroke="{color}" '
                   'stroke-width="1.5"/>')
        if label:
            ly = mt + 16 + 16 * k
            out.append(f'<line x1="{ml + pw - 130}" y1="{ly - 4}" x2="{ml + pw - 104}" '
                       f'y2="{ly - 4}" stroke="{color}" stroke-width="2"/>')
            out.append(f'<text x="{ml + pw - 98}" y="{ly}">{_escape(label)}</text>')
    out.append("</svg>")
    return "\n".join(out) + "\n"


def write_line_plot(path, series, **kwargs) -> None:
    with open(path, "w") as fh:
        fh.write(render_line_plot(series, **kwargs))
