import dataclasses
import math
import warnings
from xml.dom import minidom

import numpy as np
import pytest

from conftest import traced_peak
from metamap import runner, svgplot
from metamap.metastability import prepare_sweep, run_sweep_row
from metamap.numfmt import fixed_cells, join_rows, repr_cells
from metamap.runner import run_scenario, write_density_csv
from metamap.scenarios import load_scenario
from metamap.svgplot import PALETTE, _fmt, _log_ticks, _nice_ticks, render_line_plot


# ---------------------------------------------------------------- density CSV

def reference_density_csv(x, phi, mixture, psi) -> bytes:
    """The per-cell writer: repr of every float of every cell."""
    lines = ["x,phi,mixture,psi\n"]
    for i in range(len(x)):
        psi_cell = repr(float(psi[i])) if psi is not None else ""
        lines.append(f"{float(x[i])!r},{float(phi[i])!r},"
                     f"{float(mixture[i])!r},{psi_cell}\n")
    return "".join(lines).encode()


def density_csv(tmp_path, x, phi, mixture, psi) -> bytes:
    path = tmp_path / "density.csv"
    write_density_csv(path, repr_cells(x), repr_cells(mixture), phi, psi)
    return path.read_bytes()


def awkward_values(rng, n):
    """Random floats with repeats, both zeros, subnormals and extremes."""
    pool = np.concatenate([rng.standard_normal(n // 4),
                           rng.standard_normal(n // 4) * 1e-300,
                           [0.0, -0.0, 5e-324, -5e-324, 1e308, -1e308,
                            0.1, 1 / 3, 2.0 ** -1074 * 3]])
    return rng.choice(pool, size=n)


@pytest.mark.parametrize("with_psi", [True, False])
@pytest.mark.parametrize("seed", range(5))
def test_density_csv_matches_per_cell_reference(tmp_path, seed, with_psi):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 400))
    x = (np.arange(n) + 0.5) / n
    phi, mixture = awkward_values(rng, n), awkward_values(rng, n)
    psi = awkward_values(rng, n) if with_psi else None
    if seed == 0:
        phi[:3] = [math.nan, math.inf, -math.inf]
    assert density_csv(tmp_path, x, phi, mixture, psi) == \
        reference_density_csv(x, phi, mixture, psi)


@pytest.mark.parametrize("with_psi", [True, False])
def test_density_csv_in_row_blocks_matches_per_cell_reference(tmp_path, monkeypatch,
                                                              with_psi):
    # the writer formats and writes 16384 rows at a time; with blocks of 64,
    # 300 rows take five, the last one short
    monkeypatch.setattr(runner, "_DENSITY_ROWS", 64)
    rng = np.random.default_rng(7)
    n = 300
    x = (np.arange(n) + 0.5) / n
    phi, mixture = awkward_values(rng, n), awkward_values(rng, n)
    psi = awkward_values(rng, n) if with_psi else None
    assert density_csv(tmp_path, x, phi, mixture, psi) == \
        reference_density_csv(x, phi, mixture, psi)


def test_density_csv_fields_round_trip_bit_for_bit(tmp_path):
    rng = np.random.default_rng(3)
    n = 257
    x = (np.arange(n) + 0.5) / n
    phi, mixture, psi = (awkward_values(rng, n) for _ in range(3))
    phi[7] = -0.0
    text = density_csv(tmp_path, x, phi, mixture, psi).decode()
    lines = text.split("\n")
    assert lines[0] == "x,phi,mixture,psi"
    assert lines[-1] == ""                      # LF after the last row
    rows = [line.split(",") for line in lines[1:-1]]
    assert len(rows) == n
    parsed = np.array([[float(f) for f in row] for row in rows])
    for j, col in enumerate((x, phi, mixture, psi)):
        assert np.array_equal(parsed[:, j].view(np.int64), col.view(np.int64))
    assert rows[7][1] == "-0.0"


def test_density_csv_without_psi_leaves_last_field_empty(tmp_path):
    n = 16
    x = (np.arange(n) + 0.5) / n
    text = density_csv(tmp_path, x, np.ones(n), np.full(n, 0.5), None).decode()
    lines = text.splitlines()
    assert lines[0] == "x,phi,mixture,psi"
    assert len(lines) == n + 1
    assert all(line.count(",") == 3 and line.endswith(",") for line in lines[1:])


def test_family_b_density_file_matches_per_cell_reference(tmp_path):
    # phi of family B at eps 0.02 holds exact zeros and cells near 1e-12,
    # written in the exponent form, beside ordinary ones
    scn = dataclasses.replace(load_scenario("builtin:family_b"), eps_list=(0.02,),
                              out_dir=str(tmp_path))
    assert scn.grid_n == 3840
    assert run_scenario(scn, log=lambda *a: None) == 0
    ctx = prepare_sweep(scn.family, scn.eps_list, scn.grid_n)
    _, art = run_sweep_row(ctx, 0.02)
    phi = art.phi.values
    assert np.count_nonzero(phi == 0) == 306
    assert np.count_nonzero((phi > 1e-13) & (phi < 1e-11)) == 1613
    x = (np.arange(scn.grid_n) + 0.5) / scn.grid_n
    assert (tmp_path / "density_0.02.csv").read_bytes() == \
        reference_density_csv(x, phi, ctx.mixture.values, art.psi.values)


@pytest.mark.parametrize("with_psi", [True, False])
def test_density_rows_on_edge_values_match_per_cell_reference(with_psi):
    # every double's notation, notation switch and repr fallback in every column
    edges = [math.nan, math.inf, -math.inf, 0.0, -0.0, 5e-324, -5e-324, 1e300,
             -1e300, 1e-4, 1e-5, 9.999999999999999e-05, 0.00010000000000000002,
             1e15, 999999999999999.9, 1e16, 9999999999999998.0, 1.0, 0.1, 1 / 3]
    twos = [2.0 ** e for e in range(-1074, 1024)]
    v = np.array(edges + twos)
    v = np.concatenate([v, np.nextafter(v, -np.inf), np.nextafter(v, np.inf)])
    x, phi, mixture, psi = (np.roll(v, k) for k in range(4))
    psi = psi if with_psi else None
    psi_cells = repr_cells(psi) if with_psi else np.zeros((len(v), 0), np.uint8)
    got = join_rows([repr_cells(x), repr_cells(phi), repr_cells(mixture), psi_cells],
                    b",,,\n")
    want = reference_density_csv(x, phi, mixture, psi)
    assert got == want[len(b"x,phi,mixture,psi\n"):]


def test_density_rows_make_no_megabyte_temporaries():
    # one 3840-row block with psi, formatted and joined as the writer does:
    # the peak reads 1.03 MB, against 1.32 MB with every float64 temporary of
    # the formatter kept and 2.24 MB with float64 digit planes and a boolean
    # gather of the text
    rng = np.random.default_rng(5)
    n = 3840
    phi, mixture, psi = (rng.random(n) * 10.0 ** rng.integers(-15, 2, n) for _ in range(3))
    x_cells, mixture_cells = repr_cells((np.arange(n) + 0.5) / n), repr_cells(mixture)

    def block():
        both = repr_cells(np.concatenate([phi, psi]))
        return join_rows([x_cells, both[:n], mixture_cells, both[n:]], b",,,\n")
    assert traced_peak(block) < 1.5e6


def test_density_csv_rejects_columns_of_different_length(tmp_path):
    with pytest.raises(ValueError, match="differ in length"):
        density_csv(tmp_path, np.zeros(4), np.zeros(4), np.zeros(3), None)


# ----------------------------------------------------------------- SVG plots

def reference_render(series, *, title="", xlabel="", ylabel="", logx=False,
                     logy=False, width=720, height=480) -> str:
    """The per-point renderer: a closure call and a format call per point.
    Pairs with a NaN or an infinity are left out."""
    ml, mr, mt, mb = 72, 24, 40, 52
    pw, ph = width - ml - mr, height - mt - mb
    clean = []
    for xs, ys, label in series:
        pts = [(float(x), float(y)) for x, y in zip(xs, ys)
               if math.isfinite(x) and math.isfinite(y)
               and not (logx and x <= 0) and not (logy and y <= 0)]
        if pts:
            clean.append((pts, label))
    if not clean:
        raise ValueError("nothing to plot")
    all_x = [p[0] for pts, _ in clean for p in pts]
    all_y = [p[1] for pts, _ in clean for p in pts]
    x0, x1 = min(all_x), max(all_x)
    y0, y1 = min(all_y), max(all_y)
    if x1 == x0:
        x0, x1 = (0.5 * x0, 2.0 * x1) if logx else (x0 - 0.5, x1 + 0.5)
    if y1 == y0:
        y0, y1 = (0.5 * y0, 2.0 * y1) if logy else (y0 - 0.5, y1 + 0.5)
    if not logy:
        pad = 0.05 * (y1 - y0)
        y0, y1 = y0 - pad, y1 + pad

    def tx(x):
        a, b = (math.log10(x0), math.log10(x1)) if logx else (x0, x1)
        v = math.log10(x) if logx else x
        return ml + (v - a) / (b - a) * pw

    def ty(y):
        a, b = (math.log10(y0), math.log10(y1)) if logy else (y0, y1)
        v = math.log10(y) if logy else y
        return mt + ph - (v - a) / (b - a) * ph

    xticks = _log_ticks(x0, x1) if logx else _nice_ticks(x0, x1)
    yticks = _log_ticks(y0, y1) if logy else _nice_ticks(y0, y1)
    out = [f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
           f'viewBox="0 0 {width} {height}" font-family="sans-serif" font-size="12">',
           f'<rect width="{width}" height="{height}" fill="white"/>']
    if title:
        out.append(f'<text x="{width / 2:.1f}" y="24" text-anchor="middle" '
                   f'font-size="15">{title}</text>')
    for t in xticks:
        px = tx(t)
        out.append(f'<line x1="{px:.2f}" y1="{mt}" x2="{px:.2f}" y2="{mt + ph}" '
                   'stroke="#dddddd"/>')
        out.append(f'<text x="{px:.2f}" y="{mt + ph + 18}" text-anchor="middle">{_fmt(t)}</text>')
    for t in yticks:
        py = ty(t)
        out.append(f'<line x1="{ml}" y1="{py:.2f}" x2="{ml + pw}" y2="{py:.2f}" '
                   'stroke="#dddddd"/>')
        out.append(f'<text x="{ml - 8}" y="{py + 4:.2f}" text-anchor="end">{_fmt(t)}</text>')
    out.append(f'<rect x="{ml}" y="{mt}" width="{pw}" height="{ph}" fill="none" '
               'stroke="black"/>')
    if xlabel:
        out.append(f'<text x="{ml + pw / 2:.1f}" y="{height - 12}" '
                   f'text-anchor="middle">{xlabel}</text>')
    if ylabel:
        out.append(f'<text x="18" y="{mt + ph / 2:.1f}" text-anchor="middle" '
                   f'transform="rotate(-90 18 {mt + ph / 2:.1f})">{ylabel}</text>')
    for k, (pts, label) in enumerate(clean):
        color = PALETTE[k % len(PALETTE)]
        coords = " ".join(f"{tx(x):.2f},{ty(y):.2f}" for x, y in pts)
        out.append(f'<polyline points="{coords}" fill="none" stroke="{color}" '
                   'stroke-width="1.5"/>')
        if label:
            ly = mt + 16 + 16 * k
            out.append(f'<line x1="{ml + pw - 130}" y1="{ly - 4}" x2="{ml + pw - 104}" '
                       f'y2="{ly - 4}" stroke="{color}" stroke-width="2"/>')
            out.append(f'<text x="{ml + pw - 98}" y="{ly}">{label}</text>')
    out.append("</svg>")
    return "\n".join(out) + "\n"


def outcome(render, series, **kwargs):
    try:
        return render(series, **kwargs)
    except ValueError as exc:
        return f"ValueError: {exc}"


def random_values(rng, n, log_axis):
    kind = rng.integers(0, 4)
    if kind == 0:                              # one repeated value: degenerate range
        v = np.full(n, rng.choice([0.0, -0.0, 1e-3, 2.5, -7.0]))
    elif kind == 1:                            # a few levels, like a density
        v = rng.choice(rng.standard_normal(3), size=n)
    elif kind == 2:                            # spread over decades
        v = 10.0 ** rng.uniform(-6, 2, size=n) * rng.choice([1.0, -1.0], size=n, p=[0.8, 0.2])
    else:
        v = rng.standard_normal(n) * 10.0 ** rng.integers(-3, 4)
    v[rng.random(n) < 0.1] = math.nan
    if log_axis:
        v[rng.random(n) < 0.1] = 0.0
    return v


def test_render_line_plot_matches_per_point_reference(monkeypatch):
    for seed in range(300):
        rng = np.random.default_rng(seed)
        logx, logy = bool(rng.integers(2)), bool(rng.integers(2))
        width, height = [(720, 480), (720, 480), (150, 60), (0, 0), (96, 92)][rng.integers(5)]
        shared_x = np.sort(random_values(rng, 40, logx))
        series = []
        for k in range(int(rng.integers(1, 5))):
            n = int(rng.integers(0, 40))
            xs = shared_x[:n] if rng.integers(2) else random_values(rng, n, logx)
            ys = random_values(rng, max(0, n + int(rng.integers(-3, 4))), logy)
            if rng.integers(2):
                xs, ys = xs.tolist(), ys.tolist()
            series.append((xs, ys, f"series {k}" if rng.integers(4) else ""))
        kwargs = dict(title="t", xlabel="x", ylabel="y", logx=logx, logy=logy)
        monkeypatch.setattr(svgplot, "WIDTH", width)
        monkeypatch.setattr(svgplot, "HEIGHT", height)
        assert outcome(render_line_plot, series, **kwargs) == \
            outcome(reference_render, series, width=width, height=height, **kwargs), \
            f"seed {seed}"


def check_density_axes_match_reference(n):
    rng = np.random.default_rng(11)
    x = (np.arange(n) + 0.5) / n
    phi = rng.choice(rng.uniform(0, 2, 40), size=n)
    series = [(x, phi, "phi"), (x, np.full(n, 0.5), "mixture"), (x, phi - 1, "psi")]
    assert render_line_plot(series, title="d") == reference_render(series, title="d")


def test_render_line_plot_density_axes_match_reference():
    check_density_axes_match_reference(3840)


def test_render_line_plot_fine_density_axes_match_reference():
    check_density_axes_match_reference(122880)


def test_render_line_plot_negative_zero_pixel_matches_reference(monkeypatch):
    # height 12 puts the middle of the y range at pixel 0, so a value just
    # below the middle lands on a tiny negative pixel coordinate
    series = [([0.0, 1.0, 2.0], [-1.0, -1e-9, 1.0], "a")]
    monkeypatch.setattr(svgplot, "HEIGHT", 12)
    svg = render_line_plot(series)
    assert "-0.00" in svg
    assert svg == reference_render(series, height=12)


def hard_coordinates():
    """Pixel coordinates where writing '{:.2f}' from rint(100*v) can go
    wrong: exact ties m/8 and their neighbours, values within 1e-12 of
    x.xx5, both zeros, tiny negatives, and coordinates too wide for the
    byte buffer or not finite."""
    rng = np.random.default_rng(5)
    ties = np.arange(-80000, 80000) / 8
    near_half = ((np.round(rng.uniform(-2000, 2000, 20000) * 100) + 0.5) / 100
                 + rng.uniform(-1e-12, 1e-12, 20000))
    return np.concatenate([
        ties, np.nextafter(ties, math.inf), np.nextafter(ties, -math.inf),
        near_half, (np.arange(-30000, 30000) + 0.5) / 100,
        [0.0, -0.0, -0.004, -0.005, -0.0050000001, -1e-9, -5e-324, 5e-324,
         0.994999999, 0.995, 9.995, 99.995, 999.995, -999.995, 1234567.895],
        [2.0 ** 24 - 0.01, 2.0 ** 24, -2.0 ** 24 - 0.5, 2.0 ** 30, 2.0 ** 31 + 0.375,
         1e12 + 0.125, -3.3e15, 1e300, -1e300, math.nan, math.inf, -math.inf],
        rng.uniform(-1e9, 1e9, 2000), rng.standard_normal(2000) * 1e-3])


@pytest.mark.parametrize("size", [None, 2, 20, 2001])
def test_points_match_per_point_format(size):
    v = hard_coordinates()
    if size is not None:             # short runs, so each buffer width is used
        v = np.random.default_rng(size).permutation(v)[:2 * size]
    v = v[:len(v) // 2 * 2]
    px, py = v[0::2], v[1::2]
    expected = " ".join(f"{x:.2f},{y:.2f}" for x, y in zip(px.tolist(), py.tolist()))
    # the polyline text as render_line_plot writes it
    assert join_rows([fixed_cells(px), fixed_cells(py)], b", ")[:-1].decode() == expected


def test_render_line_plot_zero_size_matches_reference(monkeypatch):
    # width=0 or height=0 gives a negative plot size, so pixel coordinates
    # run below zero
    rng = np.random.default_rng(4)
    series = [(np.arange(200.0), rng.standard_normal(200), "a"),
              (np.arange(200.0), np.full(200, 0.25), "b")]
    for width, height in [(0, 0), (0, 480), (720, 0)]:
        monkeypatch.setattr(svgplot, "WIDTH", width)
        monkeypatch.setattr(svgplot, "HEIGHT", height)
        svg = render_line_plot(series)
        points = [p.getAttribute("points") for p in
                  minidom.parseString(svg).getElementsByTagName("polyline")]
        assert any(c.startswith("-") for p in points for c in p.replace(",", " ").split())
        assert svg == reference_render(series, width=width, height=height)


def test_render_line_plot_leaves_out_infinite_pairs():
    # a pair with an infinity used to raise OverflowError from the ticks
    xs = [0.0, 1.0, 2.0, math.inf, 4.0, 5.0]
    ys = [1.0, -math.inf, 3.0, 4.0, math.inf, 6.0]
    svg = render_line_plot([(xs, ys, "a")])
    assert svg == render_line_plot([([0.0, 2.0, 5.0], [1.0, 3.0, 6.0], "a")])
    assert svg == reference_render([(xs, ys, "a")])
    assert render_line_plot([([0, 1], [1, math.inf], "a")]) == \
        render_line_plot([([0], [1], "a")])


@pytest.mark.parametrize("axis", [0, 1])
def test_render_line_plot_widens_one_large_value(axis):
    # +-0.5 does not move 1e20: the axis range stayed empty, and the pixel
    # coordinates came out NaN with a RuntimeWarning
    xy = [[1.0, 2.0], [1.0, 2.0]]
    xy[axis] = [1e20, 1e20]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        svg = render_line_plot([(*xy, "a")])
    assert "nan" not in svg
    points = minidom.parseString(svg).getElementsByTagName("polyline")[0].getAttribute("points")
    # the one value sits in the middle of its axis
    assert {p.split(",")[axis] for p in points.split()} == {["384.00", "234.00"][axis]}


@pytest.mark.parametrize("axis", [0, 1])
def test_render_line_plot_log_axis_at_the_least_subnormal(axis):
    # 0.5 * 5e-324 rounds to 0, and the ticks raised "math domain error"
    xy = [[1.0, 2.0], [1.0, 2.0]]
    xy[axis] = [5e-324, 5e-324]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        svg = render_line_plot([(*xy, "a")], logx=axis == 0, logy=axis == 1)
    assert "nan" not in svg
    points = minidom.parseString(svg).getElementsByTagName("polyline")[0].getAttribute("points")
    # the one value sits at the lower end of its axis
    assert {p.split(",")[axis] for p in points.split()} == {["72.00", "428.00"][axis]}
    labels = [t.firstChild.data for t in minidom.parseString(svg).getElementsByTagName("text")]
    assert labels.count("4.94066e-324") == 1 and labels.count("9.88131e-324") == 1


@pytest.mark.parametrize("series, axis", [
    ([([0, 1e308], [-1e308, 1e308], "a")], "y"),
    ([([-1e308, 1e308], [0.0, 1.0], "a")], "x"),
    # the data span fits, but the 5% padding of the y axis does not
    ([([0.0, 1.0], [0.0, 1.7e308], "a")], "y"),
])
def test_render_line_plot_rejects_an_overflowing_axis_range(series, axis):
    with pytest.raises(ValueError, match=f"^{axis} values from .* overflows float64"):
        render_line_plot(series)


@pytest.mark.parametrize("series, kwargs", [
    ([], {}),
    ([([math.inf, 1.0], [2.0, -math.inf], "a")], {}),
    ([([math.nan, 1.0], [2.0, math.nan], "a")], {}),
    ([([0.0, -1.0], [1.0, 2.0], "a")], {"logx": True}),
    ([([1.0, 2.0], [-3.0, 0.0], "a")], {"logy": True}),
    ([([], [], "a"), ([1.0], [], "b")], {}),
])
def test_render_line_plot_nothing_to_plot(series, kwargs):
    with pytest.raises(ValueError, match="nothing to plot"):
        render_line_plot(series, **kwargs)


def test_render_line_plot_rejects_none():
    with pytest.raises(TypeError):
        render_line_plot([([0.0, 1.0], [1.0, None], "a")])


def test_render_line_plot_escapes_markup():
    svg = render_line_plot([([0.0, 1.0], [1.0, 2.0], "p < q & r > s")],
                           title="A&B <test>", xlabel="x<1", ylabel="y>0 & z")
    texts = [t.firstChild.data for t in
             minidom.parseString(svg).getElementsByTagName("text") if t.firstChild]
    assert {"A&B <test>", "x<1", "y>0 & z", "p < q & r > s"} <= set(texts)
