import dataclasses
import gc
import math
import weakref
from decimal import Decimal, localcontext
from fractions import Fraction as F
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy import sparse

from conftest import FINE_EPS, FINE_N, plain_power, scipy_csc

from metamap import transfer_operator as to
from metamap.families import family_a, family_b
from metamap.map_model import (PREIMAGE_XTOL, Branch, Interval, MapModelError,
                                PerturbationFamily, PiecewiseMap)
from metamap.scenarios import load_scenario
from metamap.transfer_operator import (DensityGrid, UlamMatrix,
                                       UnsupportedRegimeError, build_ulam,
                                       cells_below, cells_with_center_in,
                                       lasota_yorke_constants,
                                       variation_inflation_constant)


def test_ulam_family_a_n6_exact(fam_a):
    # each width-1/6 branch maps its cell onto a half, so each half-block row
    # spreads 1/3 over three cells
    P = scipy_csc(build_ulam(fam_a.base, 6)).toarray()
    third = np.zeros((6, 6))
    third[:3, :3] = 1 / 3
    third[3:, 3:] = 1 / 3
    assert np.allclose(P, third, atol=1e-14)


def test_ulam_doubling_n2_exact(doubling_map):
    P = scipy_csc(build_ulam(doubling_map, 2)).toarray()
    assert np.allclose(P, 0.5 * np.ones((2, 2)), atol=1e-15)


@pytest.mark.parametrize("eps", [0.0, 0.01])
@pytest.mark.parametrize("n", [6, 48, 768])
def test_rows_sum_to_one(fam_a, eps, n):
    P = build_ulam(fam_a.instantiate(eps), n)
    assert np.max(np.abs(P.row_sums() - 1.0)) <= 1e-12
    dense = scipy_csc(P).toarray()
    assert dense.min() >= 0.0 and dense.max() <= 1.0 + 1e-15


def _exact_ulam(spec, n):
    """Reference Ulam entries {(i, j): Fraction} of the affine map given by
    exact (lo, hi, slope, intercept) rows: P[i,j] = n * Leb(A_i and T^-1 A_j)."""
    P = {}
    for lo, hi, s, t in spec:
        for i in range(math.floor(lo * n), math.ceil(hi * n)):
            a, b = max(lo, F(i, n)), min(hi, F(i + 1, n))
            if b <= a:
                continue
            ya, yb = sorted((s * a + t, s * b + t))
            for j in range(math.floor(ya * n), math.ceil(yb * n)):
                c, d = max(ya, F(j, n)), min(yb, F(j + 1, n))
                if d > c:
                    P[i, j] = P.get((i, j), 0) + (d - c) / abs(s) * n
    return P


FAMILY_A_BASE = [(F(0), F(1, 6), F(3), F(0)), (F(1, 6), F(1, 3), F(3), F(-1, 2)),
                 (F(1, 3), F(1, 2), F(-3), F(3, 2)), (F(1, 2), F(2, 3), F(-3), F(5, 2)),
                 (F(2, 3), F(5, 6), F(3), F(-3, 2)), (F(5, 6), F(1), F(3), F(-2))]


@st.composite
def rational_affine_maps(draw):
    """(spec, n): exact rows (lo, hi, slope, intercept) of an admissible affine
    map with breakpoints, slopes and intercepts of denominator <= 12, and a
    grid size n that is often not a multiple of the breakpoint denominator."""
    q = draw(st.integers(2, 12))
    k = draw(st.integers(2, min(5, q)))
    inner = sorted(draw(st.sets(st.integers(1, q - 1), min_size=k - 1, max_size=k - 1)))
    cuts = [F(0)] + [F(c, q) for c in inner] + [F(1)]
    spec = []
    for lo, hi in zip(cuts, cuts[1:]):
        w = hi - lo
        den_min = max(1, math.ceil(w / (1 - w)))     # leaves room for 1 < |s| <= 1/w
        den = draw(st.integers(den_min, max(4, den_min)))
        s = F(draw(st.integers(den + 1, math.floor(den / w))), den)
        room = 1 - s * w                              # the image has length s*w
        d2 = draw(st.integers(1, 12))
        y0 = F(draw(st.integers(0, math.floor(room * d2))), d2)
        if draw(st.booleans()):
            spec.append((lo, hi, s, y0 - s * lo))
        else:
            spec.append((lo, hi, -s, y0 + s * w + s * lo))
    n = draw(st.integers(k, 40))
    return spec, n


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(case=rational_affine_maps())
@example(case=(FAMILY_A_BASE, 20))
@example(case=(FAMILY_A_BASE, 7))
# 22 * float(15/22) is 14.999999999999998: the breakpoint must be snapped
@example(case=([(F(0), F(15, 22), F(4, 3), F(0)), (F(15, 22), F(1), F(-3), F(3))], 22))
def test_assembly_matches_exact_rational_reference(case):
    spec, n = case
    P = build_ulam(PiecewiseMap([Branch.affine(float(lo), float(hi), float(s), float(t))
                                 for lo, hi, s, t in spec]), n)
    exact = _exact_ulam(spec, n)
    E = np.zeros((n, n))
    for (i, j), v in exact.items():
        E[i, j] = float(v)
    # each entry is a difference of two cut points in X = n*x, whose spacing
    # is about 2.2e-16*n: compared as lengths in x, P/n, the entries agree to
    # 1e-15 at every n, and P itself does at the smallest grids
    err = np.max(np.abs(scipy_csc(P).toarray() - E))
    assert err / n <= 1e-15
    if n <= 4:
        assert err <= 1e-15
    # no slivers: an entry is stored exactly where the exact one is nonzero,
    # and once
    m = scipy_csc(P).tocoo()
    stored = list(zip(m.row.tolist(), m.col.tolist()))
    assert len(set(stored)) == len(stored)
    assert set(stored) == {ij for ij, v in exact.items() if v != 0}
    # a branch covering a length L of a row meets at most ceil(|s| L) + 1 columns
    per_row = np.bincount(m.row, minlength=n)
    for i in range(n):
        bound = 0
        for lo, hi, s, _ in spec:
            L = (min(hi, F(i + 1, n)) - max(lo, F(i, n))) * n
            if L > 0:
                bound += math.ceil(abs(s) * L) + 1
        assert per_row[i] <= bound
    assert np.max(np.abs(P.row_sums() - 1.0)) <= 1e-15


def test_pair_reached_by_two_branches_is_summed(fam_a):
    # n = 20 is not a multiple of 6: the breakpoint 1/3 lies inside cell 6,
    # X in [6, 7] with the break at 20/3.  Branch 2 maps [6, 20/3] onto Y in
    # [8, 10] and branch 3 maps [20/3, 7] onto [9, 10]: both reach column 9,
    # each with length 1/3
    P = build_ulam(fam_a.base, 20)
    row = scipy_csc(P).getrow(6).tocoo()
    assert sorted(row.col.tolist()) == [8, 9]
    assert scipy_csc(P).toarray()[6, 8] == pytest.approx(1 / 3, abs=1e-15)
    assert scipy_csc(P).toarray()[6, 9] == pytest.approx(2 / 3, abs=1e-15)
    # rows strictly ascending within each column: sorted, and the pair that
    # both branches reach is stored once
    m = P.matrix
    for j in range(P.n):
        assert np.all(np.diff(m.indices[m.indptr[j]:m.indptr[j + 1]]) > 0)


@pytest.mark.parametrize("n", [17280, 61440, 122880])
@pytest.mark.parametrize("family", [family_a, family_b], ids=["family_a", "family_b"])
def test_rows_sum_to_one_on_fine_grids(family, n):
    # the grid rule n >= 12/eps reaches these grids below eps = 7e-4; cell
    # bounds i/n used to put rounding slivers into the wrong row from n = 17280 on
    fam = family()
    for eps in (0.0, 0.002, 1e-4):
        P = build_ulam(fam.instantiate(eps), n)
        assert np.max(np.abs(P.row_sums() - 1.0)) <= 1e-15
        assert P.matrix.data.min() > 1e-9


def _quadratic_family():
    """Two quadratic branches meeting at a = sqrt(2) - 1; eps moves only the
    increasing one, by -eps*x."""
    a = math.sqrt(2) - 1
    w = 1 - a
    up = Branch.smooth(0.0, a, lambda x: x * x + 2 * x, lambda x: 2 * x + 2, lambda x: 2.0)
    down = Branch.smooth(a, 1.0, lambda x: 1 - (((x - a) / w) ** 2 + 2 * (x - a) / w) / 3,
                         lambda x: -(2 * (x - a) / w + 2) / (3 * w),
                         lambda x: -2 / (3 * w * w))
    return PerturbationFamily(base=PiecewiseMap([up, down]),
                              smooth_eps=((lambda x: -x, lambda x: -1.0, lambda x: 0.0), None))


def _csc_bytes(P):
    m = P.matrix
    return m.indptr.tobytes(), m.indices.tobytes(), m.data.tobytes()


@pytest.mark.parametrize("case, moved", [
    ("family_a", {1, 4}), ("family_b", {0, 1, 2, 3, 4, 5}),
    ("scenario", {1, 4}), ("quadratic", {0})])
def test_reused_branch_assembly_keeps_the_bytes(case, moved, monkeypatch):
    if case == "scenario":
        scn = load_scenario(str(Path(__file__).resolve().parents[1] / "demos"
                                / "scenario_family_a.json"))
        fam, n, ladder = scn.family, scn.grid_n, scn.eps_list
    elif case == "quadratic":
        fam, n, ladder = _quadratic_family(), 200, (0.02, 0.01)
    else:
        fam, n, ladder = {"family_a": family_a, "family_b": family_b}[case](), FINE_N, FINE_EPS
    base = fam.base.branches
    build_ulam(fam.base, n)
    for eps in ladder:
        map_ = fam.instantiate(eps)
        assert {i for i, br in enumerate(map_.branches) if br is not base[i]} == moved
        reused = _csc_bytes(build_ulam(map_, n))
        # every branch eps leaves alone is kept from its second assembly on
        assert all(_kept(br, n) for i, br in enumerate(base) if i not in moved)
        with monkeypatch.context() as m:
            m.setattr(to, "_REUSED", weakref.WeakKeyDictionary())
            assert _csc_bytes(build_ulam(map_, n)) == reused, eps


def _kept(br, n):
    """Whether pieces of a branch equal to ``br`` are kept on n cells."""
    return any(pieces is not None for (m, *_), pieces in to._REUSED.get(br, {}).items()
               if m == n)


def _count_cuts(monkeypatch):
    cut = []
    column_cuts = to._column_cuts
    monkeypatch.setattr(to, "_column_cuts", lambda br, *a: cut.append(br) or column_cuts(br, *a))
    return cut


def test_assembly_is_reused_by_value(monkeypatch):
    cut = _count_cuts(monkeypatch)
    base = family_a().base
    with monkeypatch.context() as m:
        m.setattr(to, "_REUSED", weakref.WeakKeyDictionary())
        first = _csc_bytes(build_ulam(base, 96))
        for _ in range(3):
            assert _csc_bytes(build_ulam(base, 96)) == first
        # cut on the first two assemblies, reused on the next two
        assert len(cut) == 2 * len(base.branches)
        # a twin map: equal branches, none of them the same object
        twin = PiecewiseMap([dataclasses.replace(br) for br in base.branches])
        assert twin == base and not set(map(id, twin.branches)) & set(map(id, base.branches))
        cut.clear()
        assert _csc_bytes(build_ulam(twin, 96)) == first
        assert cut == []


def test_branch_assembled_once_is_not_kept():
    fam = family_a()
    build_ulam(fam.base, 96)
    # an eps no other test uses, so that no equal moved branch is alive
    map_ = fam.instantiate(0.0123)
    build_ulam(map_, 96)
    assert _kept(fam.base.branches[0], 96)
    assert to._REUSED[map_.branches[1]] == {(96, 16.0, 32.0): None}
    moved = weakref.ref(map_.branches[1])
    twin = dataclasses.replace(map_.branches[1])
    del map_
    gc.collect()
    assert moved() is None
    # its entry went with it: an equal branch finds none
    assert twin not in to._REUSED


def test_reused_pieces_go_with_their_branch(monkeypatch):
    cut = _count_cuts(monkeypatch)
    # a map no other test builds, so that no equal branch outlives it
    fam = PerturbationFamily(base=PiecewiseMap([Branch.affine(0.0, 0.4, 2.5, 0.0),
                                                Branch.affine(0.4, 1.0, -5 / 3, 5 / 3)]))
    for n in (100, 200):
        build_ulam(fam.base, n)
        build_ulam(fam.base, n)
    # one entry per grid, both kept
    assert all(_kept(br, 100) and _kept(br, 200) and len(to._REUSED[br]) == 2
               for br in fam.base.branches)
    cut.clear()
    build_ulam(fam.base, 100)
    build_ulam(fam.base, 200)
    assert cut == []
    twins = [dataclasses.replace(br) for br in fam.base.branches]
    del fam
    gc.collect()
    assert not any(br in to._REUSED for br in twins)


def test_reused_pieces_outlive_the_branch_that_stored_them(monkeypatch):
    cut = _count_cuts(monkeypatch)
    monkeypatch.setattr(to, "_REUSED", weakref.WeakKeyDictionary())
    first = family_a()
    build_ulam(first.base, 96)
    build_ulam(first.base, 96)
    fresh = family_a()
    build_ulam(fresh.base, 96)
    cut.clear()         # the list holds the branches it counted
    del first
    gc.collect()
    # the equal branches of the fresh family still find the pieces
    build_ulam(fresh.base, 96)
    assert cut == []
    # and no entry is left once every equal branch is gone
    twins = [dataclasses.replace(br) for br in fresh.base.branches]
    del fresh
    gc.collect()
    assert not any(br in to._REUSED for br in twins)


def test_value_beside_reads_the_cell_on_the_given_side():
    n = 384
    grid = DensityGrid(n, np.where(np.arange(n) < n // 3, 0.0, 2.0))
    # 1/3 is the boundary of cells 127 and 128, up to rounding
    for x in (1 / 3, 1 / 3 + 1e-15, 1 / 3 - 1e-15):
        assert grid.value_beside(x, -1) == 0.0 and grid.value_beside(x, 1) == 2.0
    # off a boundary both sides read the cell that holds x
    ramp = DensityGrid(n, np.arange(n, dtype=float))
    assert ramp.value_beside(200.5 / n, -1) == ramp.value_beside(200.5 / n, 1) == 200.0
    assert ramp.value_beside(0.0, 1) == 0.0 and ramp.value_beside(1.0, -1) == n - 1
    # no cell below 0 or above 1, not the other end's cell
    for x, side in ((0.0, -1), (1.0, 1)):
        with pytest.raises(ValueError, match="no cell"):
            ramp.value_beside(x, side)


def test_smooth_branch_representation_matches_affine(fam_a):
    # same map, branches given as callables: identical matrix up to rounding
    smooth_branches = []
    for br in fam_a.base.branches:
        s, t = br.slope, br.intercept
        smooth_branches.append(Branch.smooth(
            br.domain.lo, br.domain.hi,
            lambda x, s=s, t=t: s * x + t,
            lambda x, s=s: s,
            lambda x: 0.0))
    smooth_map = PiecewiseMap(smooth_branches)
    n = 96
    Pa = scipy_csc(build_ulam(fam_a.base, n)).toarray()
    Ps = scipy_csc(build_ulam(smooth_map, n)).toarray()
    assert np.max(np.abs(Pa - Ps)) <= 1e-12


def _exact_ulam_monotone(branches, n):
    """Reference Ulam matrix of monotone branches given as (lo, hi, inverse):
    ``inverse(y)`` is the preimage of y in 40-digit Decimal, lo and hi exact
    Fractions.  The preimages of the column bounds j/n cut each branch into
    its columns, and each cut piece is intersected with the row cells."""
    E = np.zeros((n, n))
    for lo, hi, inverse in branches:
        xs = [F(inverse(Decimal(j) / n)) for j in range(n + 1)]
        for j in range(n):
            a, b = sorted((xs[j], xs[j + 1]))
            a, b = max(a, lo), min(b, hi)
            for i in range(max(math.floor(a * n), 0), min(math.ceil(b * n), n)):
                w = min(b, F(i + 1, n)) - max(a, F(i, n))
                if w > 0:
                    E[i, j] += float(w * n)
    return E


@pytest.mark.parametrize("n", [7, 50, 97, 200])
def test_nonlinear_smooth_branches_match_high_precision_reference(n):
    # an increasing and a decreasing branch, both quadratic, meeting at the
    # irrational a = sqrt(2) - 1: every column cut comes from brentq
    a = math.sqrt(2) - 1
    P = build_ulam(_quadratic_family().base, n)
    with localcontext() as ctx:
        ctx.prec = 40
        da = Decimal(a)
        E = _exact_ulam_monotone(
            [(F(0), F(a), lambda y: (1 + y).sqrt() - 1),
             (F(a), F(1), lambda y: da + (1 - da) * ((4 - 3 * y).sqrt() - 1))], n)
    assert np.max(np.abs(P.row_sums() - 1.0)) <= 1e-15
    m = scipy_csc(P).tocoo()
    assert m.col.min() >= 0 and m.col.max() < n
    # each cut is a brentq root, off by at most PREIMAGE_XTOL in x, so n times
    # that in X; a stored pair the reference lacks is such a rounding sliver
    tol = 2.5 * n * PREIMAGE_XTOL
    assert np.max(np.abs(scipy_csc(P).toarray() - E)) <= tol
    stored = set(zip(m.row.tolist(), m.col.tolist()))
    assert {(int(i), int(j)) for i, j in zip(*np.nonzero(E > tol))} <= stored


def test_too_coarse_grid_rejected(fam_a):
    with pytest.raises(MapModelError):
        build_ulam(fam_a.base, 4)


def test_grid_beyond_int32_refused_before_assembly(fam_a, monkeypatch):
    # int32 indices name at most 2**31 - 1 cells; this grid used to start a
    # 16 GiB assembly whose row indices past that limit read -2147483648
    def no_assembly(map_, n):
        raise AssertionError("assembly started")

    monkeypatch.setattr(to, "_branch_pieces", no_assembly)
    with pytest.raises(MapModelError, match=r"^n=2147483648 exceeds 2147483647, the most "
                                            r"cells int32 indices can name$"):
        build_ulam(fam_a.base, 2 ** 31)
    assert to.MAX_GRID_N == np.iinfo(np.int32).max


def test_apply_preserves_uniform_density(fam_a):
    P = build_ulam(fam_a.base, 384)
    d = DensityGrid(384, np.ones(384))
    out = DensityGrid(384, P.apply(d.values))
    assert out.l1_distance(d) <= 1e-13


def test_apply_zero_density(fam_a):
    P = build_ulam(fam_a.base, 48)
    out = P.apply(np.zeros(48))
    assert np.all(out == 0.0)


def test_apply_single_cell_mass_preserved(fam_a):
    n = 96
    P = build_ulam(fam_a.instantiate(0.01), n)
    vals = np.zeros(n)
    vals[17] = n       # unit mass in one cell
    out = P.apply(vals)
    assert np.mean(out) == pytest.approx(1.0, abs=1e-12)


def test_apply_dimension_mismatch(fam_a):
    # the compiled kernels check no lengths: a short vector must be refused
    # before it is read, or a short output written, past its end
    P = build_ulam(fam_a.base, 48)
    for size in (96, 24):
        with pytest.raises(ValueError):
            P.apply(np.ones(size))
        with pytest.raises(ValueError):
            P.apply(np.ones(size), out=np.zeros(48))
        with pytest.raises(ValueError):
            P.apply(np.ones(48), out=np.zeros(size))
        with pytest.raises(ValueError):
            P.apply_adjoint(np.ones(size))


def test_apply_adds_into_out(fam_a):
    n = 96
    P = build_ulam(fam_a.instantiate(0.01), n)
    rng = np.random.default_rng(7)
    x, acc = rng.standard_normal(n), rng.standard_normal(n)
    want = acc + scipy_csc(P).toarray().T @ x
    got = P.apply(x, out=acc)
    assert got is acc
    assert np.max(np.abs(got - want)) <= 1e-13


def test_apply_adjoint_is_p_times_values(fam_b):
    n = 96
    P = build_ulam(fam_b.instantiate(0.01), n)
    v = np.random.default_rng(8).standard_normal(n)
    assert np.max(np.abs(P.apply_adjoint(v) - scipy_csc(P).toarray() @ v)) <= 1e-13


def test_mass_conservation_random_grids(fam_a):
    n = 192
    P = build_ulam(fam_a.instantiate(0.005), n)
    rng = np.random.default_rng(23)
    for _ in range(200):
        vals = rng.standard_normal(n)
        out = P.apply(vals)
        assert abs(np.sum(out) - np.sum(vals)) <= 1e-12 * np.sum(np.abs(vals))


def test_positivity_preserved(fam_a):
    n = 192
    P = build_ulam(fam_a.instantiate(0.01), n)
    rng = np.random.default_rng(5)
    for _ in range(50):
        assert P.apply(rng.uniform(0, 3, size=n)).min() >= 0.0


def test_ly_constants_family_a(fam_a):
    ly = lasota_yorke_constants(fam_a.base)
    assert ly.lam == 3.0
    assert ly.distortion == 0.0
    assert ly.C_eps == pytest.approx(12.0, abs=1e-9)
    assert ly.beta == pytest.approx(2 / 3, abs=1e-15)
    assert ly.C_LY == pytest.approx(72.0, abs=1e-9)


def test_ly_constant_formula_two_branches_width_half():
    # distortion-free, slope magnitude 4, branch width 1/2
    assert variation_inflation_constant(4.0, 0.0, 0.5) == pytest.approx(4.0)


def test_ly_constant_independent_of_lambda_for_affine():
    assert (variation_inflation_constant(3.0, 0.0, 0.25)
            == variation_inflation_constant(7.0, 0.0, 0.25))


def test_ly_rejects_min_expansion_two(fam_a, doubling_map):
    with pytest.raises(UnsupportedRegimeError):
        lasota_yorke_constants(doubling_map)
    with pytest.raises(UnsupportedRegimeError, match="base map"):
        lasota_yorke_constants(fam_a.base, base=doubling_map)


def test_ly_base_anchoring(fam_a):
    ly = lasota_yorke_constants(fam_a.instantiate(0.01), base=fam_a.base)
    assert ly.C_LY == pytest.approx(72.0, abs=1e-9)


def test_discrete_ly_inequality_sentinel(fam_a):
    n = 384
    T = fam_a.instantiate(0.01)
    P = build_ulam(T, n)
    ly = lasota_yorke_constants(T, base=fam_a.base)
    rng = np.random.default_rng(91)
    for _ in range(200):
        steps = rng.integers(1, 12)
        vals = np.zeros(n)
        for _ in range(steps):
            i, j = sorted(rng.integers(0, n, size=2))
            vals[i:j + 1] += rng.standard_normal()
        d = DensityGrid(n, vals)
        tv0, l1 = d.total_variation(), d.l1_norm()
        cur = d
        for k in range(1, 7):
            cur = DensityGrid(n, P.apply(cur.values))
            bound = ly.C_LY * ly.beta ** k * tv0 + ly.C_LY * l1
            assert cur.total_variation() <= 1.2 * bound


def test_refinement_consistency_trend(fam_a):
    T = fam_a.instantiate(0.01)
    phis = {}
    for n in (480, 960, 1920):
        P = build_ulam(T, n)
        vals, _ = plain_power(P, np.ones(n), 1e-10)
        phis[n] = vals
    d1 = np.mean(np.abs(np.repeat(phis[480], 2) - phis[960]))
    d2 = np.mean(np.abs(np.repeat(phis[960], 2) - phis[1920]))
    assert d2 < d1     # halving the cells shrinks the fixed-density change


def test_row_sparsity_bound(fam_a):
    # each row holds at most branches * (ceil(max slope) + 2) nonzeros
    T = fam_a.instantiate(0.01)
    n = 1536
    P = build_ulam(T, n)
    per_row = np.bincount(P.matrix.indices, minlength=n)
    cap = len(T.branches) * (3 + 2)
    assert per_row.max() <= cap


def test_density_grid_norms():
    d = DensityGrid(4, np.array([1.0, -3.0, 2.0, 0.0]))
    assert d.l1_norm() == pytest.approx(1.5)
    assert np.mean(d.values) == pytest.approx(0.0)
    assert d.total_variation() == pytest.approx(4 + 5 + 2)


def test_density_grid_integrate_partial_cells():
    d = DensityGrid(4, np.array([2.0, 4.0, 0.0, 1.0]))
    assert d.integrate(0.125, 0.375) == pytest.approx(2 * 0.125 + 4 * 0.125)
    assert d.integrate(0.0, 1.0) == pytest.approx(np.mean(d.values))


def test_integrate_matches_full_grid_weighting():
    # reference: the exact overlap of [lo, hi] with every cell, summed over
    # all n cells; integrate sums only the cells it overlaps, in another order
    rng = np.random.default_rng(8)
    n = 997
    d = DensityGrid(n, rng.uniform(0.0, 3.0, n))
    bounds = np.arange(n + 1) / n
    for lo, hi in [(0.0, 1.0), (0.0, 0.5), (0.25, 0.25), (0.7, 0.3), (-0.1, 1.2),
                   (1 / 3, 2 / 3)] + [tuple(rng.uniform(0, 1, 2)) for _ in range(200)]:
        a, b = min(lo, hi), max(lo, hi)
        over = np.clip(np.minimum(bounds[1:], b) - np.maximum(bounds[:-1], a), 0.0, None)
        ref = float(np.sum(over * d.values))
        assert d.integrate(lo, hi) == pytest.approx(ref, rel=1e-13, abs=1e-15)


def test_cells_below_and_center_selectors():
    # cells_below counts the cells that [0, b) overlaps by a positive length
    for n in (1, 7, 8, 769, 3840):
        bounds = np.arange(n + 1) / n
        for b in (0.0, 1e-9, 0.25, 0.5, 0.5 + 1e-12, 1 / 3, 1.0):
            expected = int(np.count_nonzero(np.minimum(bounds[1:], b) - bounds[:-1] > 0.0))
            assert cells_below(b, n) == expected, (n, b)
    assert cells_below(0.5, 8) == 4 and cells_below(0.5, 769) == 385
    # the count, with no array, equals the array form at random b, at j/n
    # and one ulp either side of it
    rng = np.random.default_rng(7)
    for _ in range(5000):
        n = int(rng.integers(1, 20001))
        edge = int(rng.integers(0, n + 1)) / n
        for b in (rng.random(), edge, np.nextafter(edge, -1.0), np.nextafter(edge, 2.0)):
            assert cells_below(float(b), n) == np.count_nonzero(np.arange(n) / n < b), (b, n)
    got = cells_with_center_in([Interval(0.24, 0.52)], 8)
    centers = (np.arange(8) + 0.5) / 8
    expected = [i for i, c in enumerate(centers) if 0.24 <= c <= 0.52]
    assert list(got) == expected


def _centers_brute_force(intervals, n):
    centers = (np.arange(n) + 0.5) / n
    keep = np.zeros(n, dtype=bool)
    for iv in intervals:
        keep |= (centers >= iv.lo) & (centers <= iv.hi)
    return np.nonzero(keep)[0]


def test_cells_with_center_in_matches_brute_force():
    # ends on cell centers, at 0 and 1, reversed (lo > hi: no cell) and
    # empty (lo == hi: the one cell centered there, if any), overlapping sets
    rng = np.random.default_rng(31)
    for _ in range(400):
        n = int(rng.choice([1, 2, 3, 7, 8, 777, 1000, 15360]))
        ivs = []
        for _ in range(int(rng.integers(0, 4))):
            ends = []
            for _ in range(2):
                kind = rng.integers(0, 4)
                if kind == 0:       # a cell center
                    ends.append((int(rng.integers(0, n)) + 0.5) / n)
                elif kind == 1:     # a domain end
                    ends.append(float(rng.integers(0, 2)))
                else:
                    ends.append(float(rng.uniform()))
            lo, hi = ends
            if rng.integers(0, 5) == 0:
                hi = lo
            # reversed pieces are read as given: Interval would refuse them
            ivs.append(Interval(lo, hi) if lo <= hi else SimpleNamespace(lo=lo, hi=hi))
        got = cells_with_center_in(ivs, n)
        want = _centers_brute_force(ivs, n)
        assert got.dtype == want.dtype and got.tolist() == want.tolist(), (n, ivs)


def test_assembly_duplicates_summed_in_scipys_order():
    # the pieces, read as P's CSR arrays, through scipy's own tocsc() and
    # sum_duplicates(): an oracle independent of build_ulam's kernels.  On
    # the fine ladder, n = 777 and 1000 (breakpoints inside cells) and
    # eps = 10/(3n) (column cuts on cell boundaries, which leave empty
    # pieces); family A at n = 1000 reaches three (row, column) pairs from
    # two branches, so the duplicate sum runs
    cases = ([(FINE_N, eps) for eps in FINE_EPS]
             + [(n, eps) for n in (777, 1000) for eps in (0.0, 0.0008, 0.01)]
             + [(n, 10 / (3 * n)) for n in (777, 1000, FINE_N)])
    duplicates = 0
    for family in (family_a(), family_b()):
        for n, eps in cases:
            map_ = family.instantiate(eps)
            rows, cols, vals = map(np.concatenate, zip(*to._branch_pieces(map_, n)))
            indptr = np.concatenate(([0], np.cumsum(np.bincount(rows, minlength=n))))
            ref = sparse.csr_matrix((vals, cols, indptr), shape=(n, n)).tocsc()
            ref.sum_duplicates()
            got = build_ulam(map_, n).matrix
            for a, b in ((got.indptr, ref.indptr), (got.indices, ref.indices),
                         (got.data, ref.data)):
                assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), (n, eps)
            duplicates += vals.size - got.nnz
    assert duplicates > 0


def test_from_matrix_validates_row_sums():
    with pytest.raises(ValueError):
        UlamMatrix.from_matrix(np.array([[0.5, 0.4], [0.5, 0.5]]))
    m = UlamMatrix.from_matrix(sparse.csr_matrix(np.array([[0.5, 0.5], [0.25, 0.75]])))
    assert m.n == 2


@pytest.mark.parametrize("matrix, named", [
    ([[0.5, math.nan], [0.5, 0.5]], r"entry \(0, 1\) is nan"),
    ([[0.5, 0.5], [math.inf, 0.5]], r"entry \(1, 0\) is inf"),
    (sparse.csr_matrix(np.array([[0.5, 0.5], [0.5, -math.inf]])), r"entry \(1, 1\) is -inf"),
])
def test_from_matrix_rejects_non_finite_entries(matrix, named):
    # a NaN row sum fails the comparison bad > ROW_SUM_TOL, so such a matrix
    # was accepted and its NaN reached the solvers
    with pytest.raises(ValueError, match=named + ", which is not finite"):
        UlamMatrix.from_matrix(matrix if hasattr(matrix, "tocsc") else np.array(matrix))
