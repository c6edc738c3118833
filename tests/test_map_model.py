import math

import numpy as np
import pytest

from conftest import lebesgue_halves

from metamap import map_model
from metamap.map_model import (Branch, Interval, MapModelError, PerturbationFamily,
                               PiecewiseMap, compute_holes, distortion, evaluate,
                               min_expansion, postcritical_hierarchy,
                               validate_hypotheses)
from metamap.families import DEFAULT_EPS_LIST
from metamap.transfer_operator import DensityGrid


def test_evaluate_branch_interior(fam_a):
    # 0.25 sits inside the branch 3x - 1/2
    assert evaluate(fam_a.base, 0.25) == (0.25,)


def test_evaluate_bivalued_at_shared_endpoint(fam_a):
    # one-sided limits of 3x and 3x - 1/2 at x = 1/6
    vals = evaluate(fam_a.base, 1 / 6)
    assert len(vals) == 2
    assert abs(vals[0] - 0.5) < 1e-14 and abs(vals[1] - 0.0) < 1e-14


def test_evaluate_fixed_endpoint(fam_a):
    assert evaluate(fam_a.base, 0.0) == (0.0,)


def test_evaluate_dedups_equal_limits(fam_a):
    # both branches adjacent to 1/3 send it to 1/2
    assert evaluate(fam_a.base, 1 / 3) == pytest.approx((0.5,), abs=1e-14)


def test_evaluate_outside_domain_raises(fam_a):
    with pytest.raises(MapModelError):
        evaluate(fam_a.base, 1.2)


def test_evaluate_matches_branch_formula_on_interiors(fam_a):
    rng = np.random.default_rng(7)
    T = fam_a.base
    for _ in range(300):
        br = T.branches[rng.integers(len(T.branches))]
        x = rng.uniform(br.domain.lo + 1e-6, br.domain.hi - 1e-6)
        vals = evaluate(T, x)
        assert len(vals) == 1
        assert abs(vals[0] - (br.slope * x + br.intercept)) <= 1e-14


def test_min_expansion_family_a(fam_a):
    assert min_expansion(fam_a.base) == 3.0


def test_min_expansion_doubling(doubling_map):
    assert min_expansion(doubling_map) == 2.0


def test_min_expansion_mixed_slopes():
    m = PiecewiseMap([Branch.affine(0, 0.5, 1.5, 0),
                      Branch.affine(0.5, 1, 1.6, -0.8)])
    assert min_expansion(m) == 1.5
    fam = PerturbationFamily(base=m, boundary_b=0.75)
    report = validate_hypotheses(fam, DEFAULT_EPS_LIST, depth=2)
    assert not report.I4a


def test_distortion_affine_is_zero(fam_a):
    assert distortion(fam_a.base) == 0.0
    assert distortion(fam_a.instantiate(0.037)) == 0.0


def _smooth_plus_affine_map():
    # x^2 + 2x maps [0, sqrt(2)-1] onto [0, 1]; an affine branch closes [0,1]
    a = math.sqrt(2) - 1
    smooth = Branch.smooth(0.0, a, lambda x: x * x + 2 * x,
                           lambda x: 2 * x + 2, lambda x: 2.0)
    affine = Branch.affine(a, 1.0, 1 / (1 - a), -a / (1 - a))
    return PiecewiseMap([smooth, affine])


def test_distortion_smooth_branch_dense_grid_oracle():
    m = _smooth_plus_affine_map()
    a = math.sqrt(2) - 1
    xs = np.linspace(0.0, a, 200001)
    oracle = np.max(2.0 / np.abs(2 * xs + 2))    # sup |T''| / |T'| by brute force
    assert oracle == pytest.approx(1.0, abs=1e-9)
    assert distortion(m) == pytest.approx(oracle, abs=1e-4)


def _branch_preimages(map_, y):
    """Every (x, branch index) with the branch mapping x to y."""
    return [(x, i) for i, br in enumerate(map_.branches)
            if (x := br.preimage(y)) is not None]


def test_branch_preimages_of_half(fam_a):
    got = _branch_preimages(fam_a.base, 0.5)
    expected = [(1 / 6, 0), (1 / 3, 1), (1 / 3, 2), (2 / 3, 3), (2 / 3, 4), (5 / 6, 5)]
    assert len(got) == len(expected)
    for (x, i), (xe, ie) in zip(got, expected):
        assert i == ie and abs(x - xe) <= 1e-12


def test_branch_preimages_of_zero(fam_a):
    got = _branch_preimages(fam_a.base, 0.0)
    expected = [(0.0, 0), (1 / 6, 1), (0.5, 2)]
    assert len(got) == len(expected)
    for (x, i), (xe, ie) in zip(got, expected):
        assert i == ie and abs(x - xe) <= 1e-12


def test_branch_without_y_in_image_contributes_nothing(fam_a):
    # 0.9 lies only in the images of the three right branches
    got = _branch_preimages(fam_a.base, 0.9)
    assert [i for _, i in got] == [3, 4, 5]


def test_preimage_evaluate_round_trip(fam_a):
    rng = np.random.default_rng(11)
    T = fam_a.instantiate(0.01)
    for _ in range(1000):
        x = rng.uniform(1e-9, 1 - 1e-9)
        y = evaluate(T, x)[0]
        pres = [p for p, _ in _branch_preimages(T, y)]
        assert min(abs(p - x) for p in pres) <= 1e-12


def test_smooth_preimage_bracketing():
    m = _smooth_plus_affine_map()
    br = m.branches[0]
    for y in (0.1, 0.5, 0.9):
        x = br.preimage(y)
        assert abs(x * x + 2 * x - y) <= 1e-11
    # one preimage per branch, the smooth one bracketed, the affine one closed form
    for y in (0.1, 0.5, 0.9):
        for x, i in _branch_preimages(m, y):
            assert abs(m.branches[i](x) - y) <= 1e-11
        assert [i for _, i in _branch_preimages(m, y)] == [0, 1]


def test_first_order_holes_family_a(fam_a):
    # the lifted branch 3x - 1/2 opens 1/3-, the lowered 3x - 3/2 opens 2/3+
    holes = fam_a.first_order_holes()
    assert [(side, left) for _, side, _, left in holes] == [(-1, True), (1, False)]
    assert np.allclose([c for c, *_ in holes], [1 / 3, 2 / 3], atol=1e-12)
    assert [rate for _, _, rate, _ in holes] == pytest.approx([1.0, 1 / 3], rel=1e-12)


def test_first_order_holes_family_b(fam_b):
    # every branch end that maps to 1/2 opens, 1/2- and the endpoint 1- among them
    holes = fam_b.first_order_holes()
    assert np.allclose([c for c, *_ in holes], [1 / 6, 1 / 3, 1 / 2, 2 / 3, 5 / 6, 1.0],
                       atol=1e-12)
    assert [side for _, side, _, _ in holes] == [-1] * 6
    assert [left for *_, left in holes] == [True] * 3 + [False] * 3


def test_first_order_holes_lie_in_critical_set(fam_a, fam_b):
    for fam in (fam_a, fam_b):
        crit = fam.base.critical_set
        for c, side, _, _ in fam.first_order_holes():
            assert min(abs(c - x) for x in crit) <= 1e-12
            # the branch beside c on the hole's side maps c to b
            br = next(br for br in fam.base.branches
                      if br.domain.lo - 1e-12 <= c + side * 1e-9 <= br.domain.hi + 1e-12)
            assert abs(br(c) - fam.boundary_b) <= 1e-12


def test_no_holes_when_only_b_maps_to_b():
    m = PiecewiseMap([
        Branch.affine(0.0, 0.25, 1.6, 0.0),      # image [0, 0.4], misses 1/2
        Branch.affine(0.25, 0.5, 2.0, -0.5),     # attains 1/2 only at x = 1/2
        Branch.affine(0.5, 0.75, 2.0, -0.5),     # attains 1/2 only at x = 1/2
        Branch.affine(0.75, 1.0, 1.6, -0.6),     # image [0.6, 1], misses 1/2
    ])
    # moving the branches that miss 1/2 opens no hole, and the preimages of b
    # at b itself leave the halves invariant
    fam = PerturbationFamily(base=m, intercept_eps=(0.1, 0.0, 0.0, -0.1))
    assert fam.first_order_holes() == []
    report = validate_hypotheses(fam, DEFAULT_EPS_LIST, depth=4)
    assert not any(d.startswith("setup fails") for d in report.diagnostics)
    # lifting the branch that reaches b from below opens b- itself
    fam = PerturbationFamily(base=m, intercept_eps=(0.0, 1.0, 0.0, 0.0))
    assert fam.first_order_holes() == [(0.5, -1, 0.5, True)]


def test_interior_preimage_of_b_is_a_violation():
    # full-branch map without invariant halves: preimages of b are interior
    m = PiecewiseMap([Branch.affine(0, 0.4, 2.5, 0),
                      Branch.affine(0.4, 0.8, 2.5, -1.0),
                      Branch.affine(0.8, 1.0, 5.0, -4.0)])
    report = validate_hypotheses(PerturbationFamily(base=m), DEFAULT_EPS_LIST, depth=4)
    assert not report.P2
    x = m.branches[0].preimage(0.5)
    assert report.diagnostics[0] == (
        f"setup fails: T0 opens the left hole [{x!r}, 0.4] across boundary 0.5; "
        "the two halves are not invariant at eps=0")
    assert sum(d.startswith("setup fails") for d in report.diagnostics) == 1


def test_branch_wholly_across_b_is_a_violation(fam_a):
    # family A with its first branch lifted to 3x + 1/2: [0, 1/6] maps onto
    # [1/2, 1], so every point of it crosses b, and b is attained only at the
    # branch end 0
    branches = list(fam_a.base.branches)
    branches[0] = Branch.affine(0.0, 1 / 6, 3.0, 0.5)
    fam = PerturbationFamily(base=PiecewiseMap(branches),
                             intercept_eps=fam_a.intercept_eps, boundary_b=0.5)
    report = validate_hypotheses(fam, DEFAULT_EPS_LIST)
    assert not report.P2
    assert "P2: FAIL" in report.lines()
    assert [d for d in report.diagnostics if d.startswith("setup fails")] == [
        f"setup fails: T0 opens the left hole [0.0, {1 / 6!r}] across boundary 0.5; "
        "the two halves are not invariant at eps=0"]


def test_validate_reports_a_hole_finder_refusal(monkeypatch, fam_a):
    # the report never raises: a refusal from compute_holes becomes its one
    # setup line
    def refuse(map_, b):
        raise MapModelError("computed left hole [0.1, 0.2] does not map into the right half")
    monkeypatch.setattr(map_model, "compute_holes", refuse)
    report = validate_hypotheses(fam_a, DEFAULT_EPS_LIST)
    assert not report.P2
    assert [d for d in report.diagnostics if d.startswith("setup fails")] == [
        "setup fails: computed left hole [0.1, 0.2] does not map into the right half; "
        "the two halves are not invariant at eps=0"]


@pytest.mark.parametrize("side, other", [("left", "right"), ("right", "left")])
def test_compute_holes_refuses_a_piece_off_its_crossing(monkeypatch, fam_a, side, other):
    # a piece whose points the branch that opened it keeps on their own side
    # of b is not a hole: family A's branch on [1/3, 1/2] maps onto [0, 1/2],
    # and its branch on [1/2, 2/3] onto [1/2, 1]
    T0 = fam_a.base
    target = T0.branches[2 if side == "left" else 3]
    real = map_model._escape_pieces

    def offset(branch, seg_lo, seg_hi, b, above):
        if branch is target and above == (side == "left"):
            return [Interval(seg_lo, seg_hi)]
        return real(branch, seg_lo, seg_hi, b, above)
    monkeypatch.setattr(map_model, "_escape_pieces", offset)
    lo, hi = target.domain.lo, target.domain.hi
    with pytest.raises(MapModelError) as info:
        compute_holes(T0, 0.5)
    assert str(info.value) == (f"computed {side} hole [{lo}, {hi}] does not map into "
                               f"the {other} half")


def test_validate_family_a_passes(fam_a):
    report = validate_hypotheses(fam_a, DEFAULT_EPS_LIST, depth=8)
    assert report.I2 and report.I4a and report.P2
    assert report.min_expansion == 3.0 and report.distortion == 0.0
    layers = postcritical_hierarchy(fam_a.base, 8)
    every = sorted({p for pts in layers.values() for p in pts})
    assert np.allclose(every, [0.0, 0.5, 1.0], atol=1e-12)


def test_validate_family_a_with_densities_checks_I3(fam_a):
    n = 384
    phi_l, phi_r = lebesgue_halves(n)
    report = validate_hypotheses(fam_a, DEFAULT_EPS_LIST, depth=8, phi_l=phi_l, phi_r=phi_r)
    assert report.I3 is True
    report = validate_hypotheses(fam_a, DEFAULT_EPS_LIST, depth=8)
    assert report.I3 is None


def test_validate_family_b_boundary_failure(fam_b):
    report = validate_hypotheses(fam_b, DEFAULT_EPS_LIST, depth=8)
    assert not report.P2
    assert any("T0(b-)" in d for d in report.diagnostics)
    # the critical orbit hits the holes at 1/2- and 1-, at every iterate
    assert not report.I2
    for k in range(1, 9):
        for h in ("0.5", "1"):
            assert (f"(I2) fails: iterate {k} of the critical set hits infinitesimal "
                    f"hole at {h} (distance 0)") in report.diagnostics


def test_I3_reads_the_density_on_the_hole_side(fam_a):
    # phi_l vanishes in the cell just below 1/3, where the hole 1/3- lies,
    # and is positive above it, so an average across 1/3 would pass
    n = 384
    phi_l, phi_r = lebesgue_halves(n)
    values = phi_l.values.copy()
    values[n // 3 - 1] = 0.0
    report = validate_hypotheses(fam_a, DEFAULT_EPS_LIST, depth=8,
                                 phi_l=DensityGrid(n, values), phi_r=phi_r)
    assert report.I3 is False
    assert "(I3) fails: ergodic density ~0 at hole 0.333333333333" in report.diagnostics
    # the other hole, 2/3+, reads phi_r above 2/3
    assert sum(d.startswith("(I3) fails") for d in report.diagnostics) == 1


def test_validate_doubling_fails_I4a(doubling_map):
    fam = PerturbationFamily(base=doubling_map, boundary_b=0.5)
    report = validate_hypotheses(fam, DEFAULT_EPS_LIST, depth=4)
    assert not report.I4a
    assert any("(I4a)" in d for d in report.diagnostics)


def test_failed_predicates_have_diagnostics(fam_b):
    report = validate_hypotheses(fam_b, DEFAULT_EPS_LIST, depth=8)
    if not report.I2:
        assert any("(I2)" in d for d in report.diagnostics)
    if not report.P2:
        assert any("(P2" in d for d in report.diagnostics)


def test_instantiate_at_zero_is_base(fam_a):
    T0 = fam_a.instantiate(0.0)
    assert T0 is fam_a.base
    for b0, b1 in zip(T0.branches, fam_a.base.branches):
        assert b0.slope == b1.slope and b0.intercept == b1.intercept


def test_instantiate_perturbs_declared_branches(fam_a):
    T = fam_a.instantiate(0.01)
    assert T.branches[1].intercept == pytest.approx(-0.5 + 0.03, abs=1e-15)
    assert T.branches[4].intercept == pytest.approx(-1.5 - 0.01, abs=1e-15)
    for i in (0, 2, 3, 5):
        assert T.branches[i].intercept == fam_a.base.branches[i].intercept
    assert T.critical_set == fam_a.base.critical_set


def test_branch_domains_tile_unit_interval(fam_a, fam_b):
    for fam in (fam_a, fam_b):
        crit = fam.base.critical_set
        assert crit[0] == 0.0 and crit[-1] == 1.0
        for a, b in zip(fam.base.branches, fam.base.branches[1:]):
            assert a.domain.hi == b.domain.lo


def test_overlapping_domains_rejected():
    with pytest.raises(MapModelError):
        PiecewiseMap([Branch.affine(0, 0.6, 2, 0, ),
                      Branch.affine(0.5, 1, 2, -1)])


def test_gap_in_domains_rejected():
    with pytest.raises(MapModelError):
        PiecewiseMap([Branch.affine(0, 0.4, 2, 0),
                      Branch.affine(0.5, 1, 2, -1)])


def test_non_expanding_branch_rejected():
    with pytest.raises(MapModelError):
        Branch.affine(0, 1, 0.8, 0)


def test_branch_image_escaping_rejected():
    with pytest.raises(MapModelError):
        Branch.affine(0, 0.5, 3, 0)    # image [0, 1.5]


def test_smooth_branch_perturbation():
    # additive callable perturbation: branch value becomes f + eps * g
    a = math.sqrt(2) - 1
    base = _smooth_plus_affine_map()
    bump = (lambda x: x * (a - x), lambda x: a - 2 * x, lambda x: -2.0)
    fam = PerturbationFamily(base=base, smooth_eps=(bump, None),
                             boundary_b=a)
    eps = 0.01
    T = fam.instantiate(eps)
    for x in (0.1, 0.2, 0.3):
        expected = (x * x + 2 * x) + eps * x * (a - x)
        assert evaluate(T, x)[0] == pytest.approx(expected, abs=1e-14)
    # the affine branch is untouched
    assert T.branches[1].slope == base.branches[1].slope


@pytest.mark.parametrize("entries", [1, 3])
def test_smooth_eps_needs_one_entry_per_branch(entries):
    # a short tuple used to construct and make instantiate raise IndexError;
    # a long one was accepted
    bump = (lambda x: x, lambda x: 1.0, lambda x: 0.0)
    with pytest.raises(MapModelError, match="^smooth_eps must have one entry per branch$"):
        PerturbationFamily(base=_smooth_plus_affine_map(),
                           smooth_eps=(bump,) + (None,) * (entries - 1))


def test_family_b_definition_matches_mod_formula(fam_b):
    # T_eps(x) = [(3x mod 1/2) + 3eps]1_{x<1/2} + [(-3x mod 1/2) + 1/2 - eps]1_{x>1/2}
    eps = 0.01
    T = fam_b.instantiate(eps)
    rng = np.random.default_rng(3)
    for _ in range(500):
        x = rng.uniform(1e-6, 1 - 1e-6)
        if abs(x - 0.5) < 1e-9:
            continue
        if x < 0.5:
            expected = (3 * x) % 0.5 + 3 * eps
        else:
            expected = (-3 * x) % 0.5 + 0.5 - eps
        vals = evaluate(T, x)
        assert min(abs(v - expected) for v in vals) <= 1e-9


def test_compute_holes_refuses_a_boundary_outside_the_interior(fam_a):
    for b in (0.0, 1.0):
        with pytest.raises(MapModelError, match="boundary point must be interior"):
            compute_holes(fam_a.base, b)
