import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import traced_peak
from metamap.numfmt import fixed_cells, repr_cells


def mismatches(values) -> list[tuple[str, bytes]]:
    """The values whose row of ``repr_cells`` is not their repr."""
    v = np.asarray(values, dtype=np.float64)
    cells = repr_cells(v)
    assert cells.shape[0] == len(v) and cells.dtype == np.uint8
    return [(repr(x), row[row != 0].tobytes()) for x, row in zip(v.tolist(), cells)
            if row[row != 0].tobytes() != repr(x).encode()]


def with_neighbours(values) -> np.ndarray:
    """Each value and the doubles one ulp below and above it, both signs."""
    v = np.asarray(values, dtype=np.float64)
    v = np.concatenate([v, np.nextafter(v, -np.inf), np.nextafter(v, np.inf)])
    return np.concatenate([v, -v])


def ties(digits: int, count: int = 2000) -> np.ndarray:
    """Doubles in [1, 10) whose exact decimal has ``digits`` significant
    digits, the last a 5: m / 2**(digits - 1) for odd m.  Scaled to 17
    digits, digits = 16 puts the 15-digit candidates on a tie, 17 the
    16-digit ones and 18 the 17-digit ones."""
    k = digits - 1
    m = np.arange(2 ** k + 1, 10 * 2 ** k, 2, dtype=np.int64)
    picks = np.linspace(0, len(m) - 1, count).astype(np.int64)
    # the top of [1, 10) too, where half an ulp spans more than one 16-digit step
    return np.concatenate([m[picks], m[-count:]]) / 2.0 ** k


@settings(max_examples=200, deadline=None)
@given(st.lists(st.integers(0, 2 ** 64 - 1), min_size=1, max_size=64))
def test_repr_cells_on_raw_bit_patterns(bits):
    values = np.array(bits, dtype=np.uint64).view(np.float64)
    assert mismatches(values) == []


def test_repr_cells_on_random_bit_patterns():
    rng = np.random.default_rng(2024)
    bits = rng.integers(0, 2 ** 63, size=50000, dtype=np.int64)
    bits[::2] |= np.int64(-2 ** 63)
    assert mismatches(bits.view(np.float64)) == []
    # and on the fast path's own range, [1e-20, 1e15)
    scaled = rng.random(50000) * 10.0 ** rng.integers(-20, 16, 50000)
    assert mismatches(scaled) == []


def test_repr_cells_on_powers_of_two_and_ten():
    tens = [float(f"1e{e}") for e in range(-25, 18)]
    twos = [2.0 ** e for e in range(math.floor(math.log2(1e-25)),
                                    math.ceil(math.log2(1e17)) + 1)]
    assert mismatches(with_neighbours(tens + twos)) == []


def test_repr_cells_where_the_notation_switches():
    # repr writes 1e-05 but 0.0001, and 1e+16 but 1000000000000000.0
    edges = [1e-4, 1e-5, 1e16, 1e15, 9.999999999999999e-05, 1.0000000000000001e-05,
             9999999999999998.0, 999999999999999.9, 0.00010000000000000002]
    v = with_neighbours(edges)
    assert mismatches(v) == []
    assert {repr(x) for x in v.tolist()} >= {
        "0.0001", "9.999999999999999e-05", "1e+16", "1000000000000000.0"}


def test_repr_cells_on_zeros_and_non_finite_values():
    v = np.array([0.0, -0.0, math.nan, -math.nan, math.inf, -math.inf,
                  5e-324, -5e-324, 2.2250738585072014e-308, 1.7976931348623157e+308])
    assert mismatches(v) == []
    cells = repr_cells(v[:2])
    assert [row[row != 0].tobytes() for row in cells] == [b"0.0", b"-0.0"]


def test_repr_cells_on_candidates_that_sit_on_a_tie():
    for digits in (16, 17, 18):
        v = ties(digits)
        assert len(repr(float(v[0])).replace(".", "")) <= 17
        assert mismatches(with_neighbours(v)) == []


def test_repr_cells_of_an_empty_array():
    assert repr_cells(np.array([])).shape[0] == 0


def test_repr_cells_makes_no_megabyte_temporaries():
    # phi and psi of one 3840-cell density file, with zeros and values that
    # go through repr.  The digits are uint8 from the start and the float64
    # temporaries are reused: the peak reads 0.95 MB, against 1.26 MB with
    # every temporary kept and 2.18 MB with float64 digit planes.
    rng = np.random.default_rng(5)
    v = rng.random(7680) * 10.0 ** rng.integers(-15, 2, 7680)
    v[::97], v[1::389] = 0.0, 2.0 ** -1074
    assert traced_peak(repr_cells, v) < 1.5e6


# Where '{:.2f}' of 100*|v| sits on or near a half-integer, and where the
# fast path stops: m/8 ties, both zeros, subnormals, non-finite values and
# 2**24 with its one-ulp neighbours.
FIXED_EDGES = np.concatenate([
    np.arange(-400, 400) / 8, with_neighbours([0.0, 5e-324, 2.2250738585072014e-308,
                                                 0.005, 0.995, 2.0 ** 24, 1e300]),
    [math.nan, -math.nan, math.inf, -math.inf]])


@settings(max_examples=200, deadline=None)
@given(st.lists(st.floats() | st.floats(-2000, 2000), min_size=1, max_size=64))
def test_fixed_cells_match_per_value_format(drawn):
    v = np.concatenate([drawn, FIXED_EDGES])
    cells = fixed_cells(v)
    assert cells.shape[0] == len(v) and cells.dtype == np.uint8
    assert [row[row != 0].tobytes() for row in cells] == \
        ["{:.2f}".format(x).encode() for x in v.tolist()]


@pytest.mark.filterwarnings("error")
def test_signaling_nans_format_without_a_warning():
    # fixed_cells multiplied |v| by 100 first, which warned "invalid value
    # encountered in multiply" on a signaling NaN, and raised under -W error
    v = np.array([0x7FF0000000000001, 0xFFF0000000000001, 0x7FF4000000000000,
                  0x7FF8000000000000], dtype=np.uint64).view(np.float64)
    for cells in (fixed_cells(v), repr_cells(v)):
        assert [row[row != 0].tobytes() for row in cells] == [b"nan"] * 4
