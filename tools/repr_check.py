#!/usr/bin/env python3
"""Soak check of ``metamap.numfmt``'s formatters against ``repr`` and ``'{:.2f}'``.

    PYTHONPATH=src python3 tools/repr_check.py N SEED

Formats N random values from numpy's default generator seeded with SEED,
half of them raw 64-bit patterns and half drawn on the ``repr_cells`` fast
range [1e-20, 1e15), and the edge sets of tests/test_numfmt.py: powers of two and of ten from
1e-25 to 1e17 with their one-ulp neighbours, the switches between fixed
and exponent notation, zeros, subnormals and non-finite values, and
values whose 15-, 16- or 17-digit candidates sit on a tie.  It compares
``repr_cells`` with ``repr`` on each value.  It also joins the values with
``join_rows`` as the density CSV writer does, as the phi and psi columns
of rows whose x and mixture are the values' own cells, and compares each
row with the join of the cells' reprs.  Last, it compares ``fixed_cells``
with ``'{:.2f}'`` on the values and on the values scaled into an SVG
plot's pixel range, 72 + 648 * fmod(v, 1).  It prints the number of
values checked and of mismatches (values and rows), with the first few,
and exits 1 on any mismatch.  Too slow for the test suite: N = 10**7
takes about 105 s on one core.
"""

import math
import sys

import numpy as np

from metamap.numfmt import fixed_cells, join_rows, repr_cells

CHUNK = 100_000


def edge_values() -> np.ndarray:
    tens = [float(f"1e{e}") for e in range(-25, 18)]
    twos = [2.0 ** e for e in range(math.floor(math.log2(1e-25)),
                                    math.ceil(math.log2(1e17)) + 1)]
    switches = [1e-4, 1e-5, 1e15, 1e16]
    specials = [0.0, math.nan, math.inf, 5e-324, 2.2250738585072014e-308,
                1.7976931348623157e+308]
    v = np.array(tens + twos + switches + specials)
    with np.errstate(over="ignore"):            # past the largest double: inf
        v = np.concatenate([v, np.nextafter(v, -np.inf), np.nextafter(v, np.inf)])
    # m / 2**k for odd m lies in [1, 10) with k decimals, the last a 5
    ties = [np.arange(2 ** k + 1, 10 * 2 ** k, 2, dtype=np.int64)[::7] / 2.0 ** k
            for k in (15, 16, 17)]
    v = np.concatenate([v, *ties])
    return np.concatenate([v, -v])


def random_values(rng, n: int) -> np.ndarray:
    bits = rng.integers(0, 2 ** 63, size=n, dtype=np.int64)
    bits[::2] |= np.int64(-2 ** 63)
    v = bits.view(np.float64)
    v[1::2] = rng.random(len(v[1::2])) * 10.0 ** rng.integers(-20, 16, len(v[1::2]))
    return v


def differ(want: list[str], text: bytes) -> list[tuple[str, str]]:
    """(want, got) for each line of text that is not its want, and for a
    count of lines that differs."""
    got = text.decode().split("\n")[:-1]
    bad = [(w, g) for w, g in zip(want, got) if w != g]
    if len(got) != len(want):
        bad.append((f"{len(want)} lines", f"{len(got)} lines"))
    return bad


def mismatches(v: np.ndarray) -> list[tuple[str, str]]:
    """(want, got) for each value whose cells are not its repr or its
    '{:.2f}', raw and as a pixel, and for each density row that is not the
    join of its cells' reprs."""
    n = len(v)
    cells = repr_cells(v)
    reprs = list(map(repr, v.tolist()))
    bad = differ(reprs, join_rows([cells], b"\n"))
    # phi is v and psi is v reversed, beside x and mixture cells of v itself
    both = repr_cells(np.concatenate([v, v[::-1]]))
    bad += differ([f"{r},{r},{r},{s}" for r, s in zip(reprs, reversed(reprs))],
                  join_rows([cells, both[:n], cells, both[n:]], b",,,\n"))
    # fmod of an infinity is NaN, and arithmetic on a signaling NaN of the
    # raw patterns is invalid
    with np.errstate(invalid="ignore"):
        pixels = 72.0 + 648.0 * np.fmod(v, 1.0)
        for w in (v, pixels):
            bad += differ(list(map("{:.2f}".format, w.tolist())),
                          join_rows([fixed_cells(w)], b"\n"))
    return bad


def main(argv) -> int:
    if len(argv) != 3:
        print("usage: repr_check.py N SEED", file=sys.stderr)
        return 2
    n, seed = int(argv[1]), int(argv[2])
    rng = np.random.default_rng(seed)
    edges = edge_values()
    bad = mismatches(edges)
    checked = len(edges)
    for start in range(0, n, CHUNK):
        v = random_values(rng, min(CHUNK, n - start))
        bad += mismatches(v)
        checked += len(v)
    print(f"checked {checked} values: {len(bad)} mismatches")
    for want, got in bad[:10]:
        print(f"  want {want}  got {got}")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
