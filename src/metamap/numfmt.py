"""Number formatting for the CSV writer.

Report columns repeat values: the x and mixture columns are shared by every
density file of a run, and the mixture has a handful of distinct values.
``format_unique`` formats each distinct value once and indexes the strings
back, so the writer's cost follows the number of distinct values, not of
cells.
"""

from __future__ import annotations

from typing import Callable

import numpy as np


def format_unique(values, fmt: Callable[[float], str]) -> list[str]:
    """``[fmt(float(v)) for v in values]``, calling ``fmt`` once per distinct
    value.

    Values are told apart by their float64 bit pattern, not by ``==``:
    ``-0.0`` and ``0.0`` compare equal but ``repr`` prints them differently,
    and NaNs compare unequal to themselves.
    """
    a = np.ascontiguousarray(values, dtype=np.float64)
    bits, inverse = np.unique(a.view(np.int64), return_inverse=True)
    strs = list(map(fmt, bits.view(np.float64).tolist()))
    return list(map(strs.__getitem__, inverse.tolist()))
