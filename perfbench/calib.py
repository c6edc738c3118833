"""Host-speed calibration kernel, timed next to the measured work.

The benchmark host's speed drifts over minutes. A pure-Python loop and a
sparse matvec slow down together by up to 2x, and CPU time tracks wall time,
so the cause is the core itself and not scheduling. Raw pass times therefore
spread by ~30% between runs. A fixed kernel is timed before and after every
measured piece of work in the same process, and the end-to-end ``wall_norm``
divides the pass time by it. On a 2-core x86 machine that cut the spread of
5-second blocks from 0.29 to 0.05 (IQR/median).

The kernel is benchmark code and never changes with the program. It runs a
Python loop and CSR vector-matrix products on a fixed random matrix that is
about the size of the fine Ulam matrix, so that interpreter and
sparse-kernel speed both count.
"""

import time

import numpy as np
from scipy import sparse

N = 15360
NNZ_PER_ROW = 3.5
MATVECS = 60
LOOP = 60000
SEED = 0x5EED


class Calibrator:
    """Times the fixed kernel; ``samples`` holds every timing taken."""

    def __init__(self):
        rng = np.random.default_rng(SEED)
        self.matrix = sparse.random(N, N, density=NNZ_PER_ROW / N, random_state=rng,
                                    format="csr")
        self.start = rng.random(N) + 0.5
        self.samples: list[float] = []

    def sample(self) -> float:
        t = time.perf_counter()
        acc = 0
        for i in range(LOOP):
            acc += i * i
        y = self.start
        for _ in range(MATVECS):
            y = y @ self.matrix
            y /= y.sum()
        dt = time.perf_counter() - t
        self.samples.append(dt)
        return dt
