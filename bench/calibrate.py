"""A fixed numpy loop, timed next to every benchmark call, that corrects
solve times for how fast a shared machine runs at the moment.

On a shared host the same solve takes from 0.7x to 1.3x its usual time,
in spells of seconds to minutes set by other tenants' load, so the median
solve time of one run moves with the spell it fell in. A fixed loop timed
between the calls slows in the same spells, so the benchmark reports

    solve_norm_s = median solve time * nominal_s / median loop time,

the solve time on a machine where the loop takes nominal_s. The loop uses
numpy alone, never gaugecg: a change to gaugecg moves the solve time and
not the loop. It mimics one conditional-gradient step of a logistic loss
on data of the workload's shape, so it exercises the same mix of BLAS
matrix-vector products and interpreter overhead. The loop's own noise
adds to the result: in a quiet spell solve_norm_s spreads more than the
wall time, in a busy one much less.
"""

import time

import numpy as np

# independent of the workload seed: the loop is the same in every run
DATA_SEED = 0


class Calibration:
    """iters logistic conditional-gradient steps on fixed (n, d) data."""

    def __init__(self, n, d, iters, nominal_s):
        rng = np.random.default_rng(DATA_SEED)
        self.a = rng.standard_normal((n, d))
        self.y = np.where(rng.random(n) < 0.5, -1.0, 1.0)
        self.iters = iters
        self.nominal_s = nominal_s

    def run(self):
        """Seconds the loop takes once."""
        a, y = self.a, self.y
        n, d = a.shape
        x = np.zeros(d)
        start = time.perf_counter()
        for t in range(self.iters):
            z = a @ x
            g = a.T @ (-y / (1.0 + np.exp(y * z))) / n
            j = int(np.argmax(np.abs(g)))
            step = 2.0 / (t + 2.0)
            x *= 1.0 - step
            x[j] -= step * np.sign(g[j])
            float(np.mean(np.logaddexp(0.0, -y * z)))
        return time.perf_counter() - start

