"""Time-stepping kernel for the lattice module.

Scheme: second-order leapfrog for the discrete Klein-Gordon equation on a
periodic spatial circle, unit spacing and unit time step, with the mass term
averaged over the two neighbouring time slices:

    phi[t+1, x] = (phi[t, x-1] + phi[t, x+1]) / (1 + m^2/2) - phi[t-1, x]

At the unit (magic) time step the plain explicit mass term is unstable for
any m > 0; the time-averaged form is neutrally stable for every mass while
keeping the update's dependence cone at exactly one site per step and
keeping the evolution time-reversal symmetric.

Why the table is exact outside the light cone: each entry is computed from
its two spatial neighbours one step back and itself two steps back, so an
entry that no kick can reach is built only from exact zeros, and floating-
point arithmetic on zeros yields exact zeros.
"""

from __future__ import annotations

import numpy as np

# Read by perfbench's machine facts; the kernel has one numpy path.
HAS_NUMBA = False


def impulse_response(n_sites: int, n_steps: int, mass: float) -> np.ndarray:
    """Leapfrog table g[t, x]: unit momentum kick at site 0, time 0."""
    g = np.zeros((n_steps, n_sites))
    if n_steps > 1:
        g[1, 0] = 1.0
    denom = 1.0 + 0.5 * mass * mass
    for t in range(2, n_steps):
        prev = g[t - 1]
        g[t] = (np.roll(prev, 1) + np.roll(prev, -1)) / denom - g[t - 2]
    return g
