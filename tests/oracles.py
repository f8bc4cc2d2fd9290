"""Reference evaluation routes that only the tests use.

:func:`composed_expected_temperatures` is the forward pass over a composed
chain's per-step zone factors. Over the 2^N states s of step k it carries
p_k(s) = P(X_k = s) and m_k(s) = E[T_k 1{X_k = s}], and steps them with
m_{k+1} = P_k^T (m_k A^T + p_k g_k) and p_{k+1} = p_k P_k, where g_k(s) is
the heat gain of state s during hour k (its own occupancy bits and the
step's heating bits). P_k is the Kronecker product of the zones' 2x2 step
matrices, so it is applied one zone axis at a time, in O(N 2^N) per
carried column, and never built. E[T_theta] is the sum of m_theta over the
states, and one pass up to the largest theta serves every theta.

The pass takes plain arrays and imports nothing from the package, so it
checks the package's direct recursion and path oracle from outside it;
``conftest.composed_values`` feeds it a composed model's factors.
"""

from __future__ import annotations

import itertools

import numpy as np


def composed_expected_temperatures(factors, heating, initial_occupied, a, t0, q_int, q_rad,
                                   thetas) -> np.ndarray:
    """E[T_theta] per (theta, zone), a (len(thetas), N) array in chain order.

    ``factors`` is the (K, N, 2, 2) stack of each step's zone matrices, row
    and column 0 occupied; ``heating`` the (K+1, N) heating bits;
    ``initial_occupied`` the N start labels; ``a`` and ``t0`` the update
    matrix and start temperatures, and ``q_int`` and ``q_rad`` the N gains,
    all in chain order. Only ``factors[k]`` for k below the largest theta
    is read.
    """
    n = len(initial_occupied)
    a_t = np.asarray(a, dtype=float).T
    t0 = np.asarray(t0, dtype=float)
    # occupant gain of every state of a step, rows in state order
    occupant = np.array(list(itertools.product((1.0, 0.0), repeat=n)))
    occupant *= q_int
    heating = np.asarray(heating, dtype=float)

    # carried[:, :n] is m_k and carried[:, n] is p_k
    start = int("".join("0" if occupied else "1" for occupied in initial_occupied), 2)
    carried = np.zeros((2 ** n, n + 1))
    carried[start] = [*t0, 1.0]
    expected = [t0]
    for k in range(max(thetas)):
        m, p = carried[:, :n], carried[:, n:]
        gain = occupant + q_rad * heating[k]
        carried = np.concatenate([m @ a_t + p * gain, p], axis=1)
        # P_k^T one zone at a time: zone j's bit is axis 1 of this view
        for j, factor in enumerate(factors[k]):
            carried = np.matmul(factor.T, carried.reshape(2 ** j, 2, -1)).reshape(2 ** n, -1)
        expected.append(carried[:, :n].sum(axis=0))
    return np.array(expected)[list(thetas)]
