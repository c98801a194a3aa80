"""High-precision reference values, computed with mpmath alone.

Nothing here imports qultra: the benchmark's correctness checks compare
the library against these sums, written from the defining formulas.

* ``defining_sum`` is the two-sided series
  C_n(z) = sum_k g_k g_{n-k} z^{n-2k}, g_j = (beta gamma; q)_j / (q gamma; q)_j,
  which converges inside the annulus |q/beta| < |z|^2 < |beta/q|.
* ``sixpsi8_sum`` is the very-well-poised 6psi8 representation of the
  same function, whose two tails decay like q^{k^2} for every z != 0; it
  gives C_n off that annulus.
"""

from __future__ import annotations

import mpmath as mp

DPS = 30


def _g_values(j_lo: int, j_hi: int, bg, gq, q) -> dict:
    """g_j for j_lo <= j <= j_hi by the one-step recursion from g_0 = 1."""
    g = {0: mp.mpf(1)}
    for j in range(0, j_hi):
        g[j + 1] = g[j] * (1 - bg * q ** j) / (1 - gq * q ** j)
    for j in range(0, j_lo, -1):
        g[j - 1] = g[j] * (1 - gq * q ** (j - 1)) / (1 - bg * q ** (j - 1))
    return g


def defining_sum(n: int, z: complex, q: float, beta: float, gamma: float,
                 width: int = 90) -> complex:
    """C_n(z) from 2*width+1 terms of the defining series around its centre.

    The terms decay like |q/(beta z^2)|^|k| on one side and |q z^2/beta|^|k|
    on the other; width = 90 leaves them below 1e-30 of the sum for
    |z| = 1 at (q, beta) = (0.3, 0.8).
    """
    with mp.workdps(DPS):
        q, beta, gamma, z = mp.mpf(q), mp.mpf(beta), mp.mpf(gamma), mp.mpc(z)
        bg, gq = beta * gamma, q * gamma
        lo, hi = min(0, n) - width, max(0, n) + width
        g = _g_values(lo - abs(n), hi + abs(n), bg, gq, q)
        return complex(mp.fsum(g[k] * g[n - k] * z ** (n - 2 * k)
                               for k in range(lo, hi + 1)))


def sixpsi8_sum(n: int, z: complex, q: float, beta: float, gamma: float,
                width: int = 40) -> complex:
    """C_n(z) from the 6psi8 representation:

    g_n z^n (q/c, q/d, aq/e, aq/f; q)_inf / (aq, q/a, aq/(cd), aq/(ef); q)_inf
      * 6psi8(q a^{1/2}, -q a^{1/2}, c, d, e, f;
              a^{1/2}, -a^{1/2}, aq/c, aq/d, aq/e, aq/f, 0, 0; q, a^3 q^2/(cdef))

    with a = q^{-n}/z^2, c = a/gamma, d = beta gamma/z^2, e = beta gamma,
    f = q^{-n}/gamma.  Two lower parameters are 0, so each term carries
    q^{k(k-1)} and width = 40 terms per side is far past convergence.
    """
    with mp.workdps(DPS):
        q, beta, gamma, z = mp.mpf(q), mp.mpf(beta), mp.mpf(gamma), mp.mpc(z)
        bg, gq = beta * gamma, q * gamma
        a = q ** (-n) / (z * z)
        c, d, e, f = a / gamma, bg / (z * z), bg, q ** (-n) / gamma
        sa = mp.sqrt(a)
        pref = _g_values(min(n, 0), max(n, 0), bg, gq, q)[n] * z ** n
        pref *= (mp.qp(q / c, q) * mp.qp(q / d, q) * mp.qp(a * q / e, q)
                 * mp.qp(a * q / f, q)
                 / (mp.qp(a * q, q) * mp.qp(q / a, q) * mp.qp(a * q / (c * d), q)
                    * mp.qp(a * q / (e * f), q)))
        upper = [q * sa, -q * sa, c, d, e, f]
        lower = [sa, -sa, a * q / c, a * q / d, a * q / e, a * q / f]
        x = a ** 3 * q ** 2 / (c * d * e * f)
        terms = [mp.mpc(1)]
        t = mp.mpc(1)
        for k in range(width):
            qk = q ** k
            t *= (mp.fprod(1 - u * qk for u in upper)
                  / mp.fprod(1 - b * qk for b in lower) * qk ** 2 * x)
            terms.append(t)
        t = mp.mpc(1)
        for k in range(0, -width, -1):
            qk = q ** (k - 1)
            t *= (mp.fprod(1 - b * qk for b in lower)
                  / mp.fprod(1 - u * qk for u in upper) / (qk ** 2 * x))
            terms.append(t)
        return complex(pref * mp.fsum(terms))
