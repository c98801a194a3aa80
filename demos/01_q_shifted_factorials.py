"""q-shifted factorials: finite, negative-index and infinite products."""

import numpy as np

from qultra import INFINITY, SpectralPoint, TruncationPolicy, poch, poch_multi, poch_pm

q = 0.3

# (a; q)_k = (1 - a)(1 - a q)...(1 - a q^{k-1})
print("(0.5; 0.3)_2  =", poch(0.5, q, 2), " (by hand: 0.5 * 0.85 = 0.425)")

# negative index unwinds the product: (a; q)_{-1} = 1 / (1 - a/q)
print("(0.5; 0.3)_-1 =", poch(0.5, q, -1))

# the infinite product is truncated with a certified geometric tail bound;
# tightening the policy does not change the leading digits
loose = TruncationPolicy(rel_tol=1e-8)
tight = TruncationPolicy(rel_tol=1e-15)
print("(0.5; 0.3)_inf =", poch(0.5, q, INFINITY, tight),
      " (loose policy:", poch(0.5, q, INFINITY, loose), ")")

# multi-parameter shorthand: one call per parameter tuple
print("(0.5, 0.2, 0.1; 0.3)_inf =", poch_multi([0.5, 0.2, 0.1], q, INFINITY))

# the e^{+-i theta} pair product; real for real t because the two factors
# are conjugate
p = SpectralPoint.from_theta(1.0)
print("(0.4 e^{+-i}; 0.3)_inf =", poch_pm(0.4, p, q))

# only the infinite product accepts a numpy array in the first slot, which
# is how the quadrature module evaluates weights on full node grids; a
# finite product of an array raises DomainError
zs = np.exp(2j * np.linspace(0.1, 3.0, 5))
print("array of infinite products:")
print(poch(zs, q, INFINITY))
