"""
==========================
Measure-weighted products
==========================

Average a family of structures by a rational probability charge and watch
the defining identity hold exactly: a formula's value at a class of the
quotient equals the weighted average of its values in the factors.
"""

import random
from fractions import Fraction as F

from affinelogic.mean import Ultracharge, build_ultramean, check_ultramean_identity
from affinelogic.rationals import format_rational
from affinelogic.sampling import random_formula, random_structure_family
from affinelogic.syntax import free_vars, render

# ----------------------------------------------------------------------------
# three random factors sharing one signature, weighted 1/2, 1/3, 1/6

rng = random.Random(2024)
factors = random_structure_family(rng, 3, max_size=4, product_cap=64)
mu = Ultracharge([F(1, 2), F(1, 3), F(1, 6)])
mean = build_ultramean(factors, mu)

print("factor sizes:", [M.size for M in factors])
print("quotient size:", mean.structure.size)
print("support of mu:", mean.support)
print()

# ----------------------------------------------------------------------------
# the identity, checked for a handful of random formulas and assignments

sig = factors[0].signature()
for trial in range(5):
    phi = random_formula(rng, sig, ("x", "y"), depth=3, quantifiers=1)
    raw = {
        v: tuple(rng.randrange(M.size) for M in factors) for v in sorted(free_vars(phi))
    }
    rep = check_ultramean_identity(factors, mu, phi, raw, mean=mean)
    print(f"trial {trial}: {render(phi)}")
    print(
        f"  quotient {format_rational(rep.quotient_value)}"
        f" == integral {format_rational(rep.integral_value)}: {rep.equal}"
    )

# ----------------------------------------------------------------------------
# zero-weight factors are invisible: a point mass gives an isometric copy

point = Ultracharge([F(1), F(0), F(0)])
collapsed = build_ultramean(factors, point)
print()
print(
    f"point-mass mean has {collapsed.structure.size} classes "
    f"(= size of factor 0: {factors[0].size})"
)
