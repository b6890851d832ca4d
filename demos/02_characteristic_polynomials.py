"""
Characteristic polynomials of sequence powers
=============================================

The n-th powers u_r^n of a second-order sequence again satisfy a linear
recurrence; its characteristic polynomial Phi_n has the root multiset
{sigma^j tau^(n-j)}. Conjugation swaps sigma^j tau^(n-j) with
sigma^(n-j) tau^j, so the root product is taken over Q in conjugate pairs
x^2 - q^j w_(n-2j) x + q^n. Two constructions of Phi_n are compared, then
the Fibonacci specialization is factored with its forced sign.
"""

from lucaskit import (
    FIBONACCI,
    RecurrenceParams,
    classify_galois,
    fibonacci_factorization,
    make_roots,
    phi_coeff_formula,
    phi_product,
    quadratic_factor,
)

# Build Phi_n two ways: as the root product taken in conjugate pairs over
# Q, and from the closed coefficient formula using generalized binomials.
params = RecurrenceParams(1, -1)
for n in range(5):
    produced = phi_product(params, n)
    assert produced == phi_coeff_formula(params, n)
    print(f"Phi_{n}(1,-1,x) = {produced}")

# Every sigma^j tau^(n-j) is an exact root, whatever the parameters; this
# is the one place the demo needs Q(sqrt(d)). Expanding the n+1 linear
# factors there is how the tests check the pair product.
sigma, tau = make_roots(params)
phi4 = phi_product(params, 4)
print("\nroot check at n=4:", [str(phi4(sigma**j * tau ** (4 - j))) for j in range(5)])

# x^2 - w_n x + q^n, the j = 0 pair, divides Phi_n whenever sigma^n != tau^n.
quad = quadratic_factor(params, 4)
quotient, remainder = divmod(phi4, quad)
print(f"\nPhi_4 / ({quad}) = {quotient}, remainder {remainder}")

# In the Fibonacci case the remaining factor is Phi_(n-2) with x
# negated, up to a sign that degree bookkeeping forces to (-1)^(n-1).
for n in range(2, 7):
    quadratic, tail, sign = fibonacci_factorization(n)
    print(f"n={n}: sign {sign:+d}, quadratic {quadratic}, tail {tail}")

# The splitting behaviour of Phi_n depends only on the discriminant.
for p, q in [(1, -1), (3, 2), (2, 1), (1, 1)]:
    print(f"p={p}, q={q}: {classify_galois(RecurrenceParams(p, q))}")
