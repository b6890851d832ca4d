"""
Gaussian and generalized binomial coefficients
==============================================

Gaussian binomials are integer polynomials that specialize to ordinary
binomials at 1 and factor into cyclotomic polynomials with exponents
0 or 1. Replacing the variable's powers by sequence terms u_i gives the
generalized binomial (r|k)_u. The Lucasnomial Pascal rule builds it over
Q with no division, so it stays finite even when a u_i in the
denominator of the quotient form vanishes.
"""

from lucaskit import (
    FIBONACCI,
    RecurrenceParams,
    SequenceTable,
    bivariate_F,
    gaussian_binomial,
    gaussian_cyclotomic_factorization,
    generalized_binomial,
    generalized_binomial_quotient,
    generalized_binomial_row,
)

# The product formula builds each Gaussian binomial exactly.
for k in range(5):
    print(f"B(4,{k}) =", gaussian_binomial(4, k))

# At 1 the coefficients sum to the ordinary binomial; the coefficient
# lists read the same in both directions.
b = gaussian_binomial(6, 3)
print("\nB(6,3) at 1:", b(1))
print("palindromic:", list(b.coeffs) == list(b.coeffs)[::-1])

# Cyclotomic content: exponents from a floor formula, each 0 or 1.
print("\ncyclotomic factors of B(8,3):", gaussian_cyclotomic_factorization(8, 3))

# Homogenizing in two variables gives F(r, k, x, y), the paper's
# definition: (r|k)_u is F evaluated at the recurrence roots. The package
# computes it by the Lucasnomial Pascal rule
# (m|j) = u_{j+1} (m-1|j) - q u_{m-j-1} (m-1|j-1) on rationals, and it
# equals the quotient u_r...u_{r-k+1} / u_k...u_1 when that is defined.
F = bivariate_F(5, 2)
print("\nF(5,2) coefficients:", F.coeffs)
print("(5|2) over Fibonacci:", generalized_binomial(FIBONACCI, 5, 2))
print("same via the quotient:", generalized_binomial_quotient(FIBONACCI, 5, 2))
print("Fibonomial row (5|k):", " ".join(str(c) for c in generalized_binomial_row(FIBONACCI, 5)))

# At p=1, q=1 the term u_3 vanishes, so the quotient route breaks down;
# the Pascal rule never divides and still produces a finite value.
stressed = RecurrenceParams(1, 1)
print("\nu_3 at p=1, q=1:", SequenceTable(stressed).u(3))
print("(6|3) via the Pascal rule:", generalized_binomial(stressed, 6, 3))
try:
    generalized_binomial_quotient(stressed, 6, 3)
except ZeroDivisionError as exc:
    print("(6|3) via quotient:", exc)
