"""
Companion sequences and fast doubling
=====================================

A tour of the sequence layer: the pair u_n, w_n attached to the
recurrence x_r = p x_{r-1} - q x_{r-2}, exact rational parameters,
and the doubling algorithm that reaches large indices in O(log n)
multiplications.
"""

from lucaskit import (
    FIBONACCI,
    MulCounter,
    RecurrenceParams,
    SequenceTable,
    cubic_coefficients,
    fast_pair,
    iter_pair,
    u_from_w,
    w_from_u,
)

# The classical case p=1, q=-1 gives the Fibonacci numbers u_n and the
# Lucas numbers w_n.
table = SequenceTable(FIBONACCI)
print("n   :", *range(11))
print("F_n :", *(table.u(n) for n in range(11)))
print("L_n :", *(table.w(n) for n in range(11)))

# Parameters are exact rationals, so nothing is special about integers.
# The table still grows integers: with lam = lcm(2, 3) = 6 it runs the
# recurrence at (6p, 36q) = (3, -12), which gives 6^(n-1) u_n, and divides
# by 6^(n-1) when an index is first looked up.
half = RecurrenceParams("1/2", "-1/3")
t = SequenceTable(half)
print("\np=1/2, q=-1/3:", [str(t.u(n)) for n in range(6)])

# Each sequence determines the other through two-term linear relations.
print("\nw_7 from u alone:", w_from_u(FIBONACCI, 7), "==", table.w(7))
print("u_7 from w alone:", u_from_w(FIBONACCI, 7), "==", table.u(7))

# Squares of u_n and w_n, and the powers q^n, all satisfy one cubic
# recurrence whose coefficients depend only on p and q.
print("\ncubic coefficients at p=1, q=-1:", cubic_coefficients(FIBONACCI))

# Doubling computes (u_n, w_n) from the bits of n. Counting the
# multiplications shows the gap against plain iteration.
n = 4096
slow_count, fast_count = MulCounter(), MulCounter()
slow = iter_pair(FIBONACCI, n, slow_count)
fast = fast_pair(FIBONACCI, n, fast_count)
assert slow == fast
print(f"\nagreement at n={n}: u has {len(str(slow[0]))} digits")
print(f"iteration: {slow_count.count} multiplications")
print(f"doubling:  {fast_count.count} multiplications")
