#!/usr/bin/env python3
"""Walk through the exact side of the computation.

The spinor L-function of the unique weight-12 degree-3 cusp eigenform
factors into elliptic pieces,

    L(s) = L(s-9, Delta) L(s-10, Delta) L(s, Delta x g20),

and each critical value s = 12..19 is a rational multiple of a power of pi
times <Delta,Delta> <g20,g20>.  Everything below is computed from first
principles in exact rational arithmetic: Eisenstein constant terms,
holomorphic-projection coefficients, then the assembled coefficients.
"""

from spinl import (
    c_constants,
    main_identity,
    projection_coeffs,
    rankin_g20_value,
    two_delta_product,
)
from spinl.cli import factored_form


def banner(title):
    print()
    print(title)
    print("-" * len(title))


banner("Eisenstein constant terms feeding the projection (s = 7)")
c0p, c0pp, c1, c2 = c_constants(7)
print(f"C0' : {c0p.rational} * pi^{c0p.pi_exponent}    <- zeta(1)-pole against the 1/Gamma zero")
print(f"C0'': {c0pp.rational} * pi^{c0pp.pi_exponent}")
print(f"C1  : {c1.rational} * pi^{c1.pi_exponent}")
print(f"C2  : {c2.rational} * pi^{c2.pi_exponent}")

banner("Holomorphic-projection Fourier coefficients A1(s), A2(s)")
for s in range(3, 11):
    pc = projection_coeffs(s)
    (a1, e1), (a2, _) = pc.a1.as_monomial(), pc.a2.as_monomial()
    print(f"s={s:2d}: A1 = {str(a1):>12s} * pi^{e1:<3d} A2 = {a2}")

banner("Coefficient of <Delta,Delta> in L(s-9,Delta) L(s-10,Delta)")
for s in range(12, 20):
    r = two_delta_product(s)
    print(f"s={s}: {factored_form(r.rational):>28s} * pi^{r.pi_exponent}")

banner("Coefficient of <g20,g20> in L(s, Delta x g20)")
for s in range(12, 20):
    r = rankin_g20_value(s)
    print(f"s={s}: {factored_form(r.rational):>38s} * pi^{r.pi_exponent}")

banner("Assembled spinor critical values (product of the two rows above)")
for s in range(12, 20):
    r = main_identity(s)
    print(f"s={s}: {r.rational.numerator}/{r.rational.denominator} * pi^{r.pi_exponent}")
print()
print("The s=17 numerator is 2^34 = 17179869184 (a well-known factored-form")
print("typo in the literature prints 2^24; the decimal column and the")
print("product of the two factor tables both give 2^34).")
