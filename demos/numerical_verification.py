#!/usr/bin/env python3
"""Verify the exact tables numerically, end to end.

Three independent numerical routes:

  * degree-2 values through incomplete-gamma smoothed sums,
  * the degree-4 value through a Bessel-K kernel (whose Mellin-transform
    property is itself checked by quadrature before use),
  * Rankin's formula for the Petersson norms.

Each exact coefficient, rendered with the norms, must match the direct
product of evaluator runs.  At working precision 30 with fresh norms the
agreement is far below the 1e-12 gate."""

import time

from mpmath import mp

from spinl.numeric_lfun import kernel_mellin_check, verify_tables

print("kernel Mellin identity (quadrature vs Gamma(s)Gamma(s-11), compared at")
print("50 digits; one node set serves all seven points):")
t0 = time.time()
for s0 in range(13, 20):
    err = kernel_mellin_check(s0, 30)
    print(f"  s0={s0}: relative error {mp.nstr(mp.convert(err), 3)}")
print(f"  [{time.time() - t0:.2f}s]")

print()
print("exact * norms vs direct numeric products (30 digits, 150 coefficients,")
print("freshly computed norms):")
report = verify_tables(30, 150)
for row in report.rows:
    if row.branch == "spin":
        print(f"  s={row.s}: exact {mp.nstr(mp.convert(row.exact_value), 17)}"
              f"   direct {mp.nstr(mp.convert(row.direct_value), 17)}"
              f"   rel diff {mp.nstr(mp.convert(row.rel_diff), 3)}")
print()
print("max relative difference over all 24 comparisons:",
      mp.nstr(mp.convert(report.max_rel_diff), 3))
