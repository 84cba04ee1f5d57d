"""Reference values pinned by the regression suite.

Exact rows (rationals and pi exponents) and 15-digit numeric columns for
the three critical-value tables, the direct-computation comparison columns,
the degree-4 coefficient column, and the published 28-digit Petersson
norms (whose trailing digits carry double-precision assembly noise; see
README notes)."""

from fractions import Fraction

# (s: pi-exponent, A1, A2) for the holomorphic-projection coefficients
TABLE1 = {
    3: (-6, Fraction(1, 50), Fraction(76, 25)),
    4: (-4, Fraction(1, 270), Fraction(56, 135)),
    5: (-2, Fraction(1, 1440), Fraction(1, 20)),
    6: (0, Fraction(1, 6048), Fraction(5, 756)),
    7: (2, Fraction(1, 16800), Fraction(1, 900)),
    8: (4, Fraction(17, 518400), Fraction(13, 64800)),
    9: (6, Fraction(11, 453600), Fraction(-1, 56700)),
    10: (8, Fraction(13, 604800), Fraction(-1, 10800)),
}

# (s: rational, pi-exponent) for the <Delta,Delta> factor L(s-9,D)L(s-10,D)
TABLE2 = {
    12: (Fraction(32768, 225), 5),
    13: (Fraction(4096, 81), 7),
    14: (Fraction(2048, 189), 9),
    15: (Fraction(8192, 4725), 11),
    16: (Fraction(16384, 70875), 13),
    17: (Fraction(8192, 297675), 15),
    18: (Fraction(8192, 2679075), 17),
    19: (Fraction(65536, 200930625), 19),
}

# (s: rational, pi-exponent) for the <g20,g20> factor L(s, D x g20)
TABLE3 = {
    12: (Fraction(524288, 2338875), 13),
    13: (Fraction(2097152, 88409475), 15),
    14: (Fraction(4194304, 2791213425), 17),
    15: (Fraction(8388608, 97692469875), 19),
    16: (Fraction(8388608, 1465387048125), 21),
    17: (Fraction(2097152, 4396161144375), 23),
    18: (Fraction(4194304, 92319384031875), 25),
    19: (Fraction(2097152, 461596920159375), 27),
}

# (s: rational, pi-exponent) for the assembled spinor values; the s=17 row
# follows the decimal columns (numerator 2^34 -- the factored print "2^24"
# in the source table is a typo, see README)
TABLE4 = {
    12: (Fraction(17179869184, 526246875), 18),
    13: (Fraction(8589934592, 7161167475), 22),
    14: (Fraction(8589934592, 527539337325), 26),
    15: (Fraction(68719476736, 461596920159375), 30),
    16: (Fraction(137438953472, 103859307035859375), 34),
    17: (Fraction(17179869184, 1308627268651828125), 38),
    18: (Fraction(34359738368, 247330553775195515625), 42),
    19: (Fraction(137438953472, 92748957665698318359375), 46),
}

# 15-digit numeric columns of the same tables (rendered there with norms
# truncated to the displayed 13/15 digits)
TABLE2_NUMERIC = {
    12: "0.046143339818118",
    13: "0.158130732552033",
    14: "0.334433094416363",
    15: "0.528115574483468",
    16: "0.694972239760782",
    17: "0.816559651925946",
    18: "0.895457859377812",
    19: "0.942700248523234",
}
TABLE3_NUMERIC = {
    12: "5.380003562880315",
    13: "5.618889612918517",
    14: "3.513063561721911",
    15: "1.981288433718698",
    16: "1.303635536350500",
    17: "1.072197252248449",
    18: "1.007825020916877",
    19: "0.994683426196918",
}
TABLE4_NUMERIC = {
    12: "0.248251332624670",
    13: "0.888519130619814",
    14: "1.174884717828030",
    15: "1.046349279390801",
    16: "0.905990508529256",
    17: "0.875513015091950",
    18: "0.902464835857626",
    19: "0.937688313077777",
}

# direct-computation comparison columns (independent evaluator runs)
DIRECT_DELTA_PAIR = {
    12: "0.046143339853964",
    13: "0.158130732674877",
    14: "0.334433094676168",
    15: "0.528115574893734",
    16: "0.694972240300672",
    17: "0.816559652560290",
    18: "0.895457860073449",
    19: "0.942700249255570",
}
DIRECT_RANKIN = {
    12: "5.38000356288032",
    13: "5.61888961291852",
    14: "3.51306356172191",
    15: "1.98128843371870",
    16: "1.30363553635050",
    17: "1.07219725224845",
    18: "1.00782502091688",
    19: "0.99468342619692",
}
DIRECT_SPIN = {
    12: "0.24825133281752",
    13: "0.88851913131006",
    14: "1.17488471874074",
    15: "1.04634928020366",
    16: "0.90599050923308",
    17: "0.87551301577209",
    18: "0.90246483655871",
    19: "0.93768831380622",
}

# degree-4 Dirichlet coefficients A(n), n = 1..15
RANKIN_COLUMN = {
    1: 1, 2: -10944, 3: 12764304, 4: 1539411968, 5: -11482890300,
    6: -139692542976, 7: 283267356736, 8: -44134904365056,
    9: 46408678295058, 10: 125668751443200, 11: -8667187482096,
    12: 19649522340790272, 13: -29130483042689756, 14: -3100077952118784,
    15: -146571102587851200,
}

# g20 coefficient column, n = 1..15
G20_COLUMN = {
    1: 1, 2: 456, 3: 50652, 4: -316352, 5: -2377410, 6: 23097312,
    7: -16917544, 8: -383331840, 9: 1403363637, 10: -1084098960,
    11: -16212108, 12: -16023861504, 13: 50421615062, 14: -7714400064,
    15: -120420571320,
}

# published 28-digit Petersson norms (keyed by r for weight 20); the three
# printed weight-20 values differ from each other by up to 7.8e-17 relative,
# so their tails beyond ~17 digits are double-precision assembly noise
REF_DELTA_NORM = "1.035362056804320948209596804e-6"
REF_G20_NORMS = {
    8: "8.265541531659702744699575969e-6",   # l = 12
    6: "8.265541531659703390644766954e-6",   # l = 14
    4: "8.265541531659703069998511729e-6",   # l = 16
}

# Petersson norms frozen at 36 digits from petersson_norm(12, 4) and
# petersson_norm(20, 4) at working precision 42: a regression reference for
# Rankin's formula (the weight-20 value is identical for r = 4, 6, 8 well
# beyond this length)
FROZEN_DELTA_NORM = "0.000001035362056804320922347816812225164593"
FROZEN_G20_NORM = "0.000008265541531659703164230062760258225715"
