"""q-expansion layer: the five forms, Hecke action, convolution coefficients,
and the local-factor identity."""

import decimal
import hashlib
import random
import threading
from fractions import Fraction
from math import comb, gcd, isqrt

import pytest
from hypothesis import example, given, strategies as st

from spinl import (
    QSeries,
    bernoulli,
    delta_qexp,
    eisenstein_qexp,
    falling_ratio,
    g20_qexp,
    g2p_qexp,
    gamma_pole_ratio,
    hecke_tp,
    lemma1_local_check,
    rankin_coeffs,
    whittaker_closed_form,
    zeta_exact,
    zeta_pole_over_gamma,
)
from spinl.exact_arith import factor_integer
from spinl.qexp import _divisor_power_sums, _kronecker, _schoolbook, is_prime

# first coefficients of the discriminant form: q - 24q^2 + 252q^3 - ...
DELTA_HEAD = {1: 1, 2: -24, 3: 252, 4: -1472, 5: 4830, 6: -6048}

from reference_values import G20_COLUMN, RANKIN_COLUMN


class TestQSeries:
    def test_padding(self):
        s = QSeries([1], 3)
        assert s.coeffs == (1, 0, 0, 0)

    def test_fraction_coeffs(self):
        s = QSeries([Fraction(1, 24), 1])
        assert not s.is_integral()
        with pytest.raises(ValueError):
            s.integer_coeffs()

    def test_getitem_bounds(self):
        with pytest.raises(IndexError):
            QSeries([1, 2])[5]

    def test_integral_coeffs_stored_as_int(self):
        s = QSeries([Fraction(4, 2), Fraction(-3), 5])
        assert all(type(c) is int for c in s.coeffs)
        assert s == QSeries([2, -3, 5])
        assert hash(s) == hash(QSeries([2, -3, 5]))

    def test_fraction_kept_where_needed(self):
        assert g2p_qexp(2, 4)[0] == Fraction(1, 24)

    @pytest.mark.parametrize("N", [5.0, None, "5"], ids=repr)
    @pytest.mark.parametrize("build", [delta_qexp, g20_qexp, rankin_coeffs],
                             ids=lambda f: f.__name__)
    def test_n_not_an_int_refused_before_and_after_the_int_build(self, monkeypatch, build, N):
        # 5.0 once raised TypeError on a cold start and, once the series of
        # 5 was live, returned it (a registry of live series matched the
        # key 5); None raised TypeError from a comparison
        import spinl.qexp as q

        build.cache_clear()
        monkeypatch.setattr(q, "_LONGEST", {})
        for _ in range(2):
            with pytest.raises(ValueError, match=f"need an int N >= 1, got {N!r}$"):
                build(N)
            held = build(5)
        assert build(5) is held

    def test_uncached_builders_read_n_as_an_int(self):
        # both raised TypeError from range() or a comparison
        with pytest.raises(ValueError, match="need an int N >= 0, got 5.0$"):
            eisenstein_qexp(8, 5.0)
        with pytest.raises(ValueError, match="need an int N >= 1, got None$"):
            g2p_qexp(2, None)

    # every other integer argument is read as N is, and refused before any
    # work: T_2 at k = 20.0 returned 67 wrong coefficients of g20 (2 ** 19.0
    # is a float), a float k or p raised TypeError from list indexing,
    # Lemma 1 at p = 2.0 named N = 8.0, and factor_integer(12.0) returned
    # the float prime 3.0.  The exact engine reads its integers the same
    # way: a float raised TypeError from a list index or from factorial,
    # falling_ratio(5.5, 2) returned 63/4, and whittaker_closed_form(5.0, 2)
    # computed through float products
    NOT_INT = {
        "hecke_tp-k-20.0": (lambda: hecke_tp(g20_qexp(400), 2, 20.0), "k", 20.0),
        "hecke_tp-p-2.0": (lambda: hecke_tp(delta_qexp(20), 2.0, 12), "p", 2.0),
        "eisenstein_qexp-k-8.0": (lambda: eisenstein_qexp(8.0, 5), "k", 8.0),
        "g2p_qexp-p-2.0": (lambda: g2p_qexp(2.0, 5), "p", 2.0),
        "lemma1_local_check-p-2.0": (lambda: lemma1_local_check(2.0, 3), "p", 2.0),
        "lemma1_local_check-order-3.0": (lambda: lemma1_local_check(2, 3.0), "order", 3.0),
        "is_prime-7.0": (lambda: is_prime(7.0), "n", 7.0),
        "factor_integer-12.0": (lambda: factor_integer(12.0), "n", 12.0),
        "bernoulli-n-2.0": (lambda: bernoulli(2.0), "n", 2.0),
        "zeta_exact-n-2.0": (lambda: zeta_exact(2.0), "n", 2.0),
        "falling_ratio-a-5.5": (lambda: falling_ratio(5.5, 2), "a", 5.5),
        "gamma_pole_ratio-x--1.0": (lambda: gamma_pole_ratio(-1.0, -2, 2), "x", -1.0),
        "zeta_pole_over_gamma-y--1.0": (lambda: zeta_pole_over_gamma(-1.0, 2), "y", -1.0),
        "whittaker_closed_form-alpha-5.0": (lambda: whittaker_closed_form(5.0, 2), "alpha", 5.0),
    }

    @pytest.mark.parametrize("name", sorted(NOT_INT))
    def test_other_int_args_refused(self, name):
        call, arg, value = self.NOT_INT[name]
        with pytest.raises(ValueError, match=f"^{arg} must be an int, got {value!r}$"):
            call()

    def test_internal_builders_skip_only_needless_normalising(self):
        # T_p and Delta are built from exact ints without the constructor's
        # pass: they must hold only ints and equal what the normalising
        # constructor makes of the same coefficients
        d = delta_qexp(60)
        for f in (hecke_tp(d, 2, 12), hecke_tp(d, 5, 12), d):
            assert all(type(c) is int for c in f.coeffs)
            assert f == QSeries(list(f.coeffs), f.precision)
        t12 = hecke_tp(eisenstein_qexp(12, 40), 2, 12)
        assert t12 == QSeries(list(t12.coeffs), t12.precision)
        assert type(t12[0]) is int and not t12.is_integral()
        assert hecke_tp(delta_qexp(40), 2, 12).is_integral()
        assert all(type(c) is int for c in eisenstein_qexp(8, 5).coeffs)
        e12 = eisenstein_qexp(12, 5)
        assert e12[1] == Fraction(65520, 691) and not e12.is_integral()


class TestConvolutionBackends:
    def test_kronecker_matches_schoolbook(self):
        import random

        rng = random.Random(7)
        for _ in range(30):
            a = [rng.randint(-10**6, 10**6) for _ in range(rng.randint(1, 50))]
            b = [rng.randint(-10**6, 10**6) for _ in range(rng.randint(1, 50))]
            n = len(a) + len(b) - 2
            assert _kronecker(a, b, n) == _schoolbook(a, b, n)

    def test_dispatch_consistency(self):
        a = list(range(-400, 401))
        got = _kronecker(a, a, 800)
        assert got == _schoolbook(a, a, 800)

    # Small and huge magnitudes mixed, so digits of both signs and widths
    # up to 2^300 appear; all-zero operands come from the zero lists.
    _poly = st.one_of(
        st.lists(
            st.one_of(st.integers(-3, 3), st.integers(-(2**300), 2**300)),
            min_size=1, max_size=40,
        ),
        st.lists(st.just(0), min_size=1, max_size=4),
    )

    @given(a=_poly, b=_poly, shift=st.integers(-60, 8), square=st.booleans(), bounded=st.booleans())
    @example(a=[5], b=[-7], shift=0, square=False, bounded=False)
    @example(a=[0, 0], b=[3, 1], shift=0, square=False, bounded=False)
    @example(a=[2**300, -(2**300)], b=[1, 2**299], shift=3, square=False, bounded=False)
    @example(a=[1, -1, 2], b=[3, -1], shift=-1, square=False, bounded=False)
    @example(a=[8, 8], b=[8, 8], shift=0, square=False, bounded=False)
    @example(a=[-(2**300)] * 5, b=[0], shift=0, square=True, bounded=False)
    @example(a=[9, 9, 9], b=[9, 9, 9], shift=0, square=True, bounded=True)
    @example(a=[1, 2**300], b=[-1, 2**300, 5], shift=-2, square=False, bounded=True)
    def test_kronecker_property(self, a, b, shift, square, bounded):
        # n_out below, at and above the full product length len(a)+len(b)-2;
        # a bounded call passes the tightest bound a caller may, on the read
        # coefficients only, so that the unread high slots may overflow
        if square:
            b = a
        n = max(0, len(a) + len(b) - 2 + shift)
        full = _schoolbook(a, b, n)
        assert _kronecker(a, b, n, max(map(abs, full)) if bounded else None) == full

    @pytest.mark.parametrize("n", [100, 599, 600])
    def test_delta_truncation_matches_direct(self, n):
        direct = delta_qexp(n)
        assert direct.precision == n
        assert delta_qexp(700).coeffs[: n + 1] == direct.coeffs


def _byte_kronecker(a, b, n_out):
    """The earlier Kronecker product, kept here as an independent reference:
    w-byte two's-complement slots around one CPython bigint multiply."""
    max_a, max_b = max(map(abs, a)), max(map(abs, b))
    if max_a == 0 or max_b == 0:
        return [0] * (n_out + 1)
    w = ((max_a * max_b * min(len(a), len(b))).bit_length() + 8) // 8

    def pack(xs):
        one, zero = (1).to_bytes(w, "little"), bytes(w)
        digits = b"".join(x.to_bytes(w, "little", signed=True) for x in xs)
        borrow = b"".join(one if x < 0 else zero for x in xs)
        return int.from_bytes(digits, "little") - (int.from_bytes(borrow, "little") << 8 * w)

    C = pack(a) * pack(b)
    size = w * (n_out + 1)
    raw = (C & ((1 << 8 * size) - 1)).to_bytes(size, "little")
    s = [int.from_bytes(raw[i : i + w], "little", signed=True) for i in range(0, size, w)]
    return [s[0]] + [x + (y < 0) for x, y in zip(s[1:], s)]


class TestKroneckerTransformSizes:
    """Operands long enough for libmpdec's Karatsuba (300 terms) and
    number-theoretic-transform (3,000 terms) products, with slot widths on
    either side of its 19-digit words."""

    @staticmethod
    def _magnitudes(width, length):
        # the largest and the smallest coefficient size m for which the
        # product coefficient bound m * m * length gets slots of exactly
        # `width` digits (4 * bound < 10^width <= 40 * bound)
        hi = isqrt((10**width - 1) // (4 * length))
        lo = isqrt(-(-(10 ** (width - 1)) // (4 * length)))
        lo += 4 * lo * lo * length < 10 ** (width - 1)
        for m in (hi, lo):
            assert len(str(4 * m * m * length)) == width
        return hi, lo

    @staticmethod
    def _operands(m, length, rng):
        rand = [rng.randint(-m, m) for _ in range(length - 1)] + [-m]
        return {
            "random": rand,  # negative leading coefficient
            "all_negative": [-m] * length,  # its square reaches the bound
            "alternating": [m if i % 2 else -m for i in range(length)],
        }

    @pytest.mark.parametrize("length", [300, 3000])
    @pytest.mark.parametrize("width", [18, 19, 20, 37, 38, 39, 56, 57, 58])
    def test_matches_byte_product(self, length, width):
        rng = random.Random(width * 10007 + length)
        full = 2 * length - 2
        for m in self._magnitudes(width, length):
            ops = self._operands(m, length, rng)
            for name, a in ops.items():
                b = ops["random"] if name != "random" else ops["alternating"]
                # n_out below, at and above the full product length
                ref = _byte_kronecker(a, b, full + 5)
                for n in (length // 2, full, full + 5):
                    assert _kronecker(a, b, n) == ref[: n + 1], (name, m, n)
                # a is b: the squaring path
                n = length + 7
                assert _kronecker(a, a, n) == _byte_kronecker(a, list(a), n), (name, m)

    @pytest.mark.parametrize("length", [300, 3000])
    @pytest.mark.parametrize("width", [18, 19, 20, 37, 38, 39, 56, 57, 58])
    def test_one_term_operand(self, length, width):
        # times +-1 the bound is the largest operand coefficient itself, so
        # the operands' slots are as full as the product's
        top = 10**width // 2 - 1
        a = [-top if i % 3 else top for i in range(length)]
        for c in (1, -1):
            assert _kronecker(a, [c], length - 1) == [c * x for x in a]
            assert _kronecker([c], a, length + 2) == [c * x for x in a] + [0] * 3

    @pytest.mark.parametrize("length", [300, 3000])
    def test_zero_operands(self, length):
        zeros = [0] * length
        other = [(-1) ** i * (i + 1) for i in range(length)]
        for n in (length // 2, 2 * length - 2, 2 * length + 3):
            assert _kronecker(zeros, other, n) == [0] * (n + 1)
            assert _kronecker(other, zeros, n) == [0] * (n + 1)
            assert _kronecker(zeros, zeros, n) == [0] * (n + 1)

    def test_slot_wider_than_int_str_limit_raises(self):
        # slots go through str and int, capped at sys.get_int_max_str_digits()
        with pytest.raises(ValueError):
            _kronecker([2**15000, 1], [1, -1], 1)
        with pytest.raises(ValueError):
            _kronecker([1] * 300, [-(2**15000)] + [3] * 299, 400)

    def test_ignores_the_current_decimal_context(self):
        serial = delta_qexp.__wrapped__(2000)
        with decimal.localcontext() as ctx:
            ctx.prec = 5
            ctx.traps[decimal.Inexact] = True
            assert decimal.getcontext().prec == 5
            assert delta_qexp.__wrapped__(2000) == serial
        assert serial.precision == 2000
        assert serial.coeffs == delta_qexp(5000).coeffs[:2001]

    def test_threads_build_the_serial_series(self):
        sizes = (1500, 2500)
        serial = {N: (delta_qexp.__wrapped__(N), g20_qexp.__wrapped__(N)) for N in sizes}
        got, errors = {}, []

        def build(N):
            try:
                decimal.getcontext().prec = 3  # a hostile per-thread context
                for _ in range(3):
                    got[N] = (delta_qexp.__wrapped__(N), g20_qexp.__wrapped__(N))
            except Exception as exc:  # pragma: no cover - reported below
                errors.append(exc)

        threads = [threading.Thread(target=build, args=(N,)) for N in sizes]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors
        assert got == serial


class _CountingContext(decimal.Context):
    """A decimal context that records the numbers it makes from strings and
    the strings it prints."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.created, self.printed = [], []

    def create_decimal(self, num="0"):
        self.created.append(num)
        return super().create_decimal(num)

    def to_sci_string(self, a):
        s = super().to_sci_string(a)
        self.printed.append(s)
        return s


def _slots(s, count):
    """The count w-digit slots x + h of a printed product, lowest first,
    read back to x; each must lie strictly between 2.5 and 7.5 10^(w-1)."""
    w, rest = divmod(len(s), count)
    assert rest == 0, (len(s), count)
    h = 5 * 10 ** (w - 1)
    groups = [int(s[j - w : j]) for j in range(len(s), 0, -w)]
    assert all(h // 2 < g < 3 * h // 2 for g in groups)
    return [g - h for g in groups]


class TestKroneckerBudget:
    """The decimal work of a cold build: one "50...0" bias per slot count,
    made once and shared by the packing and the read-back, and only the K =
    w (n_out + 1) digits that are read printed."""

    N = 5000

    def test_one_bias_per_product_and_only_the_kept_digits(self, monkeypatch):
        import spinl.qexp as q

        N = self.N
        # taken first, so that the lru caches keep nothing built here
        expected = (delta_qexp(N), g20_qexp(N))
        dec = q._DEC
        ctx = _CountingContext(
            prec=dec.prec, Emax=dec.Emax, Emin=dec.Emin,
            traps=[t for t, on in dec.traps.items() if on],
        )
        monkeypatch.setattr(q, "_DEC", ctx)
        # no longest series held, so both forms are built
        monkeypatch.setattr(q, "_LONGEST", {})

        delta = q.delta_qexp.__wrapped__(N)
        # two squarings, each packing one operand: its digits and one bias
        assert len(ctx.created) == 4
        assert len(ctx.printed) == 2
        eta12 = _slots(ctx.printed[0], N)  # eta^24 = (eta^12)^2, both to q^(N-1)
        assert _slots(ctx.printed[1], N) == _kronecker(eta12, eta12, N - 1) == list(delta.coeffs[1:])

        ctx.created.clear()
        ctx.printed.clear()
        # Delta comes from the cache, so only E_8 * Delta is made
        g20 = q.g20_qexp.__wrapped__(N)
        assert len(ctx.created) == 3  # the digits of E_8, of Delta, one bias
        assert len(ctx.printed) == 1
        assert _slots(ctx.printed[0], N + 1) == list(g20.coeffs)
        assert (delta, g20) == expected


def _sha256(coeffs):
    return hashlib.sha256(repr(tuple(coeffs)).encode()).hexdigest()


class TestLargeN:
    """The forms at N = 5000, where the products run on the transform."""

    N = 5000
    # sha256 of repr(tuple(...)) of the coefficient tuples, taken from the
    # byte-packing implementation that preceded the decimal product
    DELTA_SHA256 = "5a693014bbdccca0e7c0a65d57042fee6bc5b5a87467505f2a3655c99677d053"
    G20_SHA256 = "f91bfcd018f5cafc66b63bdae6a03a822c4d2176e1979db750be4ae4c3744fef"
    RANKIN_SHA256 = "d2bb69ec0a7dc94c110f45b93831bd5a7556032566676ccd07759121206ec245"
    COPRIME_PAIRS = [(2, 2499), (3, 1666), (4, 1249), (7, 713), (25, 199), (27, 185),
                     (49, 102), (64, 77), (70, 71), (125, 39), (128, 39), (1, 4999)]

    def test_pinned_coefficients(self):
        assert _sha256(delta_qexp(self.N).coeffs) == self.DELTA_SHA256
        assert _sha256(g20_qexp(self.N).coeffs) == self.G20_SHA256
        assert _sha256(rankin_coeffs(self.N).values) == self.RANKIN_SHA256

    @pytest.mark.parametrize("form,k,eigenvalue", [(delta_qexp, 12, -24), (g20_qexp, 20, 456)])
    def test_t2_eigenvalue(self, form, k, eigenvalue):
        f = form(self.N)
        t2 = hecke_tp(f, 2, k)
        assert t2.precision == self.N // 2
        assert t2 == QSeries([eigenvalue * c for c in f.coeffs[: self.N // 2 + 1]])

    def test_multiplicative(self):
        tau, b, A = delta_qexp(self.N), g20_qexp(self.N), rankin_coeffs(self.N)
        for m, n in self.COPRIME_PAIRS:
            assert gcd(m, n) == 1 and m * n <= self.N
            for f in (tau, b, A):
                assert f[m * n] == f[m] * f[n], (f, m, n)


def _dense_schoolbook(a, b, n_out):
    """The product over every pair of terms, kept as the reference for the
    sparse loop."""
    out = [0] * (n_out + 1)
    for i, ai in enumerate(a):
        if ai and i <= n_out:
            for j in range(min(len(b), n_out + 1 - i)):
                if b[j]:
                    out[i + j] += ai * b[j]
    return out


def _divisor_power_sums_by_divisors(N, e):
    """sigma_e(n) for n = 0..N summed over every divisor: the reference for
    the sieve."""
    out = [0] * (N + 1)
    for d in range(1, N + 1):
        for m in range(d, N + 1, d):
            out[m] += d**e
    return out


class TestSlotBounds:
    """Delta and g20 take their slot widths from Deligne's bound; their
    coefficients must come out as those of the generic-width build."""

    # sha256 of repr(tuple(coeffs)) of delta_qexp(N) and g20_qexp(N), taken
    # from the build whose slots held every product coefficient
    PINNED = {
        1: ("a5cabe61309cbdb1d6a67e597b1659243a076817ce37626014228bde43e86d2d",
            "a5cabe61309cbdb1d6a67e597b1659243a076817ce37626014228bde43e86d2d"),
        2: ("818c63a6b3fb5b5631f53ed31b449c85cf51176f1764013a22e7997ca1fd8f3e",
            "3075b98f5db764c60ecbab103b287e11da334913c148bb7c54f349623d2120af"),
        3: ("c45035399a5cdedb2a0b9a775f1f530ab52de294892baa073a3fa99e611fd971",
            "efd8ac6befea8330ccc19d11ce17bbe9769beacbb03b828581ec66635956606e"),
        15: ("aad35e0b32759aa63df6cba98453ea2511b63454347b1e14607913e1af91b159",
             "073a18b9ca7ad317a6343366c49e49fa0eef6db90a561b5586ef55a60d0bb49f"),
        150: ("c2a88e6e8a054c1796553bc2dbcf2e55439f477e1268e42e77288e3e6c2547e9",
              "b95bddde5220fb0b8a5cebb6657a15781222b1ddf93a6333a04e5161a136fdff"),
        300: ("672672f82988235f70962f50a5f888420b4fa0577dc5dd51661faa3f5a86933a",
              "f9b6d9c07b745e5292a9a2e721c4798af6ea9fac5138d74bbafb131c7d7f024b"),
        1024: ("bc2e19904dee4245b8ccff4c62863bebd807361906f924b7e25a53800d28e9bd",
               "cb3795c78a5482375c02a49d867598970cf9987769858486bd47f97fae7c5c00"),
        5000: (TestLargeN.DELTA_SHA256, TestLargeN.G20_SHA256),
    }

    @pytest.mark.parametrize("N", sorted(PINNED))
    def test_pinned_at_every_size(self, N):
        assert (_sha256(delta_qexp(N).coeffs), _sha256(g20_qexp(N).coeffs)) == self.PINNED[N]

    def test_deligne_bound_holds(self):
        # |a(n)| <= d(n) n^((k-1)/2), squared to stay in integers, and
        # d(n) <= 2 sqrt(n): the bounds 2 N^6 and 2 N^10 the slots rest on
        N = 5000
        tau, b = delta_qexp(N).coeffs, g20_qexp(N).coeffs
        d = _divisor_power_sums_by_divisors(N, 0)
        for n in range(1, N + 1):
            assert d[n] ** 2 <= 4 * n
            assert tau[n] ** 2 <= d[n] ** 2 * n**11, n
            assert b[n] ** 2 <= d[n] ** 2 * n**19, n

    def test_caller_bound_lets_unread_slots_overflow(self):
        # small low halves and large high halves: the read coefficients fit
        # the caller's bound, the unread ones overflow their slots
        rng = random.Random(11)
        for trial in range(40):
            m = rng.randint(1, 60)

            def operand(high_len):
                return [rng.randint(-9, 9) for _ in range(m)] + [
                    rng.choice((-1, 1)) * rng.randint(10**5, 10**6) for _ in range(high_len)
                ]

            a = operand(m)
            b = a if trial % 4 == 0 else operand(rng.randint(1, m))
            n = rng.randint(0, m - 1)
            full = _schoolbook(a, b, len(a) + len(b) - 2)
            bound = max(map(abs, full[: n + 1]))
            w = len(str(4 * max(bound, *map(abs, a), *map(abs, b))))
            assert max(map(abs, full)) >= 5 * 10 ** (w - 1)  # an unread slot overflows
            assert _kronecker(a, b, n, bound) == full[: n + 1]

    @pytest.mark.parametrize("e", [1, 3, 7, 11, 13])
    @pytest.mark.parametrize("N", [0, 1, 2, 97, 1000])
    def test_divisor_power_sums_sieve(self, e, N):
        assert _divisor_power_sums(N, e) == _divisor_power_sums_by_divisors(N, e)

    def test_sparse_schoolbook_matches_dense(self):
        rng = random.Random(5)
        for _ in range(60):
            def operand():
                return [Fraction(rng.randint(-9, 9), rng.randint(1, 5)) if rng.random() < 0.4 else 0
                        for _ in range(rng.randint(1, 30))]

            a, b = operand(), operand()
            for n in (0, len(a) // 2, len(a) + len(b) - 2, len(a) + len(b) + 3):
                assert _schoolbook(a, b, n) == _dense_schoolbook(a, b, n)
        eta3 = [(-1) ** k * (2 * k + 1) if t == k * (k + 1) // 2 else 0
                for t in range(400) for k in [(isqrt(8 * t + 1) - 1) // 2]]
        assert _schoolbook(eta3, eta3, 399) == _dense_schoolbook(eta3, eta3, 399)


class TestDelta:
    def test_head_coefficients(self):
        d = delta_qexp(6)
        assert d[0] == 0
        for n, v in DELTA_HEAD.items():
            assert d[n] == v

    def test_leading(self):
        assert delta_qexp(1)[1] == 1

    def test_two_expansion_routes_agree(self, delta200):
        # independent route: multiply out (1-q^n)^24 factor by factor
        N = 200
        prod = [0] * N
        prod[0] = 1
        for n in range(1, N):
            new = [0] * N
            for j in range(0, min(24, (N - 1) // n) + 1):
                c = (-1) ** j * comb(24, j)
                e = n * j
                for i in range(N - e):
                    if prod[i]:
                        new[i + e] += c * prod[i]
            prod = new
        naive = QSeries([0] + prod, 200)
        assert naive == delta200

    def test_tau_multiplicative(self, delta200):
        d = delta200
        for m in range(2, 201):
            for n in range(2, 201 // m + 1):
                if m * n <= 200 and gcd(m, n) == 1:
                    assert d[m * n] == d[m] * d[n]

    def test_hecke_recursion_prime_powers(self, delta200):
        d = delta200
        for p in (2, 3, 5):
            k = 1
            while p ** (k + 1) <= 200:
                lhs = d[p ** (k + 1)]
                rhs = d[p] * d[p**k] - p**11 * d[p ** (k - 1)]
                assert lhs == rhs
                k += 1


class TestEisenstein:
    def test_e8_alpha(self):
        e8 = eisenstein_qexp(8, 3)
        assert e8[0] == 1
        assert e8[1] == 480
        assert e8[2] == 480 * (1 + 2**7)

    def test_e4_normalization(self):
        assert eisenstein_qexp(4, 2)[0] == 1
        assert eisenstein_qexp(4, 2)[1] == 240

    def test_rejects_bad_weight(self):
        for k in (2, 3, 7):
            with pytest.raises(ValueError):
                eisenstein_qexp(k, 5)


class TestG2p:
    def test_printed_expansion_p2(self):
        g = g2p_qexp(2, 6)
        assert g[0] == Fraction(1, 24)
        assert [g[n] for n in range(1, 7)] == [1, 1, 4, 1, 6, 4]

    def test_general_constant_term(self):
        assert g2p_qexp(3, 2)[0] == Fraction(2, 24)
        assert g2p_qexp(7, 2)[0] == Fraction(6, 24)

    def test_coefficients_skip_p_divisors(self):
        g = g2p_qexp(3, 12)
        # divisors of 9 are 1, 3, 9; only d = 1 is prime to 3
        assert g[9] == 1
        assert g[10] == 1 + 2 + 5 + 10

    def test_rejects_composite(self):
        with pytest.raises(ValueError):
            g2p_qexp(4, 5)

    @pytest.mark.parametrize("p", [2, 3, 5, 7])
    @pytest.mark.parametrize("N", [1, 2, 97, 500])
    def test_sieve_matches_the_divisor_loop(self, p, N):
        # the coefficients once came from this double loop over d prime to p
        out = [0] * (N + 1)
        for d in range(1, N + 1):
            if d % p:
                for m in range(d, N + 1, d):
                    out[m] += d
        assert g2p_qexp(p, N).coeffs == (Fraction(p - 1, 24), *out[1:])


class TestG20:
    def test_column(self, g20_200):
        for n, v in G20_COLUMN.items():
            assert g20_200[n] == v

    def test_normalized(self, g20_200):
        assert g20_200[0] == 0 and g20_200[1] == 1

    def test_b_multiplicative(self, g20_200):
        g = g20_200
        for m in range(2, 201):
            for n in range(2, 201 // m + 1):
                if m * n <= 200 and gcd(m, n) == 1:
                    assert g[m * n] == g[m] * g[n]

    def test_hecke_recursion_weight19(self, g20_200):
        g = g20_200
        for p in (2, 3, 5):
            k = 1
            while p ** (k + 1) <= 200:
                assert g[p ** (k + 1)] == g[p] * g[p**k] - p**19 * g[p ** (k - 1)]
                k += 1


class TestIsPrime:
    def test_small_values(self):
        ns = (-7, 0, 1, 2, 3, 4, 9, 97, 7919, 7921)  # 7921 = 89^2
        want = [False, False, False, True, True, False, False, True, True, False]
        assert [is_prime(n) for n in ns] == want


class TestHecke:
    def test_t2_delta_eigenvalue(self, delta200):
        t2 = hecke_tp(delta200, 2, 12)
        assert t2[1] == -24
        for n in range(0, t2.precision + 1):
            assert t2[n] == -24 * delta200[n]

    def test_t2_coefficient_identity(self, delta200):
        t2 = hecke_tp(delta200, 2, 12)
        assert t2[2] == delta200[4] + 2**11 * delta200[1]
        assert t2[2] == 576
        assert t2[2] == delta200[2] ** 2  # eigenvalue consistency at n = 2

    def test_t2_g20_eigenvalue(self, g20_200):
        t2 = hecke_tp(g20_200, 2, 20)
        assert t2[1] == 456
        for n in range(0, t2.precision + 1):
            assert t2[n] == 456 * g20_200[n]

    def test_t3_delta_eigenvalue(self, delta200):
        t3 = hecke_tp(delta200, 3, 12)
        for n in range(0, t3.precision + 1):
            assert t3[n] == 252 * delta200[n]

    def test_insufficient_precision(self):
        with pytest.raises(ValueError):
            hecke_tp(delta_qexp(1), 2, 12)

    @pytest.mark.parametrize("k", [0, -3])
    def test_nonpositive_weight_is_exact(self, k):
        # p^(k-1) is the Fraction 1/p^(1-k): the float 2 ** (k - 1) once
        # rounded 81 of the 201 coefficients at k = 0 and 83 at k = -3
        g = g20_qexp(400)
        t2 = hecke_tp(g, 2, k)
        want = [g[2 * n] + (Fraction(g[n // 2], 2 ** (1 - k)) if n % 2 == 0 else 0)
                for n in range(201)]
        assert t2.precision == 200 and list(t2.coeffs) == want


class TestRankinCoeffs:
    def test_column(self, rankin150):
        for n, v in RANKIN_COLUMN.items():
            assert rankin150[n] == v

    def test_normalized(self, rankin150):
        assert rankin150[1] == 1

    def test_multiplicative(self, rankin150):
        A = rankin150
        for m in range(2, 151):
            for n in range(2, 151 // m + 1):
                if m * n <= 150 and gcd(m, n) == 1:
                    assert A[m * n] == A[m] * A[n]

    def test_matches_definition(self, delta200, g20_200, rankin150):
        # A(n) = sum over d^2 | n of d^30 tau(n/d^2) b(n/d^2)
        for n in (1, 4, 12, 36, 144, 100):
            acc = 0
            d = 1
            while d * d <= n:
                if n % (d * d) == 0:
                    acc += d**30 * delta200[n // d**2] * g20_200[n // d**2]
                d += 1
            assert rankin150[n] == acc

    def test_bounds(self, rankin150):
        with pytest.raises(IndexError):
            rankin150[151]
        with pytest.raises(IndexError):
            rankin150[0]


class TestLemma1:
    def test_order_zero(self):
        assert lemma1_local_check(2, 0) is True

    @pytest.mark.parametrize("p,order", [(2, 8), (3, 6), (3, 8), (5, 8), (7, 4)])
    def test_local_identity(self, p, order):
        assert lemma1_local_check(p, order) is True

    def test_detects_wrong_data(self, monkeypatch):
        # corrupting one eigenvalue must break the identity
        import spinl.qexp as q

        real = q.delta_qexp

        def crooked(n):
            s = real(n)
            cs = list(s.coeffs)
            if len(cs) > 2:
                cs[2] += 1
            return q.QSeries(cs, s.precision)

        monkeypatch.setattr(q, "delta_qexp", crooked)
        assert q.lemma1_local_check(2, 4) is False

    def test_cuts_a_cached_longer_series(self):
        # with N = 5000 cached, the checks truncate it rather than build
        # Delta and g20 again at 1,024 and 4,096
        delta_qexp(5000)
        g20_qexp(5000)
        misses = (delta_qexp.cache_info().misses, g20_qexp.cache_info().misses)
        assert all(lemma1_local_check(p, 10) for p in (2, 3, 5, 7))
        assert (delta_qexp.cache_info().misses, g20_qexp.cache_info().misses) == misses

    def test_cuts_a_live_series_the_cache_dropped(self, monkeypatch):
        # sixteen other sizes evict N = 5000 from both caches while the two
        # series are still held here: the checks must cut them, not build
        # Delta again
        import spinl.qexp as q

        held = (delta_qexp(5000), g20_qexp(5000))
        for n in range(1, 17):
            g20_qexp(n)  # and delta_qexp(n)
        built, real = [], q._eta_cubed
        monkeypatch.setattr(q, "_eta_cubed", lambda n: built.append(n) or real(n))
        assert all(lemma1_local_check(p, 10) for p in (2, 3, 5, 7))
        assert built == []
        assert delta_qexp(5000) is held[0] and g20_qexp(5000) is held[1]

    def test_checks_while_another_thread_builds(self, monkeypatch):
        # Lemma 1 and the builders read each _LONGEST entry once while this
        # thread builds ever longer Delta and g20 series and replaces them
        # there: every check must get a series long enough to read and
        # hold, and a build asked for the longest's precision must return
        # a series of exactly that precision.  The checker records any
        # exception instead of dying with it, and must have run
        import sys

        import spinl.qexp as q

        monkeypatch.setattr(q, "_LONGEST", {})
        errors, results, stop = [], [], threading.Event()

        def checker():
            while not stop.is_set():
                try:
                    results.append(q.lemma1_local_check(3, 6))
                    N = q._LONGEST["delta"].precision
                    results.append(q.delta_qexp.__wrapped__(N).precision == N)
                except Exception as exc:
                    errors.append(exc)
                    return

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        thread = threading.Thread(target=checker)
        thread.start()
        try:
            for N in range(600, 900, 3):
                q.delta_qexp.__wrapped__(N)
                q.g20_qexp.__wrapped__(N)
                if errors:
                    break
        finally:
            stop.set()
            thread.join(timeout=60)
            sys.setswitchinterval(interval)
        assert not thread.is_alive()
        assert errors == []
        assert results and all(results)
        assert [q._LONGEST[form].precision for form in ("delta", "g20")] == [897, 897]

    def test_reads_the_longest_once_per_call(self, monkeypatch):
        # another thread may replace an entry between two reads, so the
        # precision checked and the series used must come from one read: a
        # builder asked for the longest's precision reads _LONGEST once,
        # and Lemma 1 once per form
        import spinl.qexp as q

        reads = []

        class Counting(dict):
            def get(self, form, default=None):
                reads.append(form)
                return super().get(form, default)

            def __getitem__(self, form):
                reads.append(form)
                return super().__getitem__(form)

        held = {"delta": delta_qexp(300), "g20": g20_qexp(300)}
        monkeypatch.setattr(q, "_LONGEST", Counting(held))
        assert q.delta_qexp.__wrapped__(300) is held["delta"]
        assert q.g20_qexp.__wrapped__(300) is held["g20"]
        assert reads == ["delta", "g20"]
        reads.clear()
        assert q.lemma1_local_check(3, 5) is True  # n_direct = 243: the 300s, cached
        assert reads == ["delta", "g20"]

    def test_longest_is_kept_and_returned(self, monkeypatch):
        # one strong reference per form to the longest series built: a
        # shorter build leaves it, a longer one replaces it, and a build at
        # exactly its precision returns it without building
        import spinl.qexp as q

        monkeypatch.setattr(q, "_LONGEST", {})
        built, eta_cubed = [], q._eta_cubed
        monkeypatch.setattr(q, "_eta_cubed", lambda n: built.append(n + 1) or eta_cubed(n))
        build = q.delta_qexp.__wrapped__
        longest = build(30)
        assert build(20).precision == 20 and q._LONGEST["delta"] is longest
        assert build(30) is longest and built == [30, 20]
        assert q.g20_qexp.__wrapped__(30).precision == 30 and built == [30, 20]
        assert q._LONGEST["g20"].precision == 30
        assert build(40) is q._LONGEST["delta"] and built == [30, 20, 40]

    def test_checks_ask_for_the_longest(self, monkeypatch):
        # Lemma 1 calls the module's builders at max(n_direct, longest): an
        # lru hit on the longest series, read in place
        import spinl.qexp as q

        monkeypatch.setattr(q, "_LONGEST", {})
        q.delta_qexp.__wrapped__(300)
        q.g20_qexp.__wrapped__(300)
        asked = []
        for name in ("delta_qexp", "g20_qexp"):
            real = getattr(q, name)
            monkeypatch.setattr(
                q, name, lambda n, name=name, real=real: asked.append((name, n)) or real(n)
            )
        assert q.lemma1_local_check(2, 3) is True  # n_direct = 8
        assert asked == [("delta_qexp", 300), ("g20_qexp", 300)]
        assert q.lemma1_local_check(3, 6) is True  # n_direct = 729
        # (a cold g20 build at 729 asks for Delta at 729 once more)
        assert asked[2:4] == [("delta_qexp", 729), ("g20_qexp", 729)]
        assert set(asked[4:]) <= {("delta_qexp", 729)}

    @pytest.mark.parametrize("longer", [False, True])
    def test_reads_the_prime_powers_in_place(self, monkeypatch, longer):
        # every p and order, built at exactly the size read or read from a
        # longer live series: no integer list (and a series has no
        # truncated copy to make)
        import spinl.qexp as q

        def copying(*args):
            raise AssertionError("the series was copied")

        if longer:
            held = (delta_qexp(5000), g20_qexp(5000))
        built, eta_cubed = [], q._eta_cubed
        monkeypatch.setattr(q, "_eta_cubed", lambda n: built.append(n + 1) or eta_cubed(n))
        monkeypatch.setattr(q.QSeries, "integer_coeffs", copying)
        if not longer:  # no cache, and no longest series before every check
            monkeypatch.setattr(q, "delta_qexp", q.delta_qexp.__wrapped__)
            monkeypatch.setattr(q, "g20_qexp", q.g20_qexp.__wrapped__)
        for p in (2, 3, 5, 7):
            for order in range(11):
                if not longer:
                    monkeypatch.setattr(q, "_LONGEST", {})
                assert q.lemma1_local_check(p, order) is True, (p, order)
                if not longer:
                    assert built.pop() == max(min(p**order, 4096), p) and not built
        assert built == []
        if longer:
            assert (delta_qexp(5000), g20_qexp(5000)) == held

    def test_rejects_bad_args(self):
        with pytest.raises(ValueError):
            lemma1_local_check(11, 3)
        with pytest.raises(ValueError):
            lemma1_local_check(2, 11)
