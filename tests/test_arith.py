import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ecgroups import arith


def trial_division_is_prime(x):
    # independent oracle: plain trial division
    if x < 2:
        return False
    d = 2
    while d * d <= x:
        if x % d == 0:
            return False
        d += 1
    return True


def test_is_prime_fixed_values():
    assert arith.is_prime(2)
    assert not arith.is_prime(1)
    assert not arith.is_prime(0)
    assert not arith.is_prime(1015)  # 5 * 7 * 29
    assert arith.is_prime(2 ** 61 - 1)  # Mersenne
    assert not arith.is_prime(2 ** 62 - 1)


def test_is_prime_agrees_with_trial_division_below_3000():
    for x in range(3000):
        assert arith.is_prime(x) == trial_division_is_prime(x), x


@given(st.integers(min_value=0, max_value=10 ** 6))
def test_is_prime_agrees_with_trial_division_random(x):
    assert arith.is_prime(x) == trial_division_is_prime(x)


def test_is_prime_strong_pseudoprimes():
    # strong pseudoprimes to base 2 must still be rejected, and so must the
    # least strong pseudoprimes to the (2, 7, 61) and (2, 13, 23, 1662803) tiers
    for x in (2047, 3277, 4033, 8321, 65281, 3215031751) + JAESCHKE:
        assert not arith.is_prime(x)


def strong_probable_prime(x, a):
    # the textbook strong test to base a, for odd x > 2
    d, s = x - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    y = pow(a, d, x)
    if y in (1, x - 1):
        return True
    for _ in range(s - 1):
        y = y * y % x
        if y == x - 1:
            return True
    return False


def test_mr_tier_bounds_are_pseudoprimes_to_their_bases():
    # each bound below 2^64 is the least strong pseudoprime to its tier's
    # bases, so a mistyped bound or base fails here: the bound must be a
    # strong probable prime to every one of them, and composite (shown by a
    # base of the first 25 primes that it fails)
    for bound, bases in arith._MR_TIERS[:-1]:
        assert all(strong_probable_prime(bound, a) for a in bases), bound
        assert not all(strong_probable_prime(bound, a)
                       for a in range(2, 100) if trial_division_is_prime(a)), bound
    assert arith.BATCH_BOUND == arith._MR_TIERS[-2][0] == A014233[-1]
    bounds = [bound for bound, _ in arith._MR_TIERS]
    assert bounds == sorted(bounds) and bounds[-1] == 2 ** 64


def test_mr_bases_below_every_input_of_their_tier():
    # is_prime reduces no base mod x: trial division by every prime below 67
    # leaves x >= 67, and a tier's inputs are at least the bound of the tier
    # before it, so every base is below every input of its tier
    assert arith._SMALL_PRIMES == tuple(p for p in range(2, 67) if trial_division_is_prime(p))
    previous = 0
    for bound, bases in arith._MR_TIERS:
        assert max(bases) < max(67, previous), bound
        previous = bound


def test_sqmod_at_the_extremes_of_its_bound():
    # int64 path: 2 m c <= 2^63 at the largest base, 1662803, of the tier below
    # 1,122,004,669,633, and the largest window factor below BATCH_BOUND;
    # uint64 path: m just below 2^32 with a factor just below 2^32
    cases = [(1122004669633 - 2, 1662803, np.int64),
             (arith.BATCH_BOUND - 2, (1 << 62) // arith.BATCH_BOUND - 1, np.int64),
             ((1 << 32) - 5, (1 << 32) - 1, np.uint64), ((1 << 32) - 5, 61, np.uint64)]
    for m, c, dtype in cases:
        ys = [0, 1, 2, m // 2, m // 2 + 1, m - 2, m - 1] + list(range(m - 1000, m, 37))
        y = np.array(ys, dtype=dtype)
        mm = np.full(y.size, m, dtype=dtype)
        got = arith._sqmod(y, mm, np.full(y.size, c, dtype=dtype))
        assert got.tolist() == [x * x * c % m for x in ys], (m, c)
        assert arith._sqmod(y, mm).tolist() == [x * x % m for x in ys], m


def test_sprp_matches_the_scalar_strong_test():
    # both dtype paths against strong_probable_prime: seeded values below
    # 2^32 (uint64 squarings) and up to BATCH_BOUND (int64), values
    # v = d 2^s + 1 with s up to 40, and the base-2 strong pseudoprimes; each
    # base runs on the values below the bound of its tier
    rng = random.Random(22)
    vals = [rng.randrange(lo, hi) | 1 for lo, hi in
            [(67, 10 ** 4), (10 ** 6, 2 ** 32), (2 ** 32, 2 ** 40), (2 ** 40, arith.BATCH_BOUND)]
            for _ in range(500)]
    vals += [(2 * rng.randrange(1, 2 ** 8) + 1) * 2 ** s + 1 for s in range(1, 41) for _ in range(10)]
    vals += [2047, 3277, 4033, 4681, 8321, 15841, 29341, 42799, 49141, 52633, 65281,
             74665, 80581, 85489, 88357, 90751, *A014233, *JAESCHKE]
    for bound, bases in arith._MR_TIERS[:-1]:
        for top in (min(bound, 2 ** 32), bound):
            for a in bases:
                group = [v for v in vals if a < v < top]
                got = arith._sprp(np.array(group, dtype=np.int64), a)
                assert got.tolist() == [strong_probable_prime(v, a) for v in group], (top, a)


def test_sqmod_lazy_stays_in_range():
    # int64 path: lazy squarings from anywhere in (-m, 2m), chained, stay in
    # (-m, 2m) and congruent to the exact squares, up to m just below
    # BATCH_BOUND; the reducing squaring then lands in [0, m)
    for m in (2 ** 32 + 15, 1122004669633 - 2, arith.BATCH_BOUND - 2):
        ys = [-m + 1, -m // 2, -1, 0, 1, m - 1, m, m + 1, 2 * m - 2, 2 * m - 1]
        y = np.array(ys, dtype=np.int64)
        mm = np.full(y.size, m, dtype=np.int64)
        for _ in range(60):
            want = [x * x % m for x in ys]
            got = arith._sqmod(y, mm, lazy=True)
            assert all(-m < g < 2 * m and g % m == x for g, x in zip(got.tolist(), want)), m
            assert arith._sqmod(y, mm).tolist() == want, m
            y, ys = got, got.tolist()


def test_is_prime_range_guard():
    with pytest.raises(OverflowError):
        arith.is_prime(2 ** 63 + 1)


# OEIS A014233: the least strong pseudoprimes to the first 1, 2, ..., 7 prime
# bases; the last one is the batch test's bound itself
A014233 = (2047, 1373653, 25326001, 3215031751, 2152302898747, 3474749660383,
           341550071728321)
# the least strong pseudoprimes to the bases (2, 7, 61) and (2, 13, 23, 1662803)
# (Jaeschke, Math. Comp. 61, 1993): 48781 * 97561 and 611557 * 1834669
JAESCHKE = (4759123141, 1122004669633)
CARMICHAEL = (561, 1105, 1729, 2465, 2821, 6601, 8911, 10585, 15841, 29341,
              41041, 62745, 63973, 75361, 101101, 126217, 172081, 188461,
              252601, 278545, 294409, 314821, 334153, 340561, 399001, 410041,
              449065, 488881, 512461, 3215031751, 9999109081, 3825123056546413051,
              # (6t + 1)(12t + 1)(18t + 1), no factor up to 61: the SPRP stage decides
              56052361, 118901521, 216821881, 1299963601, 13079177569,
              1042789205881, 1797002211241)


def assert_batch_matches_scalar(values):
    got = arith.is_prime_batch(np.array(values, dtype=np.int64))
    assert got.tolist() == [arith.is_prime(int(v)) for v in values]


def test_is_prime_batch_random_magnitudes():
    rng = np.random.default_rng(20261018)
    # windows of +-10^5 around every tier bound and around 2^32, where the
    # squarings leave uint64
    edges = [bound for bound, _ in arith._MR_TIERS[:-1]] + [2 ** 32]
    for lo, hi in [(0, 10 ** 3), (10 ** 9 - 10 ** 6, 10 ** 9),
                   (10 ** 12, 5 * 10 ** 13),
                   (arith.BATCH_BOUND - 10 ** 8, arith.BATCH_BOUND),
                   (2 ** 50 - 10 ** 6, 2 ** 50 + 10 ** 6)] + [
                       (max(0, e - 10 ** 5), e + 10 ** 5) for e in edges]:
        assert_batch_matches_scalar(rng.integers(lo, hi, 4000, dtype=np.int64).tolist())


def test_is_prime_batch_pseudoprimes_and_small_values():
    assert_batch_matches_scalar(list(A014233 + JAESCHKE + CARMICHAEL))
    assert not arith.is_prime_batch(np.array(A014233 + JAESCHKE + CARMICHAEL)).any()
    assert_batch_matches_scalar(list(range(-5, 200)))
    assert_batch_matches_scalar([p * q for p in (3, 5, 7, 61) for q in (67, 71, 2 ** 31 - 1)])


def test_is_prime_batch_rejects_base2_pseudoprimes_with_small_factors():
    # the batch test does no trial division, so its strong tests must reject
    # every base-2 strong pseudoprime with a factor up to 61 on their own
    odd = np.arange(3, 10 ** 6, 2, dtype=np.int64)
    found = [v for v in odd[arith._sprp(odd, 2)].tolist() if not arith.is_prime(v)
             and any(v % p == 0 for p in arith._SMALL_PRIMES)]
    assert found[:5] == [2047, 3277, 4033, 4681, 8321]
    assert not arith.is_prime_batch(found).any()


def test_is_prime_batch_small_factor_products_at_tier_edges():
    # r p and r^j for every r up to 61, against the scalar test: p the primes
    # next to each edge and to each edge over r, r^j the powers of r next to
    # each edge, with the edges the tier bounds, 2^32 and 2^50
    def prime_near(x, step):
        while not arith.is_prime(x):
            x += step
        return x

    values = []
    for edge in [bound for bound, _ in arith._MR_TIERS[:-1]] + [2 ** 32, 2 ** 50]:
        for r in arith._SMALL_PRIMES:
            for x in (edge, edge // r):
                values += [r * prime_near(x - 1, -1), r * prime_near(x + 1, 1)]
            j = 1
            while r ** (j + 1) < edge:
                j += 1
            values += [r ** j, r ** (j + 1)]
    assert_batch_matches_scalar(values)


def test_is_prime_batch_keeps_shape():
    vals = np.arange(-3, 21, dtype=np.int64).reshape(4, 6)
    got = arith.is_prime_batch(vals)
    assert got.shape == (4, 6)
    assert got.tolist() == [[arith.is_prime(int(v)) for v in row] for row in vals]
    assert arith.is_prime_batch(np.empty((0, 8), dtype=np.int64)).shape == (0, 8)
    with pytest.raises(OverflowError):
        arith.is_prime_batch([2 ** 63 + 1])


def test_is_prime_batch_scalar_fallback_at_bound(monkeypatch):
    calls = []
    scalar = arith.is_prime

    def counted(x):
        calls.append(x)
        return scalar(x)

    monkeypatch.setattr(arith, "is_prime", counted)
    wide = [arith.BATCH_BOUND, arith.BATCH_BOUND + 2, 2 ** 61 - 1, 2 ** 62 - 1]
    narrow = [arith.BATCH_BOUND - 1, arith.BATCH_BOUND - 2, 97, 1, 0]
    got = arith.is_prime_batch(wide + narrow)
    assert sorted(calls) == sorted(wide)
    assert got.tolist() == [scalar(v) for v in wide + narrow]


@given(st.integers(min_value=0, max_value=2 ** 63 - 1), st.integers(min_value=1, max_value=64))
def test_iroot_bracket(x, r):
    y = arith.iroot(x, r)
    assert y ** r <= x
    assert (y + 1) ** r > x


def test_prime_power_decompose_fixed():
    assert arith.prime_power_decompose(16) == (2, 4)
    assert arith.prime_power_decompose(12) is None
    assert arith.prime_power_decompose(243) == (3, 5)
    assert arith.prime_power_decompose(0) is None
    assert arith.prime_power_decompose(1) is None
    assert arith.prime_power_decompose(2) == (2, 1)
    assert arith.prime_power_decompose(4096) == (2, 12)
    assert arith.prime_power_decompose(961) == (31, 2)
    assert arith.prime_power_decompose(1024 * 1024 - 1) is None
    # no prime factor up to 61, yet not a prime power (4757 = 67 * 71)
    for q in ((67 * 71) ** 2, 4757 ** 3, 67 ** 2 * 71, (2 ** 31 - 1) * 65537):
        assert arith.prime_power_decompose(q) is None, q


def test_prime_power_decompose_all_small():
    # independent oracle: rebuild every prime power below 5000 directly
    expected = {}
    for p in range(2, 5000):
        if trial_division_is_prime(p):
            v, m = p, 1
            while v < 5000:
                expected[v] = (p, m)
                v *= p
                m += 1
    for q in range(5000):
        assert arith.prime_power_decompose(q) == expected.get(q), q


@given(st.sampled_from([p for p in range(2, 100) if trial_division_is_prime(p)]),
       st.integers(min_value=1, max_value=62))
def test_prime_power_decompose_roundtrip(p, m):
    q = p ** m
    if q < 2 ** 63:
        assert arith.prime_power_decompose(q) == (p, m)


def test_prime_power_decompose_roundtrip_large_base():
    # bases past the trial-division primes go through the root stripping
    for p in (67, 71, 101, 65537, 2 ** 31 - 1):
        q, m = p, 1
        while q < 2 ** 63:
            assert arith.prime_power_decompose(q) == (p, m), (p, m)
            q, m = q * p, m + 1


def _decompose_all_exponents(q):
    # the literal test: an exact m-th root that is prime, for every m
    for m in range(62, 0, -1):
        r = arith.iroot(q, m)
        if r ** m == q and arith.is_prime(r):
            return (r, m)
    return None


def test_prime_power_decompose_matches_all_exponent_loop():
    rng = random.Random(20261018)
    values = []
    for _ in range(10000):
        values.append(rng.randrange(2, 2 ** 63))
        # a perfect power, so the root stripping is exercised as well
        m = rng.randrange(2, 63)
        values.append(rng.randrange(2, arith.iroot(2 ** 63 - 1, m) + 1) ** m)
    for q in values:
        assert arith.prime_power_decompose(q) == _decompose_all_exponents(q), q


def test_primes_in_range_fixed():
    assert list(arith.primes_in_range(1, 10)) == [2, 3, 5, 7]
    assert list(arith.primes_in_range(90, 100)) == [97]
    assert list(arith.primes_in_range(2, 2)) == [2]
    assert list(arith.primes_in_range(24, 28)) == []


def test_primes_in_range_segmented_matches_one_shot(monkeypatch):
    monkeypatch.setattr(arith, "DEFAULT_SEGMENT", 32)
    a = arith.primes_in_range(10 ** 6 - 200, 10 ** 6 + 200)
    b = [x for x in range(10 ** 6 - 200, 10 ** 6 + 201) if trial_division_is_prime(x)]
    assert list(a) == b


def test_prime_power_table_to_the_int64_edge():
    # p^3, p^4, ... up to 2^63 - 1, where one more factor p would wrap
    bound = arith.LIMIT - 1
    primes = arith.primes_in_range(2, arith.iroot(bound, 3))
    want = []
    for p in primes.tolist():
        q, j = p ** 3, 3
        while q <= bound:
            want.append((q, p, j))
            q, j = q * p, j + 1
    q, p, j = arith.prime_power_table(primes, bound)
    assert list(zip(q.tolist(), p.tolist(), j.tolist())) == sorted(want)


def test_primes_in_range_guards():
    with pytest.raises(ValueError):
        arith.primes_in_range(10, 5)
    with pytest.raises(OverflowError):
        arith.primes_in_range(2, 2 ** 63)


def test_euler_phi_fixed():
    assert arith.euler_phi(1) == 1
    assert arith.euler_phi(12) == 4
    assert arith.euler_phi(30) == 8
    assert arith.euler_phi(30 * 30) == 30 * arith.euler_phi(30) == 240
    with pytest.raises(ValueError):
        arith.euler_phi(0)


@given(st.integers(min_value=1, max_value=5000))
def test_euler_phi_counts_units(n):
    assert arith.euler_phi(n) == sum(1 for a in range(1, n + 1) if math.gcd(a, n) == 1)


def test_legendre_fixed():
    assert arith.legendre_symbol(-1, 5) == 1
    assert arith.legendre_symbol(2, 3) == -1
    assert arith.legendre_symbol(6, 3) == 0
    with pytest.raises(ValueError):
        arith.legendre_symbol(1, 4)
    with pytest.raises(ValueError):
        arith.legendre_symbol(1, 2)


@given(st.sampled_from([p for p in range(3, 200) if trial_division_is_prime(p)]),
       st.integers(min_value=-500, max_value=500))
def test_legendre_matches_square_enumeration(p, a):
    squares = {(x * x) % p for x in range(1, p)}
    if a % p == 0:
        expect = 0
    else:
        expect = 1 if a % p in squares else -1
    assert arith.legendre_symbol(a, p) == expect


def test_factorize_and_divisors():
    assert arith.factorize(1) == {}
    assert arith.factorize(360) == {2: 3, 3: 2, 5: 1}
    assert arith.factorize(2 ** 31 - 1) == {2 ** 31 - 1: 1}
    assert arith.divisors(28) == [1, 2, 4, 7, 14, 28]


@given(st.integers(min_value=1, max_value=10 ** 6))
@settings(max_examples=200)
def test_factorize_reassembles(n):
    fac = arith.factorize(n)
    prod = 1
    for p, e in fac.items():
        assert trial_division_is_prime(p)
        prod *= p ** e
    assert prod == n


def test_factorize_every_small_n_and_large_factors():
    for n in [*range(1, 20001), 2 ** 61 - 1, 2 * (2 ** 61 - 1), 3 ** 39, 97 ** 9, 67 ** 2 * 71]:
        fac = arith.factorize(n)
        assert list(fac) == sorted(fac), n
        assert all(arith.is_prime(p) and e >= 1 for p, e in fac.items()), n
        assert math.prod(p ** e for p, e in fac.items()) == n
    assert arith.factorize(67 ** 2 * 71) == {67: 2, 71: 1}
    assert arith.factorize(2 * (2 ** 61 - 1)) == {2: 1, 2 ** 61 - 1: 1}


def test_base_primes_dtype():
    ps = arith.primes_in_range(2, 1000)
    assert isinstance(ps, np.ndarray) and ps.dtype == np.int64
