import math
import random
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ecgroups import arith, realizability
from ecgroups.realizability import (
    GroupShape,
    WaterhouseCase,
    candidate_values,
    hasse_window,
    shape_realizable_over,
    smallest_prime_power_witness,
    smallest_prime_witness,
    square_witness_primes,
    trace_admissible,
    witness_primes,
)

def prime_power_candidates(shape):
    """(l, (p, m)) for the prime-power candidate values, l ascending."""
    out = []
    for ell, v in candidate_values(shape):
        d = arith.prime_power_decompose(v)
        if d is not None:
            out.append((ell, d))
    return out


shapes = st.builds(GroupShape,
                   n=st.integers(min_value=1, max_value=300),
                   k=st.integers(min_value=1, max_value=300))


def test_group_shape_order_exponent():
    s = GroupShape(3, 5)
    assert s.order == 45
    assert s.exponent == 15
    with pytest.raises(ValueError):
        GroupShape(0, 1)
    with pytest.raises(ValueError):
        GroupShape(1, 0)


def test_trace_admissible_fixed():
    assert trace_admissible(31, 1, 7) is WaterhouseCase.OrdinaryCoprime
    assert trace_admissible(2, 4, -8) is WaterhouseCase.FullSquareTrace
    assert trace_admissible(13, 3, 65) is None  # a = 5*13 over 13^3
    assert trace_admissible(2, 4, 100) is None  # out of the Hasse range


def test_trace_admissible_case_sweep():
    # one representative per case
    assert trace_admissible(5, 2, 10) is WaterhouseCase.FullSquareTrace
    assert trace_admissible(5, 2, 5) is WaterhouseCase.ThirdSquareTrace  # 5 = 2 mod 3
    assert trace_admissible(7, 2, 7) is None  # 7 = 1 mod 3 excludes the sqrt trace
    assert trace_admissible(2, 3, 4) is WaterhouseCase.SmallCharOddTrace
    assert trace_admissible(3, 5, -27) is WaterhouseCase.SmallCharOddTrace
    assert trace_admissible(7, 2, 0) is WaterhouseCase.ZeroTraceEven  # 7 = 3 mod 4
    assert trace_admissible(5, 2, 0) is None  # 5 = 1 mod 4 excludes zero trace
    assert trace_admissible(5, 1, 0) is WaterhouseCase.ZeroTraceOdd
    assert trace_admissible(5, 1, 2) is WaterhouseCase.OrdinaryCoprime


def test_trace_admissible_rejects_composite_p():
    with pytest.raises(ValueError):
        trace_admissible(6, 1, 1)


def test_decomposed_q_is_not_proven_again(monkeypatch):
    # a p handed in with q's decomposition comes from a sieve or from
    # prime_power_decompose: shape_realizable_over decides without is_prime
    cases = [(16, GroupShape(5, 1), (2, 4)), (5, GroupShape(2, 1), (5, 1)),
             (3, GroupShape(2, 1), (3, 1))]
    want = [shape_realizable_over(q, s, _decomp=d) for q, s, d in cases]
    assert [w.case for w in want] == [WaterhouseCase.FullSquareTrace,
                                      WaterhouseCase.OrdinaryCoprime,
                                      WaterhouseCase.ZeroTraceOdd]

    def no_proof(x):
        raise AssertionError(f"is_prime({x}) on a decomposed q")

    with monkeypatch.context() as mp:
        mp.setattr(realizability, "is_prime", no_proof)
        assert [shape_realizable_over(q, s, _decomp=d) for q, s, d in cases] == want
    # the public guard still proves its p
    with pytest.raises(ValueError):
        trace_admissible(6, 1, 1)


def test_admissible_cases_mutually_exclusive():
    # for any fixed (p, m, a) at most one of the six Waterhouse conditions
    # holds, and trace_admissible returns exactly that one
    C = WaterhouseCase
    for p in (2, 3, 5, 7, 13):
        for m in (1, 2, 3, 4):
            q = p ** m
            w = math.isqrt(4 * q)
            for a in range(-w, w + 1):
                held = [case for case, cond in (
                    (C.OrdinaryCoprime, math.gcd(a, p) == 1),
                    (C.FullSquareTrace, m % 2 == 0 and a * a == 4 * q),
                    (C.ThirdSquareTrace, m % 2 == 0 and p % 3 != 1 and a * a == q),
                    (C.SmallCharOddTrace, m % 2 == 1 and p in (2, 3) and a * a == p * q),
                    (C.ZeroTraceEven, m % 2 == 0 and p % 4 != 1 and a == 0),
                    (C.ZeroTraceOdd, m % 2 == 1 and a == 0),
                ) if cond]
                assert len(held) <= 1
                assert trace_admissible(p, m, a) is (held[0] if held else None)


def test_candidate_prime_powers_fixed():
    assert prime_power_candidates(GroupShape(11, 1)) == []
    assert prime_power_candidates(GroupShape(5, 1)) == [(-2, (2, 4)), (1, (31, 1))]
    assert prime_power_candidates(GroupShape(1, 1)) == [(0, (2, 1)), (1, (3, 1)), (2, (2, 2))]


def test_candidate_values_window():
    # scan of {16,21,26,31,36} for (5,1)
    assert [v for _, v in candidate_values(GroupShape(5, 1))] == [16, 21, 26, 31, 36]
    # (1,1): values 0 and 1 are dropped
    assert [v for _, v in candidate_values(GroupShape(1, 1))] == [2, 3, 4]


def test_candidate_overflow_guard():
    with pytest.raises(OverflowError):
        candidate_values(GroupShape(2 ** 31, 2 ** 31))
    with pytest.raises(OverflowError):
        smallest_prime_power_witness(GroupShape(2 ** 31, 2 ** 31))


def test_shape_realizable_over_fixed():
    w = shape_realizable_over(16, GroupShape(5, 1))
    assert w is not None
    assert (w.ell, w.trace, w.case) == (-2, -8, WaterhouseCase.FullSquareTrace)
    w.revalidate()

    assert shape_realizable_over(841, GroupShape(15, 4)) is None  # a=-58 forces (ii), k=4 not 29-power
    assert shape_realizable_over(2197, GroupShape(3, 237)) is None  # a=65=5*13 inadmissible
    with pytest.raises(ValueError):
        shape_realizable_over(12, GroupShape(1, 1))


def test_shape_realizable_requires_weil_congruence():
    # q = 1 mod n fails: q=16, n=3 (16 = 1 mod 3 actually holds; use n=7: 16 mod 7 = 2)
    assert shape_realizable_over(16, GroupShape(7, 1)) is None


def test_smallest_prime_witness_fixed():
    assert smallest_prime_witness(GroupShape(2, 1)) == 3
    assert smallest_prime_witness(GroupShape(11, 1)) is None
    assert smallest_prime_witness(GroupShape(32, 1)) is None


def test_smallest_prime_power_witness_fixed():
    w = smallest_prime_power_witness(GroupShape(32, 1))
    assert w is not None and w.q == 961 and w.ell == -2
    assert w.case is WaterhouseCase.FullSquareTrace
    w.revalidate()

    assert smallest_prime_power_witness(GroupShape(11, 14)) is None

    w = smallest_prime_power_witness(GroupShape(5, 1))
    assert w is not None and w.q == 16
    w.revalidate()


def test_witness_primes_fixed():
    assert witness_primes(GroupShape(2, 1)) == [3, 5, 7]
    assert witness_primes(GroupShape(11, 1)) == []
    assert witness_primes(GroupShape(1, 2)) == [2, 3, 5]


def test_square_witness_primes_fixed():
    assert square_witness_primes(GroupShape(1, 5)) == [2, 3]
    assert square_witness_primes(GroupShape(3, 4)) == [5, 7]
    assert square_witness_primes(GroupShape(4, 1)) == [3, 5]
    assert square_witness_primes(GroupShape(11, 1)) == []


def test_missed_pair_candidates_have_no_admissible_route():
    # (15,4): the only candidate prime powers are 29^2 and 31^2 and both force
    # the full-square case with k not a characteristic power
    cands = prime_power_candidates(GroupShape(15, 4))
    assert [(ell, p, m) for ell, (p, m) in cands] == [(-4, 29, 2), (4, 31, 2)]
    assert smallest_prime_power_witness(GroupShape(15, 4)) is None


@given(shapes)
@settings(max_examples=150)
def test_prime_membership_implies_prime_power_membership(s):
    if smallest_prime_witness(s) is not None:
        w = smallest_prime_power_witness(s)
        assert w is not None
        w.revalidate()


@given(shapes)
@settings(max_examples=150)
def test_prime_witness_head_consistency(s):
    ps = witness_primes(s)
    first = smallest_prime_witness(s)
    if ps:
        assert first == ps[0]
    else:
        assert first is None


@given(shapes)
@settings(max_examples=150)
def test_smallest_witness_is_first_realizing_candidate(s):
    # the lazy search must stop exactly where the full candidate list first realizes
    first = None
    for _, (p, m) in prime_power_candidates(s):
        first = shape_realizable_over(p ** m, s, _decomp=(p, m))
        if first is not None:
            break
    assert smallest_prime_power_witness(s) == first


@given(shapes)
@settings(max_examples=100)
def test_witness_weil_congruence(s):
    w = smallest_prime_power_witness(s)
    if w is not None:
        assert (w.q - 1) % s.n == 0
        w.revalidate()


def test_square_witness_count_bound_exhaustive():
    # at most one prime square candidate outside the two exception families:
    # (n=1, 4 <= k <= 9) and (k = h^2 with both h*n - 1 and h*n + 1 prime)
    for n in range(1, 201):
        for k in range(1, 201):
            ps = square_witness_primes(GroupShape(n, k))
            if len(ps) <= 1:
                continue
            h = math.isqrt(k)
            if n == 1 and 4 <= k <= 9:
                assert ps == [2, 3]
            else:
                assert h * h == k and len(ps) == 2
                assert ps == [h * n - 1, h * n + 1]
                assert arith.is_prime(h * n - 1) and arith.is_prime(h * n + 1)


def square_witness_scan(shape):
    """square_witness_primes as a scan of the whole window, value by value."""
    out = []
    for _, v in candidate_values(shape):
        r = math.isqrt(v)
        if r * r == v and arith.is_prime(r):
            out.append(r)
    return out


def _seeded_shapes(count, seed):
    """count shapes with n <= 10^6 and k <= 10^4: half uniform, half planted
    around a prime p, with n | p^2 - 1 and k = round((p^2 - 1) / n^2), so that
    p^2 is near the middle of the window and often inside it."""
    rng = random.Random(seed)
    out = [GroupShape(rng.randint(1, 10 ** 6), rng.randint(1, 10 ** 4))
           for _ in range(count // 2)]
    while len(out) < count:
        p = rng.randint(3, 10 ** 5)
        while not arith.is_prime(p):
            p += 1
        ns = [d for d in arith.divisors(p * p - 1)
              if d <= 10 ** 6 and 1 <= round((p * p - 1) / (d * d)) <= 10 ** 4]
        if ns:
            n = rng.choice(ns)
            out.append(GroupShape(n, round((p * p - 1) / (n * n))))
    return out


def test_square_witness_primes_match_window_scan():
    hits = 0
    for s in _seeded_shapes(10 ** 4, seed=25):
        got = square_witness_primes(s)
        assert got == square_witness_scan(s), s
        hits += bool(got)
    assert hits > 1000
    for n in range(1, 41):
        for k in range(1, 41):
            s = GroupShape(n, k)
            assert square_witness_primes(s) == square_witness_scan(s), s


def test_square_witness_primes_ignore_window_length():
    # the window of (1, 2^62) holds 2^33 + 1 values; p^2 = 2^62 - 2^32 + 1 at
    # l = -2^32 is its only prime square
    start = time.perf_counter()
    assert square_witness_primes(GroupShape(1, 2 ** 62)) == [2 ** 31 - 1]
    assert time.perf_counter() - start < 1.0


def _k_is_power_of(k, p):
    while k % p == 0:
        k //= p
    return k == 1


def test_full_square_case_needs_k_one():
    # Rueck's rule in the full-square case wants k a power of p; k n^2 =
    # (p^(m/2) -+ 1)^2 is prime to p, so that is k = 1. Checked over every
    # full-square hit (q, n, k) with q <= 10^4: a = +-2 p^(m/2), k n^2 =
    # q + 1 - a and q = 1 mod n
    hits = 0
    for q in range(2, 10 ** 4 + 1):
        d = arith.prime_power_decompose(q)
        if d is None or d[1] % 2:
            continue
        p, m = d
        for a in (2 * p ** (m // 2), -2 * p ** (m // 2)):
            order = q + 1 - a
            for n in range(1, math.isqrt(order) + 1):
                if order % (n * n) or (q - 1) % n:
                    continue
                k = order // (n * n)
                assert k % p != 0, (q, n, k)
                w = shape_realizable_over(q, GroupShape(n, k))
                assert (w is not None) == _k_is_power_of(k, p) == (k == 1), (q, n, k)
                if w is not None:
                    assert w.case is WaterhouseCase.FullSquareTrace
                    w.revalidate()
                hits += 1
    assert hits > 400


def test_hasse_window():
    assert hasse_window(2) == (1, 5)
    assert hasse_window(5) == (2, 10)
    lo, hi = hasse_window(64)
    assert lo == 65 - 16 and hi == 65 + 16


@given(st.integers(min_value=2, max_value=10 ** 6))
def test_hasse_window_exact(q):
    lo, hi = hasse_window(q)
    assert (q + 1 - lo) ** 2 <= 4 * q < (q + 1 - (lo - 1)) ** 2
    assert (hi - q - 1) ** 2 <= 4 * q < (hi + 1 - q - 1) ** 2
