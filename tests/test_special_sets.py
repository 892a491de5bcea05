"""Fixed-degree index sets: frozen tables, the degree-2 classification,
witness constructions, and the bounded high-degree searches."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ecgroups import arith, counting
from ecgroups import special_sets as ss
from ecgroups.realizability import (GroupShape, shape_realizable_over,
                                    smallest_prime_power_witness, smallest_prime_witness)

# Known complete n-sets for small cofactors within the default search
# bounds, with the certifying identities spelled out as (n, p, m, ell),
# e.g. 2^4 = 2*3^2 - 3 + 1 gives (3, 2, 4, -1) for k = 2.
HIGH_DEGREE_TABLES = {
    2: [3, 11, 45, 119, 120],
    3: [5, 72, 555],
    4: [1, 9, 23],
    5: [1, 2, 4, 56, 126],
}
HIGH_DEGREE_ENTRIES = {
    2: [(3, 2, 4, -1), (11, 3, 5, 0), (45, 2, 12, 1),
        (119, 13, 4, 2), (120, 13, 4, -2)],
    3: [(5, 3, 4, 1), (72, 5, 6, 1), (555, 31, 4, -1)],
    4: [(1, 2, 3, 3), (9, 7, 3, 2), (23, 2, 11, -3)],
    5: [(1, 2, 3, 2), (2, 3, 3, 3), (4, 3, 4, 0),
        (56, 5, 6, -1), (126, 43, 3, 1)],
}

CUBE_SOLUTIONS_PLUS = [(-19, 7), (-1, 1), (0, 1), (18, 7)]
CUBE_SOLUTIONS_MINUS = [(-18, 7), (0, 1), (1, 1), (19, 7)]


def test_high_degree_tables_frozen():
    for k, expected in HIGH_DEGREE_TABLES.items():
        assert ss.high_degree_n_set(k) == expected


def test_high_degree_entries_frozen():
    for k, expected in HIGH_DEGREE_ENTRIES.items():
        got = [(e.n, e.p, e.m, e.ell) for e in ss.high_degree_search(k)]
        assert got == expected


def test_high_degree_entries_revalidate():
    for k in HIGH_DEGREE_ENTRIES:
        for e in ss.high_degree_search(k):
            q = e.p ** e.m
            assert q == k * e.n * e.n + e.ell * e.n + 1
            assert e.ell * e.ell <= 4 * k
            w = shape_realizable_over(q, GroupShape(e.n, k))
            assert w is not None
            w.revalidate()
            assert w.m == e.m


def test_high_degree_excluded_candidate():
    # 13^3 = 237*9 + 21*3 + 1 yet trace 65 shares the factor 13, so n = 3
    # is a candidate at degree 3 for k = 237 without being realizable.
    assert 3 in ss.candidate_n_set(3, 237, 10)
    assert 3 not in ss.realizable_n_set(3, 237, 10)
    assert 3 not in ss.high_degree_n_set(237)


def test_candidate_set_tiny():
    assert ss.candidate_n_set(2, 4, 1) == [1]


def test_realizable_subset_of_candidates():
    for m in (1, 2, 3, 4):
        for k in (1, 2, 3, 7, 12):
            cand = ss.candidate_n_set(m, k, 60)
            real = ss.realizable_n_set(m, k, 60)
            assert set(real) <= set(cand)


def test_degree_one_sets_agree(monkeypatch):
    # over a prime field every candidate is realizable. The one-column kernel
    # against the literal scan: windows of one 64-offset block and of several
    # (isqrt(4k) >= 64 from k = 1024 on), and the shortest row ranges
    for k in range(1, 21):
        assert ss.realizable_n_set(1, k, 300) == _reference_n_set(1, k, 300, True)
    for k in (1000, 4096, 10 ** 6):
        assert ss.realizable_n_set(1, k, 40) == _reference_n_set(1, k, 40, True)
    for k in (1, 2, 7, 1000, 4096, 10 ** 6):
        for T in (1, 2, 3):
            assert ss.realizable_n_set(1, k, T) == _reference_n_set(1, k, T, True)
    # row 11 at k = 1 is the last row drawn, and its window 100, 111, 122,
    # 133, 144 is sieved out on admission
    window = [11 * 11 + ell * 11 + 1 for ell in range(-2, 3)]
    assert all(v > 61 and any(v % r == 0 for r in arith._SMALL_PRIMES) for v in window)
    assert ss.realizable_n_set(1, 1, 11) == _reference_n_set(1, 1, 11, True) == list(range(1, 11))

    # a bound past the 2^63 range is refused before the kernel runs
    def no_kernel(*args):
        raise AssertionError("ran the kernel past the bound")

    monkeypatch.setattr(counting, "_kernel_rows", no_kernel)
    with pytest.raises(OverflowError):
        ss.candidate_n_set(1, 1, 4 * 10 ** 9)


def _reference_n_set(m, k, T, realizable):
    """Literal per-n scan through prime-power decomposition."""
    w = math.isqrt(4 * k)
    out = []
    for n in range(1, T + 1):
        hit = False
        for ell in range(-w, w + 1):
            v = k * n * n + ell * n + 1
            if v < 2:
                continue
            d = arith.prime_power_decompose(v)
            if d is None or d[1] != m:
                continue
            if realizable and shape_realizable_over(v, GroupShape(n, k)) is None:
                continue
            hit = True
            break
        if hit:
            out.append(n)
    return out


def test_inversion_matches_decomposition_scan():
    for m in (2, 3):
        for k in (3, 4, 10):
            assert ss.candidate_n_set(m, k, 80) == _reference_n_set(m, k, 80, False)
            assert ss.realizable_n_set(m, k, 80) == _reference_n_set(m, k, 80, True)


def _solve_n(k, ell, q):
    """The positive integer n with k n^2 + ell n + 1 = q, if one exists."""
    disc = ell * ell + 4 * k * (q - 1)
    r = math.isqrt(disc)
    if r * r != disc:
        return None
    num = r - ell
    if num <= 0 or num % (2 * k):
        return None
    return num // (2 * k)


def _reference_hits(m, k, q_max):
    # the l-scan: solve the quadratic in n for every prime p and every ell
    w = math.isqrt(4 * k)
    out = []
    for p in arith.primes_in_range(2, arith.iroot(q_max, m)).tolist():
        for ell in range(-w, w + 1):
            n = _solve_n(k, ell, p ** m)
            if n is not None:
                out.append((n, p, ell))
    return out


def test_prime_power_hits_match_ell_scan():
    # the frozen tables stop at k = 5; this covers every cofactor up to 40
    for k in range(1, 41):
        for m in range(2, 12):
            primes = arith.primes_in_range(2, arith.iroot(10 ** 10, m))
            i, n, ell = ss._prime_power_hits(k, 10 ** 10, primes ** m)
            got = list(zip(n.tolist(), primes[i].tolist(), ell.tolist()))
            assert got == _reference_hits(m, k, 10 ** 10), (m, k)


def test_high_degree_search_at_the_int64_edge():
    # q up to 2^63 - 1, where k n^2 of a candidate n passes 2^63
    for k in (2, 3, 7):
        want = sorted((n, m, p, ell) for m in (3, 4)
                      for n, p, ell in _reference_hits(m, k, arith.LIMIT - 1)
                      if shape_realizable_over(p ** m, GroupShape(n, k)) is not None)
        found = ss.high_degree_search(k, m_max=4, q_max=arith.LIMIT - 1)
        assert [(e.n, e.m, e.p, e.ell) for e in found] == want, k
        assert all(type(x) is int for e in found for x in (e.n, e.p, e.m, e.ell))


def test_high_degree_search_sieves_once(monkeypatch):
    calls = []
    sieve = arith.primes_in_range

    def counted(lo, hi, *rest):
        calls.append((lo, hi))
        return sieve(lo, hi, *rest)

    monkeypatch.setattr(arith, "primes_in_range", counted)
    found = ss.high_degree_search(5, m_max=40, q_max=10 ** 12)
    assert calls == [(2, 10 ** 4)]
    assert [(e.n, e.p, e.m, e.ell) for e in found] == HIGH_DEGREE_ENTRIES[5]


def test_degree_two_classify_frozen():
    c = ss.degree_two_classify(26)
    assert c.tag is ss.DegreeTwoTag.PRIME_SQUARE_PLUS_ONE and c.p == 5
    c = ss.degree_two_classify(170)
    assert c.tag is ss.DegreeTwoTag.PRIME_SQUARE_PLUS_ONE and c.p == 13
    c = ss.degree_two_classify(43)
    assert c.tag is ss.DegreeTwoTag.PRIME_QUADRATIC and (c.p, c.sign) == (7, -1)
    c = ss.degree_two_classify(57)
    assert c.tag is ss.DegreeTwoTag.PRIME_QUADRATIC and (c.p, c.sign) == (7, 1)
    c = ss.degree_two_classify(4)
    assert c.tag is ss.DegreeTwoTag.PERFECT_SQUARE and c.h == 2
    c = ss.degree_two_classify(49)
    assert c.tag is ss.DegreeTwoTag.PERFECT_SQUARE and c.h == 7
    for k in (1, 7, 13, 31, 101):
        assert ss.degree_two_classify(k).tag is ss.DegreeTwoTag.NOT_EXCEPTIONAL


def test_degree_two_families_exclusive():
    # independent predicates; each k matches at most one family
    for k in range(1, 3001):
        fam = 0
        r = math.isqrt(k - 1) if k >= 2 else 0
        if k >= 2 and r * r == k - 1 and arith.is_prime(r) and r % 4 == 1:
            fam += 1
        hit2 = False
        for p in range(2, math.isqrt(k) + 2):
            if arith.is_prime(p) and p % 3 == 1:
                if p * p + p + 1 == k or p * p - p + 1 == k:
                    hit2 = True
        fam += hit2
        h = math.isqrt(k)
        if h * h == k and h > 1:
            fam += 1
        assert fam <= 1
        tagged = ss.degree_two_classify(k).tag is not ss.DegreeTwoTag.NOT_EXCEPTIONAL
        assert tagged == (fam == 1)


def test_predicted_gap_frozen():
    assert ss.degree_two_predicted_gap(4, 5) == [1, 2, 3, 4, 5]
    assert ss.degree_two_predicted_gap(9, 6) == [1, 2, 4, 6]
    assert ss.degree_two_predicted_gap(26, 10) == [1]
    assert ss.degree_two_predicted_gap(57, 3) == [1]
    assert ss.degree_two_predicted_gap(7, 10) == []


def test_predicted_gap_matches_scalar_definition():
    # the k = h^2 prediction from one sieve against its definition, n by n
    for h in range(2, 31):
        assert ss.degree_two_classify(h * h).h == h
        for T in (1, 2, 3, 50, 2000):
            want = [n for n in range(1, T + 1)
                    if arith.is_prime(h * n - 1) or arith.is_prime(h * n + 1)]
            assert ss.degree_two_predicted_gap(h * h, T) == want, (h, T)


def test_predicted_gap_matches_truth():
    # The prediction equals candidate minus realizable at degree 2, except
    # that the square-family rule overpredicts n = 1 for k = 4 and k = 9
    # (h = 2, 3: the interior square h^2 is itself a prime square with
    # ordinary trace 1, so n = 1 is realizable even though h -/+ 1 is prime).
    T = 200
    for k in range(1, 51):
        cand = set(ss.candidate_n_set(2, k, T))
        real = set(ss.realizable_n_set(2, k, T))
        gap = sorted(cand - real)
        pred = ss.degree_two_predicted_gap(k, T)
        if k in (4, 9):
            assert 1 not in gap
            assert sorted(set(pred) - {1}) == gap
        else:
            assert pred == gap


def test_fixed_degree_witness_frozen():
    w = ss.fixed_degree_witness(3, 2)
    assert (w.p, w.d, w.k, w.ell) == (7, 2, 4, 4)
    w = ss.fixed_degree_witness(2, 3)
    assert (w.p, w.d, w.k, w.ell) == (5, 2, 28, 6)
    w = ss.fixed_degree_witness(1, 1)
    assert (w.p, w.d, w.k, w.ell) == (3, 2, 2, 0)


def test_fixed_degree_witness_sweep():
    for n in range(1, 21):
        for m in range(1, 21):
            w = ss.fixed_degree_witness(n, m)
            assert w.p ** m == w.k * n * n + w.ell * n + 1
            assert w.ell * w.ell <= 4 * w.k
            assert math.gcd(m * (w.p - 1), w.p) == 1
            if m == 1:
                assert (w.p - 1) % (n * n) == 0 and w.p % 2 == 1
                for c in range(n * n + 1, w.p, n * n):
                    assert not (c % 2 == 1 and arith.is_prime(c))
            else:
                assert (w.p - 1) % n == 0 and m % w.p != 0
                for c in range(n + 1, w.p, n):
                    assert not (arith.is_prime(c) and m % c != 0)


def test_fixed_degree_witness_large():
    # the construction runs in big integers; k may exceed the 64-bit range
    w = ss.fixed_degree_witness(50, 50)
    assert w.p ** 50 == w.k * 2500 + w.ell * 50 + 1
    assert w.k > arith.LIMIT
    with pytest.raises(OverflowError):
        ss.fixed_degree_witness(2 ** 32, 1)


def test_balanced_frozen():
    assert ss.balanced_n_set(3, 10 ** 6) == [18, 19]
    assert ss.balanced_n_set(5, 10 ** 6) == []
    assert ss.balanced_n_set(7, 10 ** 4) == []
    assert ss.balanced_n_set(2, 10) == [1, 2, 3, 4, 6, 8, 10]
    assert ss.balanced_n_set(1, 12) == [1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 12]


def test_balanced_even_degree_count():
    # degree 2 count up to T: primes to T-1 plus primes to T+1 minus the
    # lower twin-prime count (n landing as both p+1 and p'-1)
    T = 1000
    ps = arith.primes_in_range(2, T + 1).tolist()
    twin = sum(1 for p in ps if p <= T - 1 and arith.is_prime(p + 2))
    small = sum(1 for p in ps if p <= T - 1)
    assert len(ss.balanced_n_set(2, T)) == small + len(ps) - twin
    # n = p^2 -+ 1 at degree 4 up to 3 10^9, where q = p^4 nears 2^63 and the
    # float of (q - 1) / k = p^4 - 1 rounds up to the square p^4
    T = 3 * 10 ** 9
    ps = arith.primes_in_range(2, arith.iroot(T + 1, 2)).tolist()
    assert ss.balanced_n_set(4, T) == sorted({p * p + d for p in ps for d in (-1, 1)
                                              if p * p + d <= T})


def test_balanced_degree_one_is_literal():
    # the paper's degree-1 square set: n^2 + 1 or n^2 +/- n + 1 prime, at
    # every T <= 40 and at T = 1999 and 2000
    literal = [n for n in range(1, 2001)
               if any(arith.is_prime(n * n + b * n + 1) for b in (-1, 0, 1))]
    for T in (*range(1, 41), 1999, 2000):
        assert ss.balanced_n_set(1, T) == [n for n in literal if n <= T], T


def test_balanced_matches_definition():
    for m in range(1, 7):
        assert ss.balanced_n_set(m, 400) == ss.realizable_n_set(m, 1, 400)


def test_prime_power_only_frozen():
    members, sufficient = ss.balanced_prime_power_only(100)
    assert 32 in members
    assert 32 in sufficient
    assert 8 not in members
    assert 1 not in members
    assert set(sufficient) <= set(members)


def test_prime_power_only_sufficient_is_literal():
    # the paper's wording: exactly one of n -/+ 1 prime and the three
    # quadratics n^2 + 1, n^2 +/- n + 1 all composite
    _, sufficient = ss.balanced_prime_power_only(2000)
    literal = [n for n in range(1, 2001)
               if arith.is_prime(n - 1) != arith.is_prime(n + 1)
               and not any(arith.is_prime(n * n + b * n + 1) for b in (-1, 0, 1))]
    assert sufficient == literal


def test_prime_power_only_matches_scalar_reference():
    # per n from the scalar predicates: a member when a proper prime power
    # witnesses (n, 1) and no prime does, sufficient when no prime does and
    # exactly one of n -/+ 1 is prime
    members, sufficient = [], []
    for n in range(1, 2001):
        shape = GroupShape(n, 1)
        in_pi = smallest_prime_witness(shape) is not None
        if not in_pi and smallest_prime_power_witness(shape) is not None:
            members.append(n)
        if not in_pi and arith.is_prime(n - 1) != arith.is_prime(n + 1):
            sufficient.append(n)
    for T in (1, 2, 3, 31, 32, 33, 1000, 2000):
        got = ss.balanced_prime_power_only(T)
        assert got == ([n for n in members if n <= T], [n for n in sufficient if n <= T]), T


def test_prime_power_only_matches_grid():
    spi, spp = counting.membership_grid(60, 1)
    members, _ = ss.balanced_prime_power_only(60)
    expected = [n for n in range(1, 61) if spp[n, 1] and not spi[n, 1]]
    assert members == expected


def test_diophantine_frozen():
    assert ss.diophantine_solutions("x^2+x+1", 3, 10 ** 6) == CUBE_SOLUTIONS_PLUS
    assert ss.diophantine_solutions("x^2-x+1", 3, 10 ** 6) == CUBE_SOLUTIONS_MINUS
    assert ss.diophantine_solutions("x^2+1", 4, 10 ** 6) == [(0, 1)]
    assert ss.diophantine_solutions("x^2+1", 2, 10 ** 6) == [(0, 1)]
    assert ss.diophantine_solutions("x^2+1", 3, 10 ** 6) == [(0, 1)]


def test_diophantine_matches_x_scan():
    for form, b in (("x^2+1", 0), ("x^2+x+1", 1), ("x^2-x+1", -1)):
        for m in (3, 4, 5):
            bound = 2000 if m < 5 else 500
            ref = []
            for x in range(-bound, bound + 1):
                v = x * x + b * x + 1
                y = arith.iroot(v, m)
                if y >= 1 and y ** m == v:
                    ref.append((x, y))
            ref.sort()
            assert ss.diophantine_solutions(form, m, bound) == ref


def test_diophantine_degenerate_exponent():
    got = ss.diophantine_solutions("x^2+1", 1, 3)
    assert got == [(x, x * x + 1) for x in range(-3, 4)]


def test_mirror_symmetry():
    plus = ss.diophantine_solutions("x^2+x+1", 3, 5000)
    minus = ss.diophantine_solutions("x^2-x+1", 3, 5000)
    assert sorted((-x, y) for x, y in plus) == minus


def test_bad_arguments():
    with pytest.raises(ValueError):
        ss.candidate_n_set(0, 1, 5)
    with pytest.raises(ValueError):
        ss.candidate_n_set(1, 0, 5)
    with pytest.raises(ValueError):
        ss.realizable_n_set(1, 1, 0)
    with pytest.raises(ValueError):
        ss.degree_two_classify(0)
    with pytest.raises(ValueError):
        ss.degree_two_predicted_gap(4, 0)
    with pytest.raises(ValueError):
        ss.high_degree_search(1)
    with pytest.raises(ValueError):
        ss.high_degree_search(2, m_max=2)
    with pytest.raises(OverflowError):
        ss.high_degree_search(2, q_max=arith.LIMIT + 1)
    with pytest.raises(OverflowError):
        ss.high_degree_search(2, q_max=arith.LIMIT)
    with pytest.raises(ValueError):
        ss.fixed_degree_witness(0, 1)
    with pytest.raises(ValueError):
        ss.balanced_n_set(0, 10)
    with pytest.raises(ValueError):
        ss.balanced_prime_power_only(0)
    with pytest.raises(ValueError):
        ss.diophantine_solutions("x^2+2", 3, 10)
    with pytest.raises(ValueError):
        ss.diophantine_solutions("x^2+1", 0, 10)
    with pytest.raises(OverflowError):
        ss.diophantine_solutions("x^2+1", 3, math.isqrt(arith.LIMIT) + 5)
    with pytest.raises(OverflowError):
        ss.candidate_n_set(1, 1, 4 * 10 ** 9)


@settings(max_examples=25, deadline=None)
@given(st.integers(1, 6), st.integers(1, 10), st.integers(1, 40))
def test_sets_random(m, k, T):
    cand = ss.candidate_n_set(m, k, T)
    real = ss.realizable_n_set(m, k, T)
    assert cand == _reference_n_set(m, k, T, False)
    assert real == _reference_n_set(m, k, T, True)
    assert all(type(n) is int for n in cand + real)
    assert set(real) <= set(cand)
    assert cand == sorted(set(cand))
    w = math.isqrt(4 * k)
    for n in cand:
        assert any(
            (d := arith.prime_power_decompose(k * n * n + ell * n + 1)) is not None
            and d[1] == m
            for ell in range(-w, w + 1)
            if k * n * n + ell * n + 1 >= 2)
