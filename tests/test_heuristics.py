"""Probabilistic model: per-cell probabilities, grid sums, and constants."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ecgroups import arith, counting, heuristics

ZETA3 = 1.202056903159594285


def test_rho_frozen():
    assert heuristics.rho(1, 1, -2) == 0.0
    assert heuristics.rho(2, 3, 0) == pytest.approx(0.7797424905025602, rel=1e-12)
    assert heuristics.rho(11, 1, 0) == pytest.approx(0.2289748503924544, rel=1e-12)


def test_rho_formula():
    # spot-check against the displayed formula with independent phi values
    assert heuristics.rho(11, 1, 0) == pytest.approx(1.1 / math.log(122), rel=1e-14)
    assert heuristics.rho(2, 3, 0) == pytest.approx(2.0 / math.log(13), rel=1e-14)
    assert heuristics.rho(6, 2, -1) == pytest.approx(3.0 / math.log(67), rel=1e-14)


def test_vartheta_frozen():
    assert heuristics.vartheta(11, 1) == pytest.approx(0.2714528158298103, rel=1e-12)
    assert heuristics.vartheta(1, 1) == 0.0
    assert heuristics.vartheta(2, 1) == 0.0


def test_vartheta_range():
    for n in range(1, 30):
        for k in range(1, 20):
            v = heuristics.vartheta(n, k)
            assert 0.0 <= v <= 1.0


def test_vartheta_regimes():
    # k far below (log n)^2 leaves the product near its few-factor ceiling;
    # k far above collapses it (measured anchors, not asymptotic claims)
    hi = heuristics.vartheta(10 ** 6, 2)
    assert 0.60 < hi < 0.66
    assert heuristics.vartheta(10, 10 ** 4) < 1e-30


def test_vartheta_raw_mode():
    # unclamped factors can go negative for tiny candidate values
    raw = heuristics.vartheta(1, 1, clamp=False)
    assert raw < 0.0
    assert heuristics.vartheta(11, 1, clamp=False) == pytest.approx(
        heuristics.vartheta(11, 1), rel=1e-12)


def test_b_grid_frozen():
    total, cells = heuristics.b_grid(1, 1)
    assert total == 0.0
    assert cells.shape == (2, 2)
    total, cells = heuristics.b_grid(25, 25)
    assert total == pytest.approx(33.265687929551845, rel=1e-9)
    assert cells[11, 1] == pytest.approx(0.2714528158298103, rel=1e-12)
    assert total == pytest.approx(float(cells[1:, 1:].sum()), rel=1e-12)
    assert total <= 25 * 25


def test_b_grid_monotone():
    _, cells = heuristics.b_grid(12, 12)
    import numpy as np
    cum = cells[1:, 1:].cumsum(axis=0).cumsum(axis=1)
    assert (np.diff(cum, axis=0) >= -1e-15).all()
    assert (np.diff(cum, axis=1) >= -1e-15).all()


def test_beta_grid_frozen():
    table = heuristics.beta_grid(25, 25)
    by_corner = {(r.n, r.k): r for r in table}
    cell = by_corner[(1, 1)]
    assert cell.misses == 0 and cell.weight == 0.0 and cell.beta is None
    cell = by_corner[(25, 25)]
    assert cell.misses == 17
    assert cell.weight == pytest.approx(33.265687929551845, rel=1e-9)
    assert cell.beta == pytest.approx(0.511037079287271, rel=1e-9)
    for r in table:
        if r.beta is not None:
            assert r.beta >= 0.0


def test_beta_grid_matches_survey():
    table = heuristics.beta_grid(12, 9)
    by_corner = {(r.n, r.k): r for r in table}
    for N, K in ((3, 2), (7, 9), (12, 5), (12, 9)):
        grid = counting.survey(N, K)
        assert by_corner[(N, K)].misses == N * K - grid.count_S_Pi


def test_zeta3():
    assert abs(heuristics.zeta3() - ZETA3) < 1e-13


def test_constants_frozen():
    c = heuristics.constants()
    assert c.theta == pytest.approx(1.9435964368207523, rel=1e-9)
    assert c.main == pytest.approx(2.5914619157610033, rel=1e-9)
    assert abs(c.main - 4.0 * c.theta / 3.0) < 1e-12
    assert c.theta == pytest.approx(315 * ZETA3 / (2 * math.pi ** 4), rel=1e-12)
    assert c.main == pytest.approx(210 * ZETA3 / math.pi ** 4, rel=1e-12)


def test_bateman_horn_exact_small():
    t = heuristics.bateman_horn_C(3)
    assert t.value == pytest.approx(1.75, abs=1e-15)
    assert t.tenth_value is None
    t = heuristics.bateman_horn_C(5)
    assert t.value == pytest.approx(1.8125, abs=1e-15)


def test_bateman_horn_frozen():
    t = heuristics.bateman_horn_C(1000)
    assert t.value == pytest.approx(1.8035366139149054, rel=1e-12)
    assert t.tenth_bound == 100
    t = heuristics.bateman_horn_C(10 ** 5)
    assert t.value == pytest.approx(1.8065320788435413, rel=1e-12)
    assert t.tenth_value == pytest.approx(1.804389022567172, rel=1e-12)


def test_bateman_horn_convergence():
    t = heuristics.bateman_horn_C(10 ** 6)
    assert abs(t.value - t.tenth_value) < 1e-3
    assert t.value == pytest.approx(1.8070100089078056, rel=1e-10)


def test_bateman_horn_character_values():
    # the two characters drive the products; pin the closed forms against
    # legendre_symbol, and the product against one built from legendre_symbol
    P = 10 ** 4
    t1 = t2 = 1.0
    for p in arith.primes_in_range(3, P).tolist():
        chi4 = arith.legendre_symbol(-1, p)
        chi3 = arith.legendre_symbol(-3, p)
        assert chi4 == (1 if p % 4 == 1 else -1), p
        assert chi3 == (0 if p == 3 else 1 if p % 3 == 1 else -1), p
        t1 *= 1.0 - chi4 / (p - 1)
        t2 *= 1.0 - chi3 / (p - 1)
    assert heuristics.bateman_horn_C(P).value == 0.5 * t1 + t2


def test_bateman_horn_one_segment_at_a_time(monkeypatch):
    # segments of 1000: the same product bit for bit, and no sieve call
    # spanning more than one segment
    want = heuristics.bateman_horn_C(10 ** 6)
    spans = []
    sieve = arith.primes_in_range

    def watched(lo, hi):
        spans.append(hi - lo + 1)
        return sieve(lo, hi)

    monkeypatch.setattr(arith, "DEFAULT_SEGMENT", 1000)
    monkeypatch.setattr(arith, "primes_in_range", watched)
    assert heuristics.bateman_horn_C(10 ** 6) == want
    assert len(spans) == 1000 and max(spans) <= 1000


def test_bad_arguments():
    with pytest.raises(ValueError):
        heuristics.rho(0, 1, 0)
    with pytest.raises(ValueError):
        heuristics.vartheta(1, 0)
    with pytest.raises(ValueError):
        heuristics.b_grid(0, 5)
    with pytest.raises(ValueError):
        heuristics.beta_grid(5, 0)
    with pytest.raises(ValueError):
        heuristics.bateman_horn_C(2)
    with pytest.raises(OverflowError):
        heuristics.b_grid(1, 1 << 63)
    # at (1, K) the largest candidate is exactly 2^63, one past the range
    K = 9223372030780774810
    assert arith.candidate_bound(1, K - 1) == arith.LIMIT - 1
    with pytest.raises(OverflowError):
        heuristics.b_grid(1, K)


@settings(max_examples=30, deadline=None)
@given(st.integers(1, 60), st.integers(1, 60))
def test_vartheta_matches_direct_product(n, k):
    w = math.isqrt(4 * k)
    expected = 1.0
    for ell in range(-w, w + 1):
        v = k * n * n + ell * n + 1
        r = 0.0 if v <= 1 else n / (arith.euler_phi(n) * math.log(v))
        expected *= min(1.0, max(0.0, 1.0 - r))
    assert heuristics.vartheta(n, k) == pytest.approx(expected, rel=1e-12, abs=1e-300)
