import json
import math
import random

import numpy as np
import pytest

from ecgroups import arith, curve_oracle
from ecgroups.curve_oracle import (
    MAX_ORACLE_BOUND,
    BoundError,
    FiniteField,
    atlas,
    build_field,
    predicted_shapes,
    realized_shapes,
    _badd,
    _bdbl,
    _coset_reps,
    _lane_points,
    _normal_forms,
    _resolve_class,
    _ring_tables,
    _square_part,
    _tables,
)
from ecgroups.realizability import GroupShape
from scalar_oracle import (
    CurveModel,
    ScalarField,
    enumerate_curves,
    group_structure,
    _point_add,
    _points,
    _scalar_mul,
)


# ---------------------------------------------------------------------------
# independent reference helpers, deliberately written from scratch
# ---------------------------------------------------------------------------

def ref_poly_reducible(coeffs, p):
    """Trial division by every lower-degree monic polynomial."""
    deg = len(coeffs) - 1

    def polydiv_exact(num, den):
        num = list(num)
        out = []
        while len(num) >= len(den):
            c = num[-1]
            out.append(c)
            for i, d in enumerate(reversed(den)):
                num[-1 - i] = (num[-1 - i] - c * d) % p
            num.pop()
        return all(x == 0 for x in num)

    for d in range(1, deg):
        for t in range(p ** d):
            cand, tt = [], t
            for _ in range(d):
                cand.append(tt % p)
                tt //= p
            cand.append(1)
            if polydiv_exact(coeffs, cand):
                return True
    return False


def on_curve(curve, P):
    """Check the curve equation at a point; the identity always passes."""
    if P is None:
        return True
    F = curve.field
    x, y = P
    lhs = F.add(F.mul(y, y), F.add(F.mul(F.mul(curve.a1, x), y), F.mul(curve.a3, y)))
    rhs = F.add(F.mul(F.add(F.mul(F.add(x, curve.a2), x), curve.a4), x), curve.a6)
    return lhs == rhs


def brute_points(curve):
    """All affine points by testing the curve equation at every pair."""
    q = curve.field.q
    return [(x, y) for x in range(q) for y in range(q) if on_curve(curve, (x, y))]


def linear_order(curve, P):
    """Order of a point by walking P, 2P, 3P, ... to the identity."""
    acc = P
    n = 1
    while acc is not None:
        acc = _point_add(curve, acc, P)
        n += 1
        assert n <= 200, "runaway order walk"
    return n


def reference_structure(curve):
    """Group shape derived only from order statistics of all points."""
    pts = brute_points(curve)
    N = len(pts) + 1
    if N == 1:
        return 1, 1, 1
    orders = [linear_order(curve, P) for P in pts]
    d2 = 1
    for o in orders:
        d2 = d2 * o // math.gcd(d2, o)
    assert d2 == max(orders)
    assert N % d2 == 0
    d1 = N // d2
    # order statistics must match Z_d1 x Z_d2 exactly
    for m in arith.divisors(N):
        got = 1 + sum(1 for o in orders if m % o == 0)
        assert got == math.gcd(m, d1) * math.gcd(m, d2)
    return N, d1, d2


# ---------------------------------------------------------------------------
# fields
# ---------------------------------------------------------------------------

def test_build_field_moduli():
    assert build_field(2, 1).modulus == (0, 1)
    assert build_field(2, 2).modulus == (1, 1, 1)
    assert build_field(3, 2).modulus == (1, 0, 1)
    assert build_field(11, 2).modulus == (1, 0, 1)
    assert build_field(5, 1).q == 5


def extension_fields():
    """(p, m) of every field of p^m <= MAX_ORACLE_BOUND elements with m >= 2."""
    for q in range(4, MAX_ORACLE_BOUND + 1):
        decomp = arith.prime_power_decompose(q)
        if decomp is not None and decomp[1] >= 2:
            yield decomp


def test_build_field_modulus_minimality():
    # for every extension field in the bound, the chosen modulus must be
    # irreducible and every earlier coefficient pattern reducible, checked
    # by independent trial division
    for p, m in extension_fields():
        coeffs = list(build_field(p, m).modulus)
        assert len(coeffs) == m + 1 and coeffs[-1] == 1, (p, m)
        assert not ref_poly_reducible(coeffs, p), (p, m)
        chosen = sum(c * p ** i for i, c in enumerate(coeffs[:-1]))
        for t in range(chosen):
            cand = [t // p ** i % p for i in range(m)] + [1]
            assert ref_poly_reducible(cand, p), (p, m, cand)


def test_field_tables_match_polynomial_reference():
    # every sum and product of every extension field, against digit lists
    # multiplied by schoolbook and reduced by the field's modulus
    for p, m in extension_fields():
        F = ScalarField(build_field(p, m))
        T = _tables(F)
        f = F.modulus
        digits = [[a // p ** i % p for i in range(m)] for a in range(F.q)]

        def encode(coeffs):
            return sum(c % p * p ** i for i, c in enumerate(coeffs))

        for a, da in enumerate(digits):
            for b, db in enumerate(digits):
                prod = [0] * (2 * m - 1)
                for i, x in enumerate(da):
                    for j, y in enumerate(db):
                        prod[i + j] += x * y
                for top in range(2 * m - 2, m - 1, -1):
                    c = prod.pop() % p
                    for j in range(m):
                        prod[top - m + j] -= c * f[j]
                assert T["MUL"][a, b] == F.mul(a, b) == encode(prod), (p, m, a, b)
                total = encode([x + y for x, y in zip(da, db)])
                assert T["ADD"][a, b] == F.add(a, b) == total, (p, m, a, b)
                if p == 2:
                    assert T["ADD"][a, b] == a ^ b


def test_build_field_errors():
    with pytest.raises(BoundError):
        build_field(2, 8)
    with pytest.raises(BoundError):
        build_field(131, 1)
    with pytest.raises(ValueError):
        build_field(6, 1)
    with pytest.raises(ValueError):
        build_field(2, 0)


def test_field_axioms_sampled():
    rng = random.Random(7)
    for p, m in [(2, 4), (3, 3), (5, 2), (7, 1)]:
        F = ScalarField(build_field(p, m))
        q = F.q
        for _ in range(200):
            a, b, c = (rng.randrange(q) for _ in range(3))
            assert F.add(a, b) == F.add(b, a)
            assert F.mul(a, b) == F.mul(b, a)
            assert F.add(F.add(a, b), c) == F.add(a, F.add(b, c))
            assert F.mul(F.mul(a, b), c) == F.mul(a, F.mul(b, c))
            assert F.mul(a, F.add(b, c)) == F.add(F.mul(a, b), F.mul(a, c))
            assert F.add(a, F.neg(a)) == 0
        for a in range(1, q):
            assert F.mul(a, F.inv(a)) == 1


def test_frobenius_fixes_prime_subfield():
    for p, m in [(2, 4), (3, 2), (5, 2)]:
        F = ScalarField(build_field(p, m))
        fixed = [a for a in range(F.q) if F.pow(a, p) == a]
        assert fixed == list(range(p))


def test_field_rejects_reducible_modulus():
    # build_field passes irreducible moduli only; over x^2, which is
    # reducible, the class of x is a zero divisor and has no inverse
    with pytest.raises(AssertionError, match="no inverse"):
        FiniteField(2, 2, [0, 0, 1], *_ring_tables(2, 2, [0, 0, 1]))


# ---------------------------------------------------------------------------
# curve enumeration
# ---------------------------------------------------------------------------

def test_enumerate_f5_count():
    F = ScalarField(build_field(5, 1))
    curves = list(enumerate_curves(F))
    singular = sum(1 for a4 in range(5) for a6 in range(5)
                   if (4 * a4 ** 3 + 27 * a6 ** 2) % 5 == 0)
    assert len(curves) == 25 - singular
    assert any(c.a4 == 1 and c.a6 == 0 for c in curves)


def test_enumerate_f2():
    F = ScalarField(build_field(2, 1))
    curves = list(enumerate_curves(F))
    assert len(curves) == 2 + 4
    tgt = [c for c in curves if (c.a1, c.a3, c.a4, c.a6) == (0, 1, 0, 0)]
    assert len(tgt) == 1
    gs = group_structure(tgt[0])
    assert (gs.order, gs.d1, gs.d2) == (3, 1, 3)


def test_enumerate_f4_attains_upper_hasse_corner():
    F = ScalarField(build_field(2, 2))
    best = max(group_structure(c).order for c in enumerate_curves(F))
    assert best == 9


def test_singular_curve_rejected():
    F = ScalarField(build_field(5, 1))
    with pytest.raises(ValueError):
        CurveModel(F, 0, 0, 0, 0, 0)


def test_curve_coefficients_validated():
    F = ScalarField(build_field(5, 1))
    with pytest.raises(ValueError):
        CurveModel(F, 0, 0, 0, 9, 1)


# ---------------------------------------------------------------------------
# group structure
# ---------------------------------------------------------------------------

def test_group_structure_fixed():
    F5 = ScalarField(build_field(5, 1))
    gs = group_structure(CurveModel(F5, 0, 0, 0, 1, 0))
    assert (gs.order, gs.d1, gs.d2) == (4, 2, 2)
    assert gs.shape == GroupShape(2, 1)


def test_structure_against_reference_exhaustive():
    # every curve over every field up to nine elements, checked against an
    # order-statistics reference that never uses the ladder or early exits
    for p, m in [(2, 1), (3, 1), (2, 2), (5, 1), (7, 1), (2, 3), (3, 2)]:
        F = ScalarField(build_field(p, m))
        q = F.q
        for curve in enumerate_curves(F):
            N, d1, d2 = reference_structure(curve)
            gs = group_structure(curve)
            assert (gs.order, gs.d1, gs.d2) == (N, d1, d2)
            assert (q - 1) % gs.d1 == 0
            assert (q + 1 - N) ** 2 <= 4 * q


def test_points_solver_matches_brute_force():
    for p, m in [(2, 3), (3, 2), (5, 1), (7, 1)]:
        F = ScalarField(build_field(p, m))
        for curve in list(enumerate_curves(F))[::7]:
            assert sorted(_points(curve)) == sorted(brute_points(curve))


def test_addition_closure_and_associativity():
    rng = random.Random(11)
    F = ScalarField(build_field(2, 3))
    curves = list(enumerate_curves(F))
    for curve in rng.sample(curves, 12):
        pts = _points(curve) + [None]
        for P in pts:
            for Q in pts:
                S = _point_add(curve, P, Q)
                assert on_curve(curve, S)
                assert S is None or S in pts
        for _ in range(40):
            P, Q, R = (rng.choice(pts) for _ in range(3))
            lhs = _point_add(curve, _point_add(curve, P, Q), R)
            rhs = _point_add(curve, P, _point_add(curve, Q, R))
            assert lhs == rhs


def test_scalar_mul_consistency():
    F = ScalarField(build_field(7, 1))
    curve = CurveModel(F, 0, 0, 0, 1, 3)
    pts = _points(curve)
    for P in pts[:5]:
        acc = None
        for k in range(9):
            assert acc == _scalar_mul(curve, k, P)
            acc = _point_add(curve, acc, P)


# ---------------------------------------------------------------------------
# realized shape atlas
# ---------------------------------------------------------------------------

def test_realized_shapes_frozen_small():
    assert realized_shapes(2) == {GroupShape(1, k) for k in range(1, 6)}
    expect5 = {GroupShape(1, k) for k in range(2, 11)} | {GroupShape(2, 1), GroupShape(2, 2)}
    assert realized_shapes(5) == expect5


def test_realized_shapes_q16_contains_rank_two_witness():
    shapes = realized_shapes(16)
    assert GroupShape(5, 1) in shapes


def test_realized_shapes_q4_forced_structure():
    # order nine at q = 4 comes only from the trace -4 curves, which are
    # forced to split; cyclic Z_9 must not appear
    shapes = realized_shapes(4)
    assert GroupShape(3, 1) in shapes
    assert GroupShape(1, 9) not in shapes


def test_realized_matches_predicted_small_fields():
    # every prime power up to the oracle bound, the one bound realized_shapes
    # enforces: 67, 81 and 128 need no argument
    for q in range(2, MAX_ORACLE_BOUND + 1):
        if arith.prime_power_decompose(q) is not None:
            assert realized_shapes(q) == predicted_shapes(q), q


def test_realized_matches_scalar_brute_force():
    # the vectorized atlas walks normal forms, the scalar path every curve:
    # 13 has four cosets of fourth powers and 11 two, 16 has three cosets
    # of cubes and 32 one, and 9, 25 and 27 have characteristic 3
    for q in [2, 3, 4, 5, 7, 8, 9, 11, 13, 16, 25, 27, 32]:
        p, m = arith.prime_power_decompose(q)
        F = ScalarField(build_field(p, m))
        brute = {group_structure(c).shape for c in enumerate_curves(F)}
        assert realized_shapes(q) == brute, q


def _lanes(T, rows):
    """(x, y, flag) of every lane of rows, an identity lane appended."""
    y, f = _lane_points(T, rows)
    x = np.broadcast_to(np.arange(y.shape[1]) % T["q"], y.shape)
    return tuple(np.concatenate([a, np.zeros_like(a[:, :1])], axis=1) for a in (x, y, f))


def _as_points(x, y, f):
    return [(X, Y) if ok else None for X, Y, ok in zip(x.tolist(), y.tolist(), f.tolist())]


def test_normal_form_lane_points_match_scalar_points():
    # each lane listing of a normal-form row is the scalar point set of that
    # curve: 32 and 64 hold both characteristic-2 forms at larger fields, 27
    # has a2 != 0 in characteristic 3, and 13 and 49 have q = 1 mod 4
    for p, m in [(2, 2), (2, 3), (2, 4), (2, 5), (2, 6), (3, 2), (3, 3), (13, 1), (7, 2)]:
        F = ScalarField(build_field(p, m))
        rows = _normal_forms(F)
        x, y, f = _lanes(_tables(F), rows)
        for i, a in enumerate(zip(*(r.tolist() for r in rows))):
            lanes = sorted(P for P in _as_points(x[i], y[i], f[i]) if P is not None)
            assert lanes == sorted(_points(CurveModel(F, *a))), (F.q, a)


LANE_LAW_FIELDS = [(2, 2), (2, 3), (2, 4), (3, 2), (13, 1), (5, 2)]


def test_lane_doubling_matches_scalar_doubling():
    # every lane of every normal-form row, the identity lane included, in
    # every characteristic; the lanes cover two-torsion points
    for p, m in LANE_LAW_FIELDS:
        F = ScalarField(build_field(p, m))
        T = _tables(F)
        rows = _normal_forms(F)
        x, y, f = _lanes(T, rows)
        got = _bdbl(T, tuple(r[:, None] for r in rows), (x, y, f))
        seen = set()
        for n, a in enumerate(zip(*(r.tolist() for r in rows))):
            curve = CurveModel(F, *a)
            for P, S in zip(_as_points(x[n], y[n], f[n]), _as_points(*(g[n] for g in got))):
                R = _point_add(curve, P, P)
                assert S == R, (F.q, a, P)
                seen.add("identity" if P is None else "2-torsion" if R is None else "2P")
        assert seen == {"identity", "2-torsion", "2P"}, (F.q, seen)


def test_lane_addition_matches_scalar_addition():
    # every ordered pair of lanes of every normal-form row, the identity lane
    # included, in every characteristic; the pairs cover P = Q, P = -Q and
    # two-torsion points
    for p, m in LANE_LAW_FIELDS:
        F = ScalarField(build_field(p, m))
        T = _tables(F)
        rows = _normal_forms(F)
        x, y, f = _lanes(T, rows)
        W = x.shape[1]
        i, j = np.meshgrid(np.arange(W), np.arange(W), indexing="ij")
        i, j = i.ravel(), j.ravel()
        rx, ry, rf = _badd(T, tuple(r[:, None] for r in rows),
                           (x[:, i], y[:, i], f[:, i]), (x[:, j], y[:, j], f[:, j]))
        seen = set()
        for n, a in enumerate(zip(*(r.tolist() for r in rows))):
            curve = CurveModel(F, *a)
            lane = _as_points(x[n], y[n], f[n])
            got = _as_points(rx[n], ry[n], rf[n])
            for P, Q, S in zip((lane[k] for k in i), (lane[k] for k in j), got):
                R = _point_add(curve, P, Q)
                assert S == R, (F.q, a, P, Q)
                if P is not None and Q is not None:
                    seen.add("P = Q" if P == Q else "P = -Q" if R is None else "P + Q")
                    if P == Q and R is None:
                        seen.add("2-torsion")
        assert seen == {"P = Q", "P = -Q", "P + Q", "2-torsion"}, (F.q, seen)


def test_resolve_class_matches_scalar_structure():
    # every order class with a square factor, on a seeded sample of its
    # normal-form rows, against the scalar path: m, the largest integer
    # whose square divides N, reaches 4 (q = 32), 6 with two primes (q = 37
    # at N = 36), 8 (q = 49) and 9 (q = 81), at p = 2, p > 3 and p = 3
    rng = random.Random(17)
    seen, split = set(), set()
    for q in [32, 37, 49, 81]:
        F = ScalarField(build_field(*arith.prime_power_decompose(q)))
        rows = _normal_forms(F)
        N = 1 + _lane_points(_tables(F), rows)[1].sum(axis=1)
        for Nval in np.unique(N).tolist():
            m = _square_part(Nval)
            if m == 1:
                continue
            seen.add(m)
            idx = np.nonzero(N == Nval)[0].tolist()
            pick = sorted(rng.sample(idx, min(24, len(idx))))
            sub = tuple(r[pick] for r in rows)
            brute = {group_structure(CurveModel(F, *a)).shape
                     for a in zip(*(r.tolist() for r in sub))}
            assert _resolve_class(F, Nval, sub) == brute, (q, Nval)
            split |= {g.n for g in brute if g.n > 1}
    assert {4, 6, 8, 9} <= seen and {2, 3, 4, 6} <= split


@pytest.mark.parametrize("q, law", [(13, "_badd"), (13, "_bdbl"), (16, "_badd"), (16, "_bdbl"),
                                     (27, "_badd"), (27, "_bdbl")])
def test_lane_law_that_never_reaches_identity_raises(monkeypatch, q, law):
    # the last link of every chain is N P, which must be the identity on
    # every lane; a law that never returns it must not yield a shape
    real = getattr(curve_oracle, law)

    def broken(*args):
        x, y, f = real(*args)
        return x, y, np.ones_like(f)

    monkeypatch.setattr(curve_oracle, law, broken)
    with pytest.raises(RuntimeError, match="annihilates"):
        realized_shapes(q)


def test_coset_reps_partition_units():
    for q in range(2, 33):
        decomp = arith.prime_power_decompose(q)
        if decomp is None:
            continue
        F = ScalarField(build_field(*decomp))
        for d in (2, 3, 4, 6):
            reps = _coset_reps(_tables(F), d).tolist()
            assert len(reps) == math.gcd(d, q - 1), (q, d)
            powers = {F.pow(u, d) for u in range(1, q)}
            cosets = [{F.mul(r, w) for w in powers} for r in reps]
            assert sorted(x for c in cosets for x in c) == list(range(1, q)), (q, d)
            assert all(r == min(c) for r, c in zip(reps, cosets)), (q, d)


def test_prime_field_window_is_full():
    # over a prime field every order in the window occurs, and a shape is
    # realized exactly when n divides q - 1
    for q in [5, 7, 11, 13]:
        shapes = realized_shapes(q)
        lo, hi = q + 1 - math.isqrt(4 * q), q + 1 + math.isqrt(4 * q)
        assert {s.order for s in shapes} == set(range(lo, hi + 1))
        expect = set()
        for N in range(lo, hi + 1):
            n = 1
            while n * n <= N:
                if N % (n * n) == 0 and (q - 1) % n == 0:
                    expect.add(GroupShape(n, N // (n * n)))
                n += 1
        assert shapes == expect


def test_realized_shapes_errors():
    with pytest.raises(BoundError):
        realized_shapes(131)
    with pytest.raises(ValueError):
        realized_shapes(6)


def test_atlas_schema():
    doc = atlas(5)
    assert set(doc) == {"q", "shapes"}
    assert doc["q"] == 5
    assert doc["shapes"] == sorted(doc["shapes"])
    assert [1, 2] in doc["shapes"]
    roundtrip = json.loads(json.dumps(doc))
    assert roundtrip == doc
