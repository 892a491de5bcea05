"""Scalar reference oracle: curve groups by one point at a time.

The package's oracle (ecgroups.curve_oracle) walks the Weierstrass normal
forms with numpy lane arithmetic. This module is its independent check:
ScalarField reads a built field's tables into Python lists, and
enumerate_curves and group_structure walk every curve of the reduced
Weierstrass families with the fully general long Weierstrass addition law,
one point at a time. It serves the small fields the tests use.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from ecgroups import arith
from ecgroups.curve_oracle import FiniteField, _tables
from ecgroups.realizability import GroupShape


class ScalarField(FiniteField):
    """Scalar arithmetic over a built field, read from its numpy tables.

    The view shares the field's attributes and tables, so it also goes
    wherever the field goes.
    """

    def __init__(self, field):
        for name in FiniteField.__slots__:
            setattr(self, name, getattr(field, name))
        T = _tables(field)
        self._add, self._mul, self._neg, self._inv = (
            T[k].tolist() for k in ("ADD", "MUL", "NEG", "INV"))
        if field.p != 2:
            self._chi, self._sqrt = T["CHI"].tolist(), T["R1"].tolist()
        else:
            self._sqrt2 = T["SQRT2"].tolist()
            self._h0root = [w if h else None
                            for w, h in zip(T["W0H"].tolist(), T["H0"].tolist())]

    def add(self, a, b):
        return self._add[a][b]

    def sub(self, a, b):
        return self._add[a][self._neg[b]]

    def neg(self, a):
        return self._neg[a]

    def mul(self, a, b):
        return self._mul[a][b]

    def inv(self, a):
        if a == 0:
            raise ZeroDivisionError("inverse of zero")
        return self._inv[a]

    def pow(self, a, e):
        out, acc = 1, a
        while e:
            if e & 1:
                out = self._mul[out][acc]
            e >>= 1
            if e:
                acc = self._mul[acc][acc]
        return out

    def smul(self, k, a):
        """Multiply a field element by a rational integer."""
        return self._mul[k % self.p][a]


# ----------------------------------------------------------------------
# curves and the scalar group law
# ----------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class CurveModel:
    """A nonsingular long Weierstrass curve over a small field."""

    field: ScalarField
    a1: int
    a2: int
    a3: int
    a4: int
    a6: int

    def __post_init__(self):
        F = self.field
        for c in (self.a1, self.a2, self.a3, self.a4, self.a6):
            if not 0 <= c < F.q:
                raise ValueError("coefficient %d outside field" % c)
        a1, a2, a3, a4, a6 = self.a1, self.a2, self.a3, self.a4, self.a6
        b2 = F.add(F.mul(a1, a1), F.smul(4, a2))
        b4 = F.add(F.smul(2, a4), F.mul(a1, a3))
        b6 = F.add(F.mul(a3, a3), F.smul(4, a6))
        b8 = F.add(F.add(F.mul(F.mul(a1, a1), a6), F.smul(4, F.mul(a2, a6))),
                   F.add(F.neg(F.mul(F.mul(a1, a3), a4)),
                         F.sub(F.mul(a2, F.mul(a3, a3)), F.mul(a4, a4))))
        disc = F.add(
            F.add(F.neg(F.mul(F.mul(b2, b2), b8)),
                  F.neg(F.smul(8, F.mul(F.mul(b4, b4), b4)))),
            F.add(F.neg(F.smul(27, F.mul(b6, b6))),
                  F.smul(9, F.mul(F.mul(b2, b4), b6))))
        if disc == 0:
            raise ValueError("singular curve")


@dataclass(frozen=True)
class GroupStructure:
    """Shape of a curve group: order N with invariant factors d1 | d2."""

    order: int
    d1: int
    d2: int

    def __post_init__(self):
        if self.d1 * self.d2 != self.order or self.d2 % self.d1:
            raise ValueError("inconsistent invariant factors")

    @property
    def shape(self):
        return GroupShape(self.d1, self.d2 // self.d1)


def enumerate_curves(field):
    """Yield every curve in the reduced families for the characteristic.

    Characteristic > 3 uses the short form y^2 = x^3 + a4 x + a6,
    characteristic 3 keeps the x^2 term, and characteristic 2 runs both
    reduced families y^2 + xy = x^3 + a2 x^2 + a6 and
    y^2 + a3 y = x^3 + a4 x + a6 with a3 nonzero. Singular combinations
    are skipped, and every isomorphism class over the field appears.
    """
    q = field.q
    if field.p > 3:
        for a4 in range(q):
            for a6 in range(q):
                try:
                    yield CurveModel(field, 0, 0, 0, a4, a6)
                except ValueError:
                    continue
    elif field.p == 3:
        for a2 in range(q):
            for a4 in range(q):
                for a6 in range(q):
                    try:
                        yield CurveModel(field, 0, a2, 0, a4, a6)
                    except ValueError:
                        continue
    else:
        for a2 in range(q):
            for a6 in range(1, q):
                yield CurveModel(field, 1, a2, 0, 0, a6)
        for a3 in range(1, q):
            for a4 in range(q):
                for a6 in range(q):
                    yield CurveModel(field, 0, 0, a3, a4, a6)


def _point_add(curve, P, Q):
    """Full long Weierstrass chord-and-tangent addition."""
    if P is None:
        return Q
    if Q is None:
        return P
    F = curve.field
    a1, a2, a3, a4 = curve.a1, curve.a2, curve.a3, curve.a4
    x1, y1 = P
    x2, y2 = Q
    if x1 == x2:
        if y1 != y2:
            return None
        den = F.add(F.smul(2, y1), F.add(F.mul(a1, x1), a3))
        if den == 0:
            return None
        num = F.add(F.add(F.smul(3, F.mul(x1, x1)), F.smul(2, F.mul(a2, x1))),
                    F.sub(a4, F.mul(a1, y1)))
        lam = F.mul(num, F.inv(den))
    else:
        lam = F.mul(F.sub(y2, y1), F.inv(F.sub(x2, x1)))
    nu = F.sub(y1, F.mul(lam, x1))
    x3 = F.sub(F.sub(F.add(F.mul(lam, lam), F.mul(a1, lam)), a2), F.add(x1, x2))
    y3 = F.neg(F.add(F.add(F.mul(F.add(lam, a1), x3), nu), a3))
    return (x3, y3)


def _scalar_mul(curve, k, P):
    acc = None
    base = P
    while k:
        if k & 1:
            acc = _point_add(curve, acc, base)
        k >>= 1
        if k:
            base = _point_add(curve, base, base)
    return acc


def _points(curve):
    """All affine points, found by solving the y-quadratic per abscissa."""
    F = curve.field
    q, p = F.q, F.p
    a1, a2, a3, a4, a6 = curve.a1, curve.a2, curve.a3, curve.a4, curve.a6
    pts = []
    for x in range(q):
        fx = F.add(F.mul(F.add(F.mul(F.add(x, a2), x), a4), x), a6)
        b = F.add(F.mul(a1, x), a3)
        if p != 2:
            h = F.mul(b, F.inv(F.emb(2)))
            g = F.add(fx, F.mul(h, h))
            if g == 0:
                ys = [F.neg(h)]
            elif F._chi[g] == 1:
                z = F._sqrt[g]
                ys = [F.sub(z, h), F.sub(F.neg(z), h)]
            else:
                ys = []
        else:
            if b == 0:
                ys = [F._sqrt2[fx]]
            else:
                w = F._h0root[F.mul(fx, F.inv(F.mul(b, b)))]
                if w is None:
                    ys = []
                else:
                    ys = [F.mul(b, w), F.add(F.mul(b, w), b)]
        pts.extend((x, y) for y in ys)
    return pts


def group_structure(curve):
    """Order and invariant factors by exhausting the point set.

    The exponent d2 is the lcm of point orders; the scan stops early once
    that lcm reaches N, as the group is then cyclic. Any failure of the
    expected divisibilities signals an arithmetic bug and raises
    RuntimeError.
    """
    q = curve.field.q
    pts = _points(curve)
    N = len(pts) + 1
    if (q + 1 - N) ** 2 > 4 * q:
        raise RuntimeError("point count %d violates the Hasse bound at q=%d" % (N, q))
    if N == 1:
        return GroupStructure(1, 1, 1)
    primes = list(arith.factorize(N))
    lam = 1
    for P in pts:
        if _scalar_mul(curve, N, P) is not None:
            raise RuntimeError("addition law inconsistency: N * P != O")
        o = N
        for r in primes:
            while o % r == 0 and _scalar_mul(curve, o // r, P) is None:
                o //= r
        lam = lam * o // math.gcd(lam, o)
        if lam == N:
            break
    d2 = lam
    if N % d2:
        raise RuntimeError("exponent %d does not divide order %d" % (d2, N))
    d1 = N // d2
    if d2 % d1 or (q - 1) % d1:
        raise RuntimeError("invariant factors (%d, %d) are inconsistent at q=%d"
                           % (d1, d2, q))
    return GroupStructure(N, d1, d2)
