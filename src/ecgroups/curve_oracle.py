"""Ground truth by exhaustion: curve groups over small finite fields.

Fields of at most MAX_ORACLE_BOUND = 128 elements are built with explicit
arithmetic tables, and the group shape of a curve is computed by
exhausting its points. The resulting atlas of realized (n, k) pairs per
field is the reference that the closed-form realizability predicate is
validated against.

The atlas takes one path. It walks only the Weierstrass normal forms, one
curve or more per isomorphism class, with numpy lane arithmetic over the
field's tables: one point listing for every form, the long Weierstrass law
in every characteristic as a tangent-only doubling and a chord addition,
and one multiple chain per order class that reads off every curve's
exponent. Its independent check lives beside the tests, in
tests/scalar_oracle.py: a scalar view of the same tables that walks every
curve of the reduced Weierstrass families one point at a time, with the
fully general long Weierstrass addition law.
"""

from __future__ import annotations

import numpy as np

from . import arith
from .realizability import GroupShape, hasse_window, shape_realizable_over

MAX_ORACLE_BOUND = 128

_RESOLVE_CHUNK = 4096


class BoundError(Exception):
    """Raised when a requested computation exceeds the oracle bound."""


# ----------------------------------------------------------------------
# finite fields with explicit tables
# ----------------------------------------------------------------------

def _ring_tables(p, m, modulus):
    """Addition and multiplication tables of F_p[x]/(f), f monic of degree m.

    Works on the base-p digit vectors of all q = p^m elements at once: MUL
    is the schoolbook product of every pair, reduced by f from the top
    degree down, and ADD is digit-wise addition mod p.
    """
    q = p ** m
    place = p ** np.arange(m, dtype=np.int64)
    D = np.arange(q, dtype=np.int64)[:, None] // place % p
    ADD = (D[:, None, :] + D[None, :, :]) % p @ place
    prod = np.zeros((q, q, 2 * m - 1), dtype=np.int64)
    for i in range(m):
        prod[:, :, i:i + m] += D[:, None, i, None] * D[None, :, :]
    tail = np.array(modulus[:m], dtype=np.int64)
    for top in range(2 * m - 2, m - 1, -1):
        prod[:, :, top - m:top] -= prod[:, :, top, None] % p * tail
    return ADD, prod[:, :, :m] % p @ place


class FiniteField:
    """A field of p^m elements with table-driven arithmetic.

    Elements are integer indices 0..q-1. The base-p digits of an index,
    least significant first, are the coordinates in the power basis of the
    residue class ring modulo the chosen irreducible polynomial. With this
    encoding the prime subfield occupies indices 0..p-1, and for p = 2
    addition of indices is bitwise xor.

    The field is its numpy tables, read through _tables: ADD and MUL, and
    every table the lane arithmetic derives from them. The constructor
    checks on the tables that every nonzero element has an inverse and that
    Frobenius fixes exactly the p elements of the prime subfield.
    """

    __slots__ = ("p", "m", "q", "modulus", "_np")

    def __init__(self, p, m, modulus, ADD, MUL):
        self.p = p
        self.m = m
        self.q = q = p ** m
        self.modulus = tuple(modulus)

        unit = MUL[1:] == 1
        if not unit.any(axis=1).all():
            raise AssertionError("element with no inverse; modulus not irreducible")
        X = np.arange(q, dtype=np.int64)
        INV = np.concatenate(([0], unit.argmax(axis=1)))
        SQ = MUL[X, X]
        NEG = (ADD == 0).argmax(axis=1)
        T = {"q": q, "p": p, "X": X, "ADD": ADD, "SUB": ADD[:, NEG], "MUL": MUL,
             "NEG": NEG, "INV": INV, "e2": self.emb(2), "e3": self.emb(3)}

        # solver tables for the y-quadratic on a curve: the least root of
        # z^2 = c for odd p, and of w^2 + w = c for p = 2
        if p != 2:
            squares, first = np.unique(SQ, return_index=True)
            T["CHI"] = np.full(q, -1, dtype=np.int64)
            T["CHI"][squares] = 1
            T["CHI"][0] = 0
            T["R1"] = np.zeros(q, dtype=np.int64)
            T["R1"][squares] = first
        else:
            images, first = np.unique(SQ ^ X, return_index=True)
            T["H0"] = np.zeros(q, dtype=bool)
            T["H0"][images] = True
            T["W0H"] = np.zeros(q, dtype=np.int64)
            T["W0H"][images] = first
            T["SQRT2"] = np.zeros(q, dtype=np.int64)
            T["SQRT2"][SQ] = X
            T["SQ"], T["INVSQ"] = SQ, INV[SQ]
        self._np = T

        # Frobenius must fix exactly the prime subfield
        frob = X
        for _ in range(p - 1):
            frob = MUL[frob, X]
        fixed = int(np.count_nonzero(frob == X))
        if fixed != p:
            raise AssertionError("Frobenius fixes %d elements, expected %d" % (fixed, p))

    def emb(self, k):
        """Embed a rational integer into the prime subfield."""
        return k % self.p

    def __repr__(self):
        return "FiniteField(p=%d, m=%d, modulus=%s)" % (self.p, self.m, self.modulus)


_FIELD_CACHE: dict = {}


def build_field(p, m=1):
    """Build the field of p^m elements with a deterministic modulus.

    The modulus is the first monic polynomial f of degree m, in the
    lexicographic order of coefficient tuples read from the x^(m-1)
    coefficient down to the constant term, whose quotient ring has no zero
    divisors, that is the first irreducible one.
    """
    if m < 1:
        raise ValueError("degree must be positive")
    if not arith.is_prime(p):
        raise ValueError("characteristic must be prime, got %d" % p)
    q = p ** m
    if q > MAX_ORACLE_BOUND:
        raise BoundError("field size %d exceeds the oracle bound %d"
                         % (q, MAX_ORACLE_BOUND))
    key = (p, m)
    if key in _FIELD_CACHE:
        return _FIELD_CACHE[key]
    # F_p[x]/(f) is a field iff f is irreducible, and a finite ring is a
    # field iff it has no zero divisors
    for t in range(q):
        modulus = [t // p ** i % p for i in range(m)] + [1]
        ADD, MUL = _ring_tables(p, m, modulus)
        if MUL[1:, 1:].all():
            break
    fld = FiniteField(p, m, modulus, ADD, MUL)
    _FIELD_CACHE[key] = fld
    return fld


# ----------------------------------------------------------------------
# vectorized enumeration
# ----------------------------------------------------------------------

def _tables(field):
    """Numpy tables of the field for the lane arithmetic, built with it."""
    return field._np


# --- lane-parallel points and addition ---

def _lane_points(T, rows):
    """Affine points of every curve of rows, two lanes per abscissa.

    rows is an (a1, a2, a3, a4, a6) tuple of coefficient arrays. At each x
    the curve reads y^2 + b y = c with b = a1 x + a3 and
    c = x^3 + a2 x^2 + a4 x + a6; lanes x and q + x hold its roots, flagged
    where they exist. Lane i has abscissa i mod q, so only (y, flag) is
    returned.
    """
    MUL, ADD, NEG = T["MUL"], T["ADD"], T["NEG"]
    a1, a2, a3, a4, a6 = (r[:, None] for r in rows)
    X = T["X"][None, :]
    c = ADD[MUL[ADD[MUL[ADD[X, a2], X], a4], X], a6]
    b = ADD[MUL[a1, X], a3]
    if T["p"] != 2:
        # (y + h)^2 = c + h^2 with h = b / 2
        h = MUL[b, T["INV"][T["e2"]]]
        g = ADD[c, MUL[h, h]]
        z = T["R1"][g]
        y0, y1 = T["SUB"][z, h], NEG[ADD[z, h]]
        f0, f1 = T["CHI"][g] >= 0, T["CHI"][g] == 1
    else:
        # b = 0: the one root sqrt(c); else b w and b w + b, w^2 + w = c / b^2
        s = MUL[c, T["INVSQ"][b]]
        y0 = np.where(b == 0, T["SQRT2"][c], MUL[b, T["W0H"][s]])
        y1 = y0 ^ b
        f0 = (b == 0) | T["H0"][s]
        f1 = (b != 0) & T["H0"][s]
    return np.concatenate([y0, y1], axis=1), np.concatenate([f0, f1], axis=1)


def _line_sum(T, a, lam, x1, y1, x2):
    """(x1, y1) + (x2, y2) from the slope lam of the line through them."""
    MUL, ADD, SUB = T["MUL"], T["ADD"], T["SUB"]
    a1, a2, a3, _, _ = a
    la = ADD[lam, a1]
    x3 = SUB[MUL[la, lam], ADD[a2, ADD[x1, x2]]]
    return x3, SUB[SUB[MUL[lam, x1], y1], ADD[MUL[la, x3], a3]]


def _bdbl(T, a, P):
    """2P on every lane by the tangent of the long Weierstrass law, the
    identity at two-torsion lanes; a holds the curves' (a1, a2, a3, a4, a6)
    columns."""
    MUL, ADD, SUB, INV = T["MUL"], T["ADD"], T["SUB"], T["INV"]
    a1, a2, a3, a4, _ = a
    x1, y1, f1 = P
    den = ADD[ADD[MUL[T["e2"]][y1], MUL[a1, x1]], a3]
    num = ADD[MUL[ADD[MUL[T["e3"]][x1], MUL[T["e2"]][a2]], x1], SUB[a4, MUL[a1, y1]]]
    x3, y3 = _line_sum(T, a, MUL[num, INV[den]], x1, y1, x1)
    return x3, y3, f1 & (den != 0)


def _badd(T, a, P, Q):
    """P + Q on every lane by the chord of the long Weierstrass law, the
    identity where Q = -P and _bdbl where Q = P; a lane with a clear flag is
    the identity."""
    MUL, SUB, INV = T["MUL"], T["SUB"], T["INV"]
    x1, y1, f1 = P
    x2, y2, f2 = Q
    both = f1 & f2
    chord = both & (x1 != x2)
    x3, y3 = _line_sum(T, a, MUL[SUB[y2, y1], INV[SUB[x2, x1]]], x1, y1, x2)
    x = np.where(chord, x3, np.where(f1, x1, x2))
    y = np.where(chord, y3, np.where(f1, y1, y2))
    f = np.where(both, chord, f1 | f2)
    dbl = both & (x1 == x2) & (y1 == y2)
    if dbl.any():
        x[dbl], y[dbl], f[dbl] = _bdbl(T, tuple(np.broadcast_to(c, dbl.shape)[dbl] for c in a),
                                       (x1[dbl], y1[dbl], f1[dbl]))
    return x, y, f


def _bsmul(args, e, P):
    """e P for e >= 1, by top-down double-and-add starting from P."""
    acc = P
    for bit in bin(e)[3:]:
        acc = _bdbl(*args, acc)
        if bit == "1":
            acc = _badd(*args, acc, P)
    return acc


def _square_part(N):
    """Largest m with m^2 | N: the small invariant factor d1 divides it."""
    m = 1
    for r, a in arith.factorize(N).items():
        m *= r ** (a // 2)
    return m


def _resolve_class(field, Nval, rows):
    """Exponent of every curve in one order class, by one multiple chain.

    rows is an (a1, a2, a3, a4, a6) tuple of coefficient arrays. With m the
    largest integer whose square divides N, a curve group is Z_d1 x Z_d2 with
    d1 | m, so its exponent is d2 = (N/m) t for a divisor t of m. Each row's
    N - 1 points are gathered into lanes and taken to Q = (N/m) P once. For
    each prime power r^a exactly dividing m, the chain (m/r^a) Q, r times
    that, ... up to m Q = N P gives the r-part of t as the first link that
    is the identity on every point of the curve. A last link that is not,
    or d1 = m/t failing to divide q - 1 or d2, signals an arithmetic bug.
    """
    q = field.q
    T = _tables(field)
    m = _square_part(Nval)
    shapes = set()
    R = rows[0].shape[0]
    for lo in range(0, R, _RESOLVE_CHUNK):
        sel = tuple(r[lo:lo + _RESOLVE_CHUNK] for r in rows)
        y, f = _lane_points(T, sel)
        if not np.all(f.sum(axis=1) == Nval - 1):
            raise RuntimeError("point listing disagrees with the order count")
        keep = np.argsort(~f, axis=1, kind="stable")[:, :Nval - 1]
        P = (keep % q, np.take_along_axis(y, keep, axis=1), np.ones(keep.shape, dtype=bool))
        args = (T, tuple(r[:, None] for r in sel))
        Q = _bsmul(args, Nval // m, P)
        t = np.ones(sel[0].shape[0], dtype=np.int64)
        for r, a in arith.factorize(m).items():
            S = _bsmul(args, m // r ** a, Q)
            part = np.zeros_like(t)
            for j in range(a + 1):
                if j:
                    S = _bsmul(args, r, S)
                part[(part == 0) & ~S[2].any(axis=1)] = r ** j
            if not part.all():
                raise RuntimeError("no divisor annihilates a curve group; arithmetic bug")
            t *= part
        d1, d2 = m // t, Nval // m * t
        if np.any((q - 1) % d1) or np.any(d2 % d1):
            raise RuntimeError("invariant factors (d1, d2) are inconsistent at q=%d" % q)
        for a, b in zip(d1.tolist(), d2.tolist()):
            shapes.add(GroupShape(a, b // a))
    return shapes


def _forced_or_resolve(field, rows, N):
    """Shapes of the curves of rows, whose orders are N: classes whose order
    has no square factor are forced cyclic, the rest resolved by lanes."""
    shapes = set()
    for Nval in np.unique(N).tolist():
        if _square_part(Nval) == 1:
            shapes.add(GroupShape(1, Nval))
            continue
        idx = np.nonzero(N == Nval)[0]
        shapes |= _resolve_class(field, Nval, tuple(r[idx] for r in rows))
    return shapes


def _coset_reps(T, d):
    """Smallest element of each coset of the d-th powers in the unit group."""
    MUL, units = T["MUL"], T["X"][1:]
    powers = units
    for _ in range(d - 1):
        powers = MUL[powers, units]
    reps, covered = [], np.zeros(T["q"], dtype=bool)
    for a in units.tolist():
        if not covered[a]:
            reps.append(a)
            covered[MUL[a, powers]] = True
    return np.array(reps, dtype=np.int64)


def _grid(*axes):
    """Every combination of the axis values, one flat array per axis."""
    return tuple(g.ravel() for g in np.meshgrid(*axes, indexing="ij"))


def _normal_forms(field):
    """(a1, a2, a3, a4, a6) arrays of both normal forms of realized_shapes.

    Together they hold a nonsingular curve of every isomorphism class over
    the field, and no singular one.
    """
    T = _tables(field)
    X, MUL = T["X"], T["MUL"]
    if field.p == 2:
        delta = np.flatnonzero(~T["H0"])[0]
        a1, a2, a3, a4, t = _grid([0], [0], _coset_reps(T, 3), X, [0, 1])
        forms = [_grid([1], [0, delta], [0], [0], X[1:]),
                 (a1, a2, a3, a4, t * MUL[T["SQ"][a3], delta])]
        return tuple(np.concatenate(c) for c in zip(*forms))

    if field.p == 3:
        forms = [([0], _coset_reps(T, 2), [0], [0], X), ([0], [0], [0], _coset_reps(T, 4), X)]
    else:
        # where q = 1 mod 4, u^2 = -1 fixes a4 and negates a6
        a6 = X[X <= T["NEG"]] if field.q % 4 == 1 else X
        forms = [([0], [0], [0], _coset_reps(T, 4), a6), ([0], [0], [0], [0], _coset_reps(T, 6))]
    rows = tuple(np.concatenate(c) for c in zip(*(_grid(*form) for form in forms)))

    # discriminant with a1 = a3 = 0: b2 = 4 a2, b4 = 2 a4, b6 = 4 a6,
    # b8 = 4 a2 a6 - a4^2
    _, a2r, _, a4r, a6r = rows
    ADD, NEG = T["ADD"], T["NEG"]
    e4, e8, e9, e27 = (field.emb(4), field.emb(8), field.emb(9), field.emb(27))
    b2 = MUL[e4, a2r]
    b4 = MUL[T["e2"], a4r]
    b6 = MUL[e4, a6r]
    b8 = T["SUB"][MUL[e4, MUL[a2r, a6r]], MUL[a4r, a4r]]
    disc = ADD[ADD[NEG[MUL[MUL[b2, b2], b8]], NEG[MUL[e8, MUL[MUL[b4, b4], b4]]]],
               ADD[NEG[MUL[e27, MUL[b6, b6]]], MUL[e9, MUL[MUL[b2, b4], b6]]]]
    good = disc != 0
    return tuple(r[good] for r in rows)


def realized_shapes(q):
    """Set of group shapes attained by curves over the q-element field.

    The shape is an isomorphism invariant, so only the Weierstrass normal
    forms below are resolved by exhaustion; each holds every isomorphism
    class, by the substitution named. R_d is the least element of each
    coset of the d-th powers in the unit group.

    - p > 3: y^2 = x^3 + r x + a6 (r in R_4) and y^2 = x^3 + b (b in R_6);
      (x, y) -> (u^2 x, u^3 y) scales a2, a4, a6 by u^2, u^4, u^6. Where
      q = 1 mod 4, u^2 = -1 fixes r and negates a6, so the first form keeps
      only the a6 with a6 <= -a6 as element indices.
    - p = 3: y^2 = x^3 + a2 x^2 + a6 (a2 in R_2) and y^2 = x^3 + a4 x + a6
      (a4 in R_4); x -> x + a4/a2 clears a4 when a2 != 0, then scale.
    - p = 2: y^2 + xy = x^3 + a2 x^2 + a6 (a2 in {0, delta}, a6 != 0) and
      y^2 + a3 y = x^3 + a4 x + a6 (a3 in R_3, a6 in {0, a3^2 delta}), with
      delta the least element not of the form w^2 + w; y -> y + s x adds
      s^2 + s to a2, y -> y + t adds t^2 + a3 t to a6, then scale.

    Singular forms are dropped. The result is the ground-truth atlas entry
    for q. Raises BoundError for q > MAX_ORACLE_BOUND, through build_field.
    """
    if q < 2:
        raise ValueError("q must be at least 2")
    decomp = arith.prime_power_decompose(q)
    if decomp is None:
        raise ValueError("%d is not a prime power" % q)
    field = build_field(*decomp)
    rows = _normal_forms(field)
    T = _tables(field)
    N = np.concatenate([
        1 + _lane_points(T, tuple(r[lo:lo + _RESOLVE_CHUNK] for r in rows))[1].sum(axis=1)
        for lo in range(0, rows[0].shape[0], _RESOLVE_CHUNK)])
    return _forced_or_resolve(field, rows, N)


def predicted_shapes(q):
    """Shapes the realizability predicate claims for the q-element field."""
    decomp = arith.prime_power_decompose(q)
    if decomp is None:
        raise ValueError("%d is not a prime power" % q)
    lo, hi = hasse_window(q)
    out = set()
    for N in range(lo, hi + 1):
        n = 1
        while n * n <= N:
            if N % (n * n) == 0:
                s = GroupShape(n, N // (n * n))
                if shape_realizable_over(q, s, _decomp=decomp) is not None:
                    out.add(s)
            n += 1
    return out


def atlas(q):
    """JSON-ready atlas entry: {"q": q, "shapes": [[n, k], ...]} sorted."""
    shapes = realized_shapes(q)
    return {"q": q, "shapes": [[s.n, s.k] for s in sorted(shapes, key=lambda s: (s.n, s.k))]}
