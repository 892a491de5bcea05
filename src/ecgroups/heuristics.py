"""Probabilistic model for missed shapes.

Each candidate value kn^2 + ln + 1 is treated as prime with probability
n / (phi(n) log v); the chance that a shape misses every candidate is the
product of the complements, clamped into [0, 1]. Summing those cell
probabilities over a rectangle gives the expected miss count B(N, K),
and beta compares it with the observed count. The module also carries
the analytic constants the model rests on: 315 zeta(3)/(2 pi^4) for the
n/phi(n) average, its 4/3 multiple, and the truncated twin Euler product
over the characters (-1|p) and (-3|p).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from . import arith, counting

ZETA3_TERMS = 10 ** 7


@dataclass(frozen=True)
class CTruncation:
    """The combined Euler product cut at p <= bound, with the tenth-bound
    snapshot from the same pass for convergence inspection."""

    bound: int
    value: float
    tenth_bound: int | None
    tenth_value: float | None


@dataclass(frozen=True)
class Constants:
    theta: float
    main: float
    C_truncated: CTruncation | None


@dataclass(frozen=True)
class BetaCell:
    """Observed misses, expected weight, and their ratio at corner (n, k)."""

    n: int
    k: int
    misses: int
    weight: float
    beta: float | None


def rho(n, k, ell):
    """Heuristic prime probability of the candidate value at (n, k, ell)."""
    if n < 1 or k < 1:
        raise ValueError("n and k must be positive")
    v = k * n * n + ell * n + 1
    if v <= 1:
        return 0.0
    return n / (arith.euler_phi(n) * math.log(v))


def vartheta(n, k, clamp=True):
    """Model probability that shape (n, k) has no prime candidate.

    Factors 1 - rho are clamped into [0, 1] so the result stays a
    probability; clamp=False exposes the raw product for diagnostics.
    """
    if n < 1 or k < 1:
        raise ValueError("n and k must be positive")
    w = math.isqrt(4 * k)
    out = 1.0
    for ell in range(-w, w + 1):
        f = 1.0 - rho(n, k, ell)
        if clamp:
            f = min(1.0, max(0.0, f))
        out *= f
    return out


def b_grid(N, K):
    """Expected miss count over [1,N] x [1,K] plus the per-cell table.

    Returns (total, cells) with cells[n, k] = vartheta(n, k) in an
    (N+1, K+1) array whose zero row and column are zero.
    """
    arith.candidate_bound(N, K)
    nvec = np.arange(N + 1, dtype=np.int64)
    ratio = np.zeros(N + 1)
    ratio[1:] = nvec[1:] / np.array([arith.euler_phi(int(n)) for n in nvec[1:]],
                                    dtype=np.float64)
    nn = nvec * nvec
    cells = np.zeros((N + 1, K + 1))
    factors = np.empty(N + 1)
    for k in range(1, K + 1):
        w = math.isqrt(4 * k)
        prod = np.ones(N + 1)
        for ell in range(-w, w + 1):
            v = k * nn + ell * nvec + 1
            factors.fill(1.0)
            mask = v > 1
            factors[mask] = 1.0 - ratio[mask] / np.log(v[mask])
            np.clip(factors, 0.0, 1.0, out=factors)
            prod *= factors
        cells[1:, k] = prod[1:]
    return float(cells[1:, 1:].sum()), cells


def beta_grid(N, K):
    """Misses, expected weight, and their ratio at every corner (n, k).

    The ratio is None where the expected weight vanishes; rows come out
    in n-major order.
    """
    _, spp = counting.membership_grid(N, K)
    hits = spp[1:, 1:].astype(np.int64).cumsum(axis=0).cumsum(axis=1)
    _, cells = b_grid(N, K)
    weight = cells[1:, 1:].cumsum(axis=0).cumsum(axis=1)
    area = np.outer(np.arange(1, N + 1), np.arange(1, K + 1))
    misses = area - hits
    out = []
    for n in range(1, N + 1):
        for k in range(1, K + 1):
            w = float(weight[n - 1, k - 1])
            m = int(misses[n - 1, k - 1])
            beta = m / w if w > 0.0 else None
            out.append(BetaCell(n=n, k=k, misses=m, weight=w, beta=beta))
    return out


@functools.lru_cache(maxsize=None)
def zeta3():
    """zeta(3) summed directly over ZETA3_TERMS terms, smallest first."""
    chunk = 10 ** 6
    parts = []
    hi = ZETA3_TERMS
    while hi >= 1:
        lo = max(1, hi - chunk + 1)
        block = np.arange(lo, hi + 1, dtype=np.float64)
        parts.append(float(np.sum(1.0 / (block * block * block))))
        hi = lo - 1
    return math.fsum(parts)


def bateman_horn_C(P):
    """Truncated prime-pair constant: both products over 3 <= p <= P.

    One pass over the primes, sieved one arith.DEFAULT_SEGMENT at a time so
    that memory does not grow with P; the partial value at P // 10 is
    recorded on the way for convergence inspection (None when P // 10 < 3).
    The characters come in closed form from p mod 4 and p mod 3, not from
    Euler's criterion.
    """
    if P < 3:
        raise ValueError("P must be at least 3")
    if P > arith.LIMIT:
        raise OverflowError("P exceeds the supported range")
    tenth_bound = P // 10 if P // 10 >= 3 else None
    t1 = t2 = 1.0
    tenth_value = None
    segment = arith.DEFAULT_SEGMENT
    for lo in range(3, P + 1, segment):
        for p in arith.primes_in_range(lo, min(lo + segment - 1, P)).tolist():
            if tenth_bound is not None and tenth_value is None and p > tenth_bound:
                tenth_value = 0.5 * t1 + t2
            chi4 = 1 if p % 4 == 1 else -1                       # (-1|p)
            chi3 = 0 if p == 3 else (1 if p % 3 == 1 else -1)    # (-3|p)
            t1 *= 1.0 - chi4 / (p - 1)
            t2 *= 1.0 - chi3 / (p - 1)
    if tenth_bound is not None and tenth_value is None:
        tenth_value = 0.5 * t1 + t2
    return CTruncation(bound=P, value=0.5 * t1 + t2,
                       tenth_bound=tenth_bound, tenth_value=tenth_value)


def constants(P=None):
    """The model's constants, recomputed from the zeta(3) series.

    theta is the n/phi(n) average constant, main its 4/3 multiple; the
    truncated product is included when a bound P is given.
    """
    z = zeta3()
    pi4 = math.pi ** 4
    trunc = bateman_horn_C(P) if P is not None else None
    return Constants(theta=315.0 * z / (2.0 * pi4),
                     main=210.0 * z / pi4,
                     C_truncated=trunc)
