"""Bulk counting over rectangles of group shapes.

Counts members of the prime-witness and prime-power-witness sets on
[1, N] x [1, K], lists the missed pairs, builds the f(D) series, and
evaluates the witness-prime double sum two independent ways: a per-pair
scan and a progression-count identity. The two must agree exactly; the
scan is the oracle for the sieve on small rectangles.

The bulk path works one n-row at a time. Candidates for row n live in
the arithmetic progression v = s n + 1, so one boolean sieve over s
serves every k at once; window membership per k is then a gather plus a
segmented reduction. Prime-power witnesses (q = p^j, j >= 2) are sparse
and are merged in from a single global pass.
"""

from __future__ import annotations

import json
import math
import os
import resource
import time
from dataclasses import dataclass
from multiprocessing import Pool

import numpy as np

from . import arith
from .realizability import GroupShape, shape_realizable_over

CHECKPOINT_VERSION = 1


def _resolve_workers(workers):
    if workers is None:
        env = os.environ.get("ECG_WORKERS", "")
        workers = int(env) if env.strip() else 1
    if workers < 1:
        raise ValueError("workers must be positive")
    return workers


@dataclass(frozen=True)
class CountGrid:
    """Exact counts and the missed list for one rectangle."""

    N: int
    K: int
    count_S_pi: int
    count_S_Pi: int
    missed: list

    def __post_init__(self):
        if not (0 <= self.count_S_pi <= self.count_S_Pi <= self.N * self.K):
            raise ValueError("counts out of order")
        if len(self.missed) != self.N * self.K - self.count_S_Pi:
            raise ValueError("missed list size disagrees with the counts")


@dataclass(frozen=True)
class SeriesPoint:
    D: int
    f: int


# ---------------------------------------------------------------------------
# the row sieve
# ---------------------------------------------------------------------------

class _SieveContext:
    """Shared precomputation for one rectangle: window geometry and primes.

    For row n the candidate v = k n^2 + l n + 1 is v = s n + 1 with
    s = k n + l, so the per-k windows are s in [k n - w_k, k n + w_k],
    w_k = isqrt(4k). The flattened offsets l and their segment starts are
    n-independent and shared by every row.
    """

    __slots__ = ("N", "K", "L", "vmax", "base", "OFF", "KCELL", "STARTS")

    def __init__(self, N, K):
        self.N = N
        self.K = K
        self.L = arith.isqrt(4 * K)
        self.vmax = arith.candidate_bound(N, K)
        self.base = arith.primes_in_range(2, max(2, arith.isqrt(self.vmax)))
        widths = np.array([arith.isqrt(4 * k) for k in range(1, K + 1)], dtype=np.int64)
        lens = 2 * widths + 1
        starts = np.zeros(K, dtype=np.int64)
        np.cumsum(lens[:-1], out=starts[1:])
        total = int(lens.sum())
        off = np.empty(total, dtype=np.int64)
        for i in range(K):
            off[starts[i]:starts[i] + lens[i]] = np.arange(-widths[i], widths[i] + 1)
        self.OFF = off
        self.KCELL = np.repeat(np.arange(1, K + 1, dtype=np.int64), lens)
        self.STARTS = starts


def _sieve_row(ctx, n):
    """Membership of (n, k) in the prime-witness set for every k <= K.

    Sieves primality of v = s n + 1 over the whole s-range by clearing the
    residue class s = -1/n mod r for each base prime r, keeping r itself
    when it happens to be a candidate.
    """
    K, L = ctx.K, ctx.L
    smax = K * n + L
    A = np.ones(smax + 1, dtype=bool)
    A[0] = False
    rmax = arith.isqrt(smax * n + 1)
    cut = int(np.searchsorted(ctx.base, rmax, side="right"))
    for r in ctx.base[:cut].tolist():
        if n % r == 0:
            continue
        s0 = (r - pow(n, -1, r)) % r
        if s0 * n + 1 == r:
            s0 += r
        if s0 <= smax:
            A[s0::r] = False
    vals = A[np.clip(ctx.KCELL * n + ctx.OFF, 0, smax)]
    row = np.zeros(K + 1, dtype=bool)
    row[1:] = np.add.reduceat(vals.astype(np.int64), ctx.STARTS) > 0
    return row


def _prime_power_marks(N, K):
    """All (n, k) in the rectangle witnessed by a proper prime power.

    Enumerates q = p^j with j >= 2 up to the largest candidate, finds the
    rows n dividing q - 1, and checks the few k whose window can contain
    q through the full realizability predicate.
    """
    vmax = arith.candidate_bound(N, K)
    L = arith.isqrt(4 * K)
    pps = []
    for p in arith.primes_in_range(2, max(2, arith.isqrt(vmax))).tolist():
        q, j = p * p, 2
        while q <= vmax:
            pps.append((q, p, j))
            q *= p
            j += 1
    marks = {}
    if not pps:
        return marks
    nvec = np.arange(1, N + 1, dtype=np.int64)
    Q = np.array([e[0] for e in pps], dtype=np.int64)
    for lo in range(0, len(pps), 2048):
        block = Q[lo:lo + 2048]
        qi, ni = np.nonzero((block[:, None] - 1) % nvec[None, :] == 0)
        for i, j_ in zip(qi.tolist(), ni.tolist()):
            q, p, j = pps[lo + i]
            n = j_ + 1
            s = (q - 1) // n
            for k in range(max(1, (s - L) // n - 1), min(K, (s + L) // n + 1) + 1):
                ell = s - k * n
                if ell * ell <= 4 * k:
                    if shape_realizable_over(q, GroupShape(n, k), _decomp=(p, j)) is not None:
                        marks.setdefault(n, set()).add(k)
    return marks


_POOL_CTX = None


def _pool_init(ctx):
    global _POOL_CTX
    _POOL_CTX = ctx


def _pool_row(n):
    return np.packbits(_sieve_row(_POOL_CTX, n))


def _member_rows(N, K, workers=1, start_n=1):
    """Yield (n, prime_row, prime_power_row) in row order.

    Rows are boolean arrays indexed by k with entry 0 unused. The merge
    is by row index, so the stream is identical for any worker count.
    """
    ctx = _SieveContext(N, K)
    marks = _prime_power_marks(N, K)
    ns = range(start_n, N + 1)

    def finish(n, spi):
        spp = spi.copy()
        for k in marks.get(n, ()):
            spp[k] = True
        return n, spi, spp

    if workers == 1:
        for n in ns:
            yield finish(n, _sieve_row(ctx, n))
    else:
        with Pool(workers, initializer=_pool_init, initargs=(ctx,)) as pool:
            for n, packed in zip(ns, pool.imap(_pool_row, ns, chunksize=8)):
                spi = np.unpackbits(packed, count=K + 1).astype(bool)
                yield finish(n, spi)


# ---------------------------------------------------------------------------
# public surveys
# ---------------------------------------------------------------------------

def survey(N, K, workers=None):
    """Exact counts and missed pairs for the rectangle [1, N] x [1, K]."""
    workers = _resolve_workers(workers)
    n_pi = 0
    n_Pi = 0
    missed = []
    for n, spi, spp in _member_rows(N, K, workers):
        n_pi += int(spi.sum())
        n_Pi += int(spp.sum())
        for k in np.nonzero(~spp[1:])[0].tolist():
            missed.append(GroupShape(n, k + 1))
    return CountGrid(N, K, n_pi, n_Pi, missed)


def _memory_budget():
    """Bytes the process may hold: the least of physical memory, the soft
    address-space limit and its cgroup v2 memory.max, where those are set."""
    limits = [os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")]
    soft, _ = resource.getrlimit(resource.RLIMIT_AS)
    if soft != resource.RLIM_INFINITY:
        limits.append(soft)
    try:
        with open("/proc/self/cgroup") as fh:
            rel = next(line[3:].strip() for line in fh if line.startswith("0::"))
        with open("/sys/fs/cgroup" + rel.rstrip("/") + "/memory.max") as fh:
            limits.append(int(fh.read()))
    except (OSError, StopIteration, ValueError):
        pass
    return min(limits)


def membership_grid(N, K, workers=None):
    """Boolean membership tables, shape (N+1, K+1), index 0 unused."""
    arith.candidate_bound(N, K)
    need = 2 * (N + 1) * (K + 1)
    have = _memory_budget()
    if need > have:
        raise OverflowError(f"membership tables need {need} bytes, "
                            f"more than the {have} bytes of memory available")
    workers = _resolve_workers(workers)
    spi = np.zeros((N + 1, K + 1), dtype=bool)
    spp = np.zeros((N + 1, K + 1), dtype=bool)
    for n, row_pi, row_pp in _member_rows(N, K, workers):
        spi[n] = row_pi
        spp[n] = row_pp
    return spi, spp


def _write_checkpoint(path, d_max, step, rows_done, missed):
    doc = {
        "version": CHECKPOINT_VERSION,
        "dmax": d_max,
        "step": step,
        "rows_done": rows_done,
        "missed": [[s.n, s.k] for s in missed],
    }
    tmp = path + ".tmp"
    with open(tmp, "w") as fh:
        json.dump(doc, fh)
    os.replace(tmp, path)


def _read_checkpoint(path, d_max, step):
    with open(path) as fh:
        doc = json.load(fh)
    if doc.get("version") != CHECKPOINT_VERSION:
        raise ValueError("unsupported checkpoint version")
    if doc.get("dmax") != d_max or doc.get("step") != step:
        raise ValueError("checkpoint was written for different parameters")
    missed = [GroupShape(n, k) for n, k in doc["missed"]]
    return int(doc["rows_done"]), missed


def f_series(d_max, step=1, workers=None, resume=None, checkpoint_seconds=30.0):
    """The missed-pair growth series f(D) = D^2 - #S_Pi(D, D).

    Computes one bulk survey of [1, d_max]^2 and reads every requested D
    off the sorted missed list. With a resume path, progress is saved at
    the given wall-clock interval and picked up on the next call.
    """
    if step < 1:
        raise ValueError("step must be positive")
    workers = _resolve_workers(workers)
    arith.candidate_bound(d_max, d_max)
    start_n = 1
    missed = []
    if resume is not None and os.path.exists(resume):
        rows_done, missed = _read_checkpoint(resume, d_max, step)
        start_n = rows_done + 1
    last_write = time.monotonic()
    for n, _, spp in _member_rows(d_max, d_max, workers, start_n=start_n):
        for k in np.nonzero(~spp[1:])[0].tolist():
            missed.append(GroupShape(n, k + 1))
        if resume is not None and time.monotonic() - last_write >= checkpoint_seconds:
            _write_checkpoint(resume, d_max, step, n, missed)
            last_write = time.monotonic()
    if resume is not None:
        _write_checkpoint(resume, d_max, step, d_max, missed)
    tops = sorted(max(s.n, s.k) for s in missed)
    out = []
    for D in range(step, d_max + 1, step):
        f = int(np.searchsorted(tops, D, side="right")) if tops else 0
        out.append(SeriesPoint(D, f))
    return out


# ---------------------------------------------------------------------------
# the witness-prime double sum, two ways
# ---------------------------------------------------------------------------

def witness_prime_sum_direct(N, K):
    """Sum of witness-prime counts over the rectangle, by per-pair scan."""
    return int(witness_prime_sum_direct_grid(N, K)[N, K])


def witness_prime_sum_direct_grid(N, K):
    """All partial sums at once: entry [N', K'] is the (N', K') value."""
    arith.candidate_bound(N, K)
    cell = np.zeros((N + 1, K + 1), dtype=np.int64)
    for n in range(1, N + 1):
        nn = n * n
        for k in range(1, K + 1):
            w = arith.isqrt(4 * k)
            cell[n, k] = sum(1 for ell in range(-w, w + 1)
                             if arith.is_prime(k * nn + ell * n + 1))
    return cell.cumsum(axis=0).cumsum(axis=1)


def _row_prime_residues(n, upper):
    """Primes up to upper bucketed by residue mod n^2, ready for bisection."""
    ps = arith.primes_in_range(2, max(2, upper))
    res = ps % (n * n)
    order = np.lexsort((ps, res))
    return res[order], ps[order]


def _progression_count(res_sorted, ps_sorted, a, lo, hi):
    """Primes p = a mod m with lo < p <= hi, from the bucketed arrays."""
    if hi < 2:
        return 0
    left, right = np.searchsorted(res_sorted, [a, a + 1])
    block = ps_sorted[left:right]
    return int(np.searchsorted(block, hi, side="right")
               - np.searchsorted(block, max(lo, 0), side="right"))


def witness_prime_sum_progression(N, K):
    """The same double sum through progression prime counts.

    For each row n and offset l with l^2 <= 4K the candidates form the
    progression l n + 1 mod n^2 on ((ln/2 + 1)^2, K n^2 + l n + 1]; the
    lower endpoint is a square, so the half-open count is exact.
    """
    arith.candidate_bound(N, K)
    total = 0
    w = arith.isqrt(4 * K)
    for n in range(1, N + 1):
        nn = n * n
        upper_max = K * nn + w * n + 1
        res, ps = _row_prime_residues(n, upper_max)
        for ell in range(-w, w + 1):
            a = (ell * n + 1) % nn
            assert math.gcd(ell * n + 1, nn) == 1
            lo = (ell * n) ** 2 // 4 + ell * n + 1
            hi = K * nn + ell * n + 1
            total += _progression_count(res, ps, a, lo, hi)
    return total


def witness_prime_sum_progression_grid(N, K):
    """Partial-sum grid for the progression evaluation."""
    arith.candidate_bound(N, K)
    out = np.zeros((N + 1, K + 1), dtype=np.int64)
    w_full = arith.isqrt(4 * K)
    for n in range(1, N + 1):
        nn = n * n
        res, ps = _row_prime_residues(n, K * nn + w_full * n + 1)
        for kp in range(1, K + 1):
            w = arith.isqrt(4 * kp)
            sub = 0
            for ell in range(-w, w + 1):
                a = (ell * n + 1) % nn
                lo = (ell * n) ** 2 // 4 + ell * n + 1
                hi = kp * nn + ell * n + 1
                sub += _progression_count(res, ps, a, lo, hi)
            out[n, kp] = sub
    return out.cumsum(axis=0)


def asymptotic_ratio(N, K):
    """Normalized double sum: value times log(K N^2) over K^(3/2) N."""
    total = witness_prime_sum_progression(N, K)
    return total * math.log(K * N * N) / (K ** 1.5 * N)
