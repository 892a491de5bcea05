"""Bulk counting over rectangles of group shapes.

Counts members of the prime-witness and prime-power-witness sets on
[1, N] x [1, K], lists the missed pairs, builds the f(D) series, and
evaluates the witness-prime double sum two independent ways: a direct
primality test of every candidate and a progression-count identity. The
two must agree exactly.

The bulk path decides rows n with one cell kernel over a set of columns
k, 1..K for a survey or one k for a degree-1 n set of special_sets: cell
(n, k) is in the prime-witness set when its window v = k n^2 + l n + 1,
l^2 <= 4k, holds a prime. Each cell walks its window in blocks of 64
offsets l, each with a 64-bit mask of the offsets whose value has a
factor up to 61, built once a block from small tables; each round tests
every live cell's next offset that its mask leaves with one batched
primality test, and a cell drops out at its first prime. The kernel keeps one pool of live cells,
admits whole rows as cells finish and hands on each prefix of rows once
it is done. Prime-power witnesses (q = p^j, j >= 2) are sparse and come
from one numpy pass over chunks of rows: q = p^2 from the primes p with
p^2 = 1 mod n, and higher powers from one ascending table of p^j, its
entries q = 1 mod n. They are kept as two arrays (n, k), sorted by n, and
scattered onto each run of finished rows. In-process the kernel runs
over all rows at once; with several workers, one Executor.map sends
blocks of rows, each with the context, to forked pool workers running the
same kernel. The surveys consume the rows a run at a time.
"""

from __future__ import annotations

import concurrent.futures
import functools
import itertools
import json
import math
import multiprocessing
import os
import resource
import time
from dataclasses import dataclass

import numpy as np

from . import arith
from .realizability import GroupShape, hits_realizable

CHECKPOINT_VERSION = 1

# f_series with a resume path writes its checkpoint at most this often
_CHECKPOINT_SECONDS = 30.0


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
# the cell kernel
# ---------------------------------------------------------------------------

class _SieveContext:
    """Shared precomputation for a set of columns: the k and their widths.

    Cell (n, k) holds the candidates v = k n^2 + l n + 1 with |l| <= w_k,
    w_k = isqrt(4k). The columns ks, an ascending int64 array, are 1..K
    unless given; a kernel row holds them at positions 1..len(ks). The
    widths W depend on the columns alone and serve every row.
    """

    __slots__ = ("ks", "W")

    def __init__(self, N, K, ks=None):
        self.ks = np.asarray(range(1, K + 1) if ks is None else ks, dtype=np.int64)
        self.W = np.array([math.isqrt(4 * k) for k in self.ks.tolist()], dtype=np.int64)


def _sieve_row(ctx, n):
    """Membership of (n, k) in the prime-witness set for every column k."""
    return _row_kernel(ctx, [n])[0]


# The sieve masks: bit i of a cell's mask stands for offset b + i of its
# current block of 64 offsets, and is set once that offset is sieved out,
# tested or past the window
_ALL = np.uint64((1 << 64) - 1)
# _PAST[t]: the bits past t, for a window ending at bit t of the block
_PAST = np.array([_ALL << np.uint64(t + 1) for t in range(63)] + [0], dtype=np.uint64)


@functools.cache
def _sieve_tables():
    """((r, table), ...) for each r in arith._SMALL_PRIMES: table[a r + c],
    a = n mod r and c = (k n + b) mod r, holds the bits i < 64 with
    r | n (k n + b + i) + 1. For r not dividing n that is i = -(n^-1 + c)
    mod r; for r | n the value is 1 mod r, and the row is 0."""
    bits = np.uint64(1) << np.arange(64, dtype=np.uint64)
    out = []
    for r in arith._SMALL_PRIMES:
        pattern = np.zeros(r, dtype=np.uint64)
        np.bitwise_or.at(pattern, np.arange(64) % r, bits)
        inv = np.array([pow(a, -1, r) for a in range(1, r)])
        table = np.zeros((r, r), dtype=np.uint64)
        table[1:] = pattern[(-inv[:, None] - np.arange(r)) % r]
        out.append((r, table.reshape(-1)))
    return tuple(out)


def _sieve_masks(n, c, top):
    """The masks of blocks whose first offset b has c = k n + b and whose
    window ends at bit top: a bit for each offset whose value has a factor
    in arith._SMALL_PRIMES, and the bits past top. A block whose least value
    n c + 1 is at most 61, where a small prime can be the value itself, is
    not sieved."""
    mask = np.zeros(c.shape, dtype=np.uint64)
    idx = np.empty(c.shape, dtype=np.int64)
    bits = np.empty(c.shape, dtype=np.uint64)
    for r, table in _sieve_tables():
        # c mod r as c - r (c // r): numpy divides by a scalar several times
        # faster than it takes the remainder
        np.floor_divide(c, r, out=idx)
        idx *= -r
        idx += c
        idx += n % r * r
        mask |= np.take(table, idx, out=bits)
    mask[n * c + 1 <= arith._SMALL_PRIMES[-1]] = 0
    mask |= _PAST[np.minimum(top, 63)]
    return mask


def _advance(n, c, top, mask, idx):
    """Move the cells idx, their blocks used up, on to their next block
    with an offset left, or past their window (top < 0)."""
    while idx.size:
        c[idx] += 64
        top[idx] -= 64
        idx = idx[top[idx] >= 0]
        mask[idx] = _sieve_masks(n[idx], c[idx], top[idx])
        idx = idx[mask[idx] == _ALL]


# The kernel keeps about _BLOCK_CELLS cells live: enough to amortize a
# round's numpy calls, few enough that a round's arrays stay near 1 MB. On
# fcurve --dmax 1500 (234 rounds at 2^15), pools of 2^14, 2^15 and 2^16
# cells ran 4.96-5.27, 4.01-4.57 and 4.31-4.40 s, with peaks of 38.1, 42.5
# and 49.0 MB.
_BLOCK_CELLS = 1 << 15

# A pool task runs the kernel over up to _TASK_POOLS pool-fulls of rows, so
# that its drain to a tail of slow cells, one offset a round, is paid once
# per several pool-fulls. On the D = 37550 context, where a pool-full is
# one row, tasks of one row cost 0.42 s and 0.55 s a row at n = 8000 and
# 37543, tasks of four rows 0.25 s and 0.34 s and tasks of eight rows
# 0.23 s and 0.31 s, all in one sitting.
_TASK_POOLS = 8


def _admit(ctx, live, new, drawn):
    """The pool's columns live followed by the cells of the rows new, the
    first of which is row drawn of the rows drawn so far. Each new cell
    starts at its window's first block, its mask built with each n mod r
    taken once a row, and moves on past blocks sieved out entirely; a cell
    whose whole window is sieved out is left out."""
    K = ctx.ks.size
    old = live.shape[1]
    grown = np.empty((5, old + new.size * K), dtype=np.int64)
    grown[:, :old] = live
    n, c, top, cell, mask = (col.reshape(new.size, K) for col in grown[:, old:])
    n[:] = new[:, None]
    np.multiply(new[:, None], ctx.ks, out=c)
    c -= ctx.W
    np.multiply(ctx.W, 2, out=top)
    # a cell's index counts its column's position 1..K, not its k
    np.add(np.arange(drawn, drawn + new.size)[:, None] * (K + 1), np.arange(1, K + 1), out=cell)
    mask[:] = _sieve_masks(new[:, None], c, top).view(np.int64)
    n, c, top, cell, mask = grown
    _advance(n, c, top, mask.view(np.uint64), old + np.flatnonzero(mask[old:] == -1))
    if (top[old:] < 0).any():
        return grown.take(np.flatnonzero(top >= 0), axis=1)
    return grown


def _round(live):
    """(live, found): one round over the pool's columns live. Every cell
    tests the lowest offset its mask leaves, all in one is_prime_batch, and
    a cell whose block is then used up moves on. Returns the cells still
    live and, for each cell found prime, its index into the drawn rows laid
    end to end."""
    n, c, top, cell, mask = live
    mask = mask.view(np.uint64)
    low = mask + np.uint64(1)
    low &= ~mask
    # the offset's bit from the exponent of its float64 value, then the value
    v = low.view(np.int64).astype(np.float64).view(np.int64)
    v >>= 52
    v &= 0x7FF
    v -= 1023
    v += c
    v *= n
    v += 1
    prime = arith.is_prime_batch(v)
    mask |= low
    _advance(n, c, top, mask, np.flatnonzero(mask == _ALL))
    return live.take(np.flatnonzero(~prime & (top >= 0)), axis=1), cell[prime]


def _kernel_rows(ctx, ns):
    """Yield (first, rows) for the rows ns in order: rows, shape (m, K + 1)
    for the K columns of ctx, holds rows first, ..., first + m - 1 of ns,
    counted from 0, each cell certified by its first prime, column 0 unused.

    One pool of live cells: when it holds _BLOCK_CELLS // 2 cells or fewer,
    the next whole rows of ns come in, at least one, up to _BLOCK_CELLS
    cells. A cell (n, k) walks its window l^2 <= 4k in blocks of 64 offsets
    l, each with a mask of the offsets whose value v = n (k n + l) + 1 has a
    factor in arith._SMALL_PRIMES. Each round tests every live cell's next
    offset that its mask leaves, in ascending l, with one is_prime_batch;
    a cell whose block is used up moves on to its next 64 offsets, and it
    drops out at its first prime or once its window is used up. Each prefix
    of rows whose cells are all done is yielded as soon as it is. Only the
    live cells and the rows drawn from ns but not yet yielded are held.
    """
    K = ctx.ks.size
    width = K + 1
    ns = iter(ns)
    # one column per live cell: n, c = k n + b for its block's first offset
    # b, the window's last bit top = w_k - b, its index into the drawn rows
    # laid end to end and its mask; admitted in order, so ascending index
    live = np.zeros((5, 0), dtype=np.int64)
    rows = np.zeros((0, width), dtype=bool)     # drawn and not yet yielded
    first = 0
    more = True
    while True:
        if more and live.shape[1] <= _BLOCK_CELLS // 2:
            want = max(1, (_BLOCK_CELLS - live.shape[1]) // K)
            new = np.fromiter(itertools.islice(ns, want), np.int64)
            more = new.size == want
            live = _admit(ctx, live, new, first + len(rows))
            rows = np.concatenate([rows, np.zeros((new.size, width), dtype=bool)])
        # admission may leave no cell live: every window sieved out
        if live.shape[1]:
            live, found = _round(live)
            rows.reshape(-1)[found - first * width] = True
        done = int(live[3, 0] // width if live.shape[1] else first + len(rows)) - first
        if done:
            yield first, rows[:done]
            first += done
            rows = rows[done:]
        if not (more or live.shape[1]):
            return


def _row_kernel(ctx, ns):
    """Rows ns, shape (len(ns), K + 1), from _kernel_rows."""
    return np.concatenate([np.zeros((0, ctx.ks.size + 1), dtype=bool),
                           *(rows for _, rows in _kernel_rows(ctx, ns))])


def _smallest_factors(limit):
    """spf[x] = the smallest prime factor of x for 2 <= x <= limit."""
    spf = np.zeros(limit + 1, dtype=np.int32)
    for p in arith.primes_in_range(2, max(2, math.isqrt(limit))).tolist():
        sub = spf[p * p::p]
        sub[sub == 0] = p
    rest = np.flatnonzero(spf == 0)
    spf[rest] = rest
    return spf


def _expand(starts, counts):
    """(run, value) for the runs starts[i], starts[i] + 1, ...,
    starts[i] + counts[i] - 1 laid end to end: each entry's run i and value."""
    idx = np.repeat(np.arange(counts.size), counts)
    ends = np.cumsum(counts)
    return idx, np.arange(ends[-1] if ends.size else 0) - (ends - counts)[idx] + starts[idx]


def _unit_square_roots(N):
    """(count, roots): count[n] residues r mod n with r^2 = 1 mod n, and
    roots holding those of n = 1, 2, ..., N in turn, unordered within n.

    n = m p^e with p its smallest prime factor, read off the smallest-factor
    table, combines each root of m by CRT with those of p^e: +-1 for odd p,
    {1} mod 2, {1, 3} mod 4 and {+-1, 2^(e-1) +- 1} mod 2^e. m <= n / 2, so
    the rows are built over [2^i, 2^(i+1)) in turn.
    """
    spf = _smallest_factors(N).astype(np.int64)
    count = np.zeros(N + 1, dtype=np.int64)
    count[1] = 1
    roots = [np.zeros(1, dtype=np.int64)]
    lo = 2
    while lo <= N:
        n = np.arange(lo, min(2 * lo, N + 1), dtype=np.int64)
        p = spf[n]
        m, pe = n // p, p.copy()
        while (step := m % p == 0).any():
            m[step] //= p[step]
            pe[step] *= p[step]
        per = np.where(p > 2, 2, np.minimum(pe // 2, 4))
        own = np.stack([np.ones_like(pe), pe - 1, pe // 2 - 1, pe // 2 + 1], axis=1)
        # m^-1 mod p^e as m^(phi(p^e) - 1), since gcd(m, p) = 1
        inv, base, e = np.ones_like(pe), m % pe, pe // p * (p - 1) - 1
        while e.any():
            inv = np.where(e & 1, inv * base % pe, inv)
            base, e = base * base % pe, e >> 1
        first = np.cumsum(count[:lo]) - count[:lo]
        found = np.concatenate(roots)
        i, j = _expand(np.zeros_like(n), count[m] * per)
        x = found[first[m[i]] + j // per[i]]
        s = own[i, j % per[i]]
        roots.append(x + m[i] * ((s - x) * inv[i] % pe[i]))
        count[n] = count[m] * per
        lo *= 2
    return count, np.concatenate(roots)


# Each chunk takes _MARK_CANDIDATES // (isqrt(K) + 1) rows, a few times 2^12
# candidate primes p for q = p^2: at 1500^2 and 10000^2 that ran faster and
# held less memory than chunks 4 or 16 times as large.
_MARK_CANDIDATES = 1 << 12


def _prime_power_marks(N, K):
    """All (n, k) in the rectangle witnessed by a proper prime power.

    A window of (n, k) holds q = p^j, j >= 2, exactly when n | q - 1 and
    the trace a = q + 1 - k n^2 has |a| <= isqrt(4q). One numpy pass over
    chunks of rows gathers each row's q: p^2 from the primes p = r mod n,
    r^2 = 1 mod n, over n - 1 <= p <= n sqrt(K) + 1, and p^j with j >= 3
    from one ascending table, its entries q = 1 mod n. One expansion then
    takes every k of each, and realizability.hits_realizable decides them.
    """
    vmax = arith.candidate_bound(N, K)
    L = math.isqrt(4 * K)
    root = math.isqrt(vmax)
    primes = arith.primes_in_range(2, root + 2)
    sieve = np.zeros(root + 3, dtype=bool)
    sieve[primes] = True
    tq, tp, tj = arith.prime_power_table(primes, vmax)
    tw = np.array([math.isqrt(4 * q) for q in tq.tolist()], dtype=np.int64)
    count, roots = _unit_square_roots(N)
    ends = np.cumsum(count)
    marks = {}
    per = max(1, _MARK_CANDIDATES // (math.isqrt(K) + 1))
    for lo in range(1, N + 1, per):
        hi = min(lo + per, N + 1)
        rows = np.arange(lo, hi, dtype=np.int64)
        n = np.repeat(rows, count[lo:hi])
        r = roots[ends[lo - 1]:ends[hi - 1]]
        # p = r + t n over n - 1 <= p <= n sqrt(K) + 1
        top = np.minimum((n * math.sqrt(K)).astype(np.int64) + 2, root + 2)
        t0 = -((r - n + 1) // n)
        idx, t = _expand(t0, np.maximum((top - r) // n - t0 + 1, 0))
        n = n[idx]
        p = r[idx] + t * n
        keep = sieve[p]
        n, p = n[keep], p[keep]
        # row n's q lie in [(n - 1)^2, K n^2 + L n + 1]: the chunk tests the
        # table over its rows' joint range (the top plus one, searched on the
        # left), and a q outside its own row's range takes no k below
        first, last = np.searchsorted(tq, [(lo - 1) ** 2,
                                           K * (hi - 1) ** 2 + L * (hi - 1) + 2])
        row, i = np.nonzero((tq[first:last] - 1) % rows[:, None] == 0)
        i += first
        n = np.concatenate([n, rows[row]])
        q = np.concatenate([p * p, tq[i]])
        w = np.concatenate([2 * p, tw[i]])
        j = np.concatenate([np.full(p.size, 2), tj[i]])
        p = np.concatenate([p, tp[i]])
        # k n^2 within w = isqrt(4q) of q + 1: (p - 1)^2 <= k n^2 <= (p + 1)^2 for j = 2
        nn = n * n
        k0 = np.maximum(1, (q - w + nn) // nn)
        idx, k = _expand(k0, np.maximum(np.minimum(K, (q + 1 + w) // nn) - k0 + 1, 0))
        real = hits_realizable(n[idx], k, q[idx], p[idx], j[idx])
        n, k = n[idx][real], k[real]
        # a sort by n makes each row's k one run
        order = np.argsort(n, kind="stable")
        runs, start = np.unique(n[order], return_index=True)
        for n_, run in zip(runs.tolist(), np.split(k[order], start[1:])):
            marks.setdefault(n_, set()).update(run.tolist())
    return marks


def _member_rows(N, K, workers=1, start_n=1):
    """Yield (first_n, prime_rows, prime_power_rows) for rows start_n..N, a
    run of consecutive rows at a time, in row order.

    Row i of each boolean array, shape (rows, K + 1), is row first_n + i,
    indexed by k with column 0 unused. The prime-power marks are scattered
    onto each run in one step. In-process, one cell kernel runs over all the
    rows and each run is a prefix of rows it has finished. Pool blocks hold
    between one and _TASK_POOLS pool-fulls of max(1, _BLOCK_CELLS // K)
    rows, fewer where that leaves two blocks a worker. With more than one
    block and more than one worker, one Executor.map hands the blocks to
    min(workers, blocks) forked workers, the context travelling with each
    task, and returns each block's rows in row order; the rows are
    identical for any worker count. A worker that dies raises
    BrokenProcessPool here. workers < 1 raises ValueError. With start_n > N
    there is nothing to do, and neither the context nor the marks are built.
    """
    if workers < 1:
        raise ValueError("workers must be positive")
    if start_n > N:
        return
    ctx = _SieveContext(N, K)
    marks = _prime_power_marks(N, K)
    mark_n = np.repeat(np.fromiter(marks, np.int64, len(marks)),
                       np.fromiter(map(len, marks.values()), np.int64, len(marks)))
    mark_k = np.fromiter(itertools.chain.from_iterable(marks.values()), np.int64, mark_n.size)
    del marks                       # its sets need not outlive the survey's start
    order = np.argsort(mark_n, kind="stable")
    mark_n, mark_k = mark_n[order], mark_k[order]
    # a pool-full of rows or more a task, and two tasks a worker or more
    # where that allows
    pool_rows = max(1, _BLOCK_CELLS // K)
    per = max(pool_rows, min(_TASK_POOLS * pool_rows, -(-(N + 1 - start_n) // (2 * workers))))
    blocks = [range(n, min(n + per, N + 1)) for n in range(start_n, N + 1, per)]

    def finish(first, prime_rows):
        lo, hi = np.searchsorted(mark_n, [first, first + len(prime_rows)])
        power_rows = prime_rows.copy()
        power_rows[mark_n[lo:hi] - first, mark_k[lo:hi]] = True
        return first, prime_rows, power_rows

    workers = min(workers, len(blocks))
    if workers == 1:
        for i, rows in _kernel_rows(ctx, range(start_n, N + 1)):
            yield finish(start_n + i, rows)
        return
    # forked workers inherit the imported modules; the context travels with
    # each task. The process-pool module loads on this first use, not with
    # the package
    with concurrent.futures.ProcessPoolExecutor(
            workers, mp_context=multiprocessing.get_context("fork")) as pool:
        for ns, rows in zip(blocks, pool.map(functools.partial(_row_kernel, ctx), blocks)):
            yield finish(ns.start, rows)


# ---------------------------------------------------------------------------
# public surveys
# ---------------------------------------------------------------------------

def _missed_shapes(first, spp):
    """The shapes outside the prime-power-witness set in a block from row first."""
    rows, cols = np.nonzero(~spp[:, 1:])
    return map(GroupShape, (rows + first).tolist(), (cols + 1).tolist())


def survey(N, K, workers=1):
    """Exact counts and missed pairs for the rectangle [1, N] x [1, K]."""
    arith.candidate_bound(N, K)
    n_pi = 0
    n_Pi = 0
    missed = []
    for first, spi, spp in _member_rows(N, K, workers):
        n_pi += int(np.count_nonzero(spi))
        n_Pi += int(np.count_nonzero(spp))
        missed += _missed_shapes(first, spp)
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


def _require_memory(need, what):
    """Raise OverflowError when what, taking need bytes, exceeds the budget."""
    have = _memory_budget()
    if need > have:
        raise OverflowError(f"{what} would take {need} bytes, "
                            f"more than the {have} bytes of memory available")


def membership_grid(N, K, workers=1):
    """Boolean membership tables, shape (N+1, K+1), index 0 unused."""
    arith.candidate_bound(N, K)
    _require_memory(2 * (N + 1) * (K + 1), "membership tables")
    spi = np.zeros((N + 1, K + 1), dtype=bool)
    spp = np.zeros((N + 1, K + 1), dtype=bool)
    for first, rows_pi, rows_pp in _member_rows(N, K, workers):
        spi[first:first + len(rows_pi)] = rows_pi
        spp[first:first + len(rows_pp)] = rows_pp
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


def _is_count(x):
    return isinstance(x, int) and not isinstance(x, bool)


def _read_checkpoint(path, d_max):
    """(rows_done, missed) of a checkpoint; its step does not matter, since
    the missed list is the same for every step.

    A file that is not a checkpoint of this d_max raises ValueError: a key
    missing, rows_done outside [0, d_max], or a missed pair that repeats or
    lies outside [1, rows_done] x [1, d_max].
    """
    with open(path) as fh:
        doc = json.load(fh)
    if not isinstance(doc, dict):
        raise ValueError("checkpoint is not a JSON object")
    lacking = {"version", "dmax", "rows_done", "missed"} - doc.keys()
    if lacking:
        raise ValueError("checkpoint lacks " + ", ".join(sorted(lacking)))
    if doc["version"] != CHECKPOINT_VERSION:
        raise ValueError("unsupported checkpoint version")
    if doc["dmax"] != d_max:
        raise ValueError("checkpoint was written for different parameters")
    rows_done, pairs = doc["rows_done"], doc["missed"]
    if not _is_count(rows_done) or not 0 <= rows_done <= d_max:
        raise ValueError(f"checkpoint rows_done {rows_done!r} is not in [0, {d_max}]")
    if not isinstance(pairs, list):
        raise ValueError("checkpoint missed is not a list of pairs")
    for pair in pairs:
        if not (isinstance(pair, list) and len(pair) == 2 and all(map(_is_count, pair))
                and 1 <= pair[0] <= rows_done and 1 <= pair[1] <= d_max):
            raise ValueError(f"checkpoint missed pair {pair!r} is not in "
                             f"[1, {rows_done}] x [1, {d_max}]")
    missed = [GroupShape(n, k) for n, k in pairs]
    if len(set(missed)) != len(missed):
        raise ValueError("checkpoint repeats a missed pair")
    return rows_done, missed


def f_series(d_max, step=1, workers=1, resume=None):
    """The missed-pair growth series f(D) = D^2 - #S_Pi(D, D).

    Computes one bulk survey of [1, d_max]^2 and reads every requested D
    off the sorted missed list. With a resume path, progress is saved at
    the first end of a run of finished rows after each _CHECKPOINT_SECONDS
    of wall-clock time (a pool block's end with several workers) and picked
    up on the next call.
    """
    if step < 1:
        raise ValueError("step must be positive")
    arith.candidate_bound(d_max, d_max)
    start_n = 1
    missed = []
    if resume is not None and os.path.exists(resume):
        rows_done, missed = _read_checkpoint(resume, d_max)
        start_n = rows_done + 1
    if resume is not None:
        # an unwritable checkpoint fails here, not after the rows before it
        open(resume + ".tmp", "w").close()
        os.remove(resume + ".tmp")
    last_write = time.monotonic()
    for first, _, spp in _member_rows(d_max, d_max, workers, start_n=start_n):
        missed += _missed_shapes(first, spp)
        if resume is not None and time.monotonic() - last_write >= _CHECKPOINT_SECONDS:
            _write_checkpoint(resume, d_max, step, first + len(spp) - 1, missed)
            last_write = time.monotonic()
    if resume is not None:
        _write_checkpoint(resume, d_max, step, d_max, missed)
    tops = np.fromiter((max(s.n, s.k) for s in missed), dtype=np.int64, count=len(missed))
    tops.sort()
    Ds = np.arange(step, d_max + 1, step)
    return [SeriesPoint(D, f) for D, f in
            zip(Ds.tolist(), np.searchsorted(tops, Ds, side="right").tolist())]


# ---------------------------------------------------------------------------
# the witness-prime double sum, two ways
# ---------------------------------------------------------------------------

def witness_prime_sum_direct(N, K):
    """Sum of witness-prime counts over the rectangle, by per-pair scan."""
    return int(witness_prime_sum_direct_grid(N, K)[N, K])


def witness_prime_sum_direct_grid(N, K):
    """All partial sums at once: entry [N', K'] is the (N', K') value."""
    arith.candidate_bound(N, K)
    _require_memory(3 * 8 * (N + 1) * (K + 1), "the direct sum's cells and partial sums")
    cell = np.zeros((N + 1, K + 1), dtype=np.int64)
    for n in range(1, N + 1):
        nn = n * n
        for k in range(1, K + 1):
            w = math.isqrt(4 * k)
            cell[n, k] = sum(1 for ell in range(-w, w + 1)
                             if arith.is_prime(k * nn + ell * n + 1))
    return cell.cumsum(axis=0).cumsum(axis=1)


def _progression_rows(N, K, each):
    """[each(n, res, ps) for n <= N], with ps the primes up to row n's
    largest candidate bucketed by residue res mod n^2 and ready for
    bisection. One sieve to the rectangle's largest candidate serves every
    row, and a row's arrays are dropped before the next row's are built."""
    w = math.isqrt(4 * K)
    vmax = arith.candidate_bound(N, K)
    # 8 bytes a prime times 4 copies: the sieve's, and a row's residues and
    # order or its bucketed arrays, with the sort's buffer (peak RSS 3.5 and
    # 3.75 copies at vmax = 10^8 and 4 10^8); pi(x) < 1.25506 x / ln x for
    # x > 1 (Rosser and Schoenfeld 1962)
    _require_memory(int(32 * 1.25506 * vmax / math.log(vmax)), "the progression sum's primes")
    primes = arith.primes_in_range(2, vmax)
    tops = np.searchsorted(primes, [K * n * n + w * n + 1 for n in range(1, N + 1)], side="right")
    return [each(n, *_bucketed(primes[:top], n * n)) for n, top in enumerate(tops.tolist(), 1)]


def _bucketed(ps, m):
    """(res, ps) with the ascending primes ps stably sorted by residue res
    mod m. Beside ps, at most two arrays of its length live at once."""
    order = np.argsort(ps % m, kind="stable")
    ps = ps[order]
    del order
    return ps % m, ps


def _progression_count(res_sorted, ps_sorted, a, lo, hi):
    """Primes p = a mod m with lo < p <= hi, from the bucketed arrays."""
    if hi < 2:
        return 0
    left, right = np.searchsorted(res_sorted, [a, a + 1])
    block = ps_sorted[left:right]
    return int(np.searchsorted(block, hi, side="right")
               - np.searchsorted(block, max(lo, 0), side="right"))


def _progression_row(res, ps, n, K):
    """Witness primes of row n summed over k <= K, by progression counts.

    For each offset l with l^2 <= 4K the candidates form the progression
    l n + 1 mod n^2 on ((ln/2 + 1)^2, K n^2 + l n + 1]; the lower endpoint
    is a square, so the half-open count is exact.
    """
    nn = n * n
    w = math.isqrt(4 * K)
    total = 0
    for ell in range(-w, w + 1):
        assert math.gcd(ell * n + 1, nn) == 1
        lo = (ell * n) ** 2 // 4 + ell * n + 1
        total += _progression_count(res, ps, (ell * n + 1) % nn, lo, K * nn + ell * n + 1)
    return total


def witness_prime_sum_progression(N, K):
    """The same double sum through progression prime counts, row by row."""
    return sum(_progression_rows(N, K, lambda n, res, ps: _progression_row(res, ps, n, K)))


def witness_prime_sum_progression_grid(N, K):
    """Partial-sum grid for the progression evaluation."""
    out = np.zeros((N + 1, K + 1), dtype=np.int64)
    out[1:, 1:] = _progression_rows(N, K, lambda n, res, ps: [
        _progression_row(res, ps, n, kp) for kp in range(1, K + 1)])
    return out.cumsum(axis=0)


def asymptotic_ratio(N, K):
    """Normalized double sum: value times log(K N^2) over K^(3/2) N."""
    total = witness_prime_sum_progression(N, K)
    return total * math.log(K * N * N) / (K ** 1.5 * N)
