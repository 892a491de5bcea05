"""Rectangle surveys, the f(D) series, and the witness-prime double sum.

The bulk cell kernel is checked against the per-shape predicate, an
interval sieve for the n = 1 row, and hand-frozen counts for the 25 x 25
rectangle. The two double-sum evaluations must agree exactly.
"""

import concurrent.futures
import functools
import json
import math
import os
import random
import signal
import time
from concurrent.futures.process import BrokenProcessPool

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ecgroups import arith, counting, realizability, special_sets
from ecgroups.counting import (
    CountGrid,
    SeriesPoint,
    asymptotic_ratio,
    f_series,
    membership_grid,
    survey,
    witness_prime_sum_direct,
    witness_prime_sum_direct_grid,
    witness_prime_sum_progression,
    witness_prime_sum_progression_grid,
)
from ecgroups.realizability import (
    GroupShape,
    shape_realizable_over,
    smallest_prime_power_witness,
    smallest_prime_witness,
)

MISSED_25 = [
    (11, 1), (11, 14), (13, 6), (13, 25), (15, 4),
    (19, 7), (19, 10), (19, 14), (19, 15), (19, 18),
    (21, 18), (23, 1), (23, 5), (23, 8), (23, 19),
    (25, 5), (25, 14),
]


def test_survey_25_frozen():
    grid = survey(25, 25)
    assert grid.count_S_Pi == 608
    assert grid.count_S_pi == 604
    assert [(s.n, s.k) for s in grid.missed] == MISSED_25


def test_survey_trivial_corner():
    grid = survey(1, 1)
    assert grid == CountGrid(1, 1, 1, 1, [])


def test_survey_counts_consistent():
    grid = survey(18, 31)
    assert len(grid.missed) == 18 * 31 - grid.count_S_Pi
    assert grid.count_S_pi <= grid.count_S_Pi
    assert grid.missed == sorted(grid.missed, key=lambda s: (s.n, s.k))


def test_survey_matches_per_pair():
    spi, spp = membership_grid(30, 30)
    for n in range(1, 31):
        for k in range(1, 31):
            shape = GroupShape(n, k)
            assert spi[n, k] == (smallest_prime_witness(shape) is not None)
            assert spp[n, k] == (smallest_prime_power_witness(shape) is not None)


def test_row_one_against_interval_sieve():
    spi, _ = membership_grid(1, 100)
    for k in range(1, 101):
        w = math.isqrt(4 * k)
        ps = arith.primes_in_range(max(2, k - w + 1), k + w + 1)
        assert spi[1, k] == (len(ps) > 0)


def test_missed_pairs_have_no_witness():
    for n, k in MISSED_25:
        assert smallest_prime_power_witness(GroupShape(n, k)) is None


def test_count_grid_validation():
    with pytest.raises(ValueError):
        CountGrid(2, 2, 4, 3, [GroupShape(1, 1)])
    with pytest.raises(ValueError):
        CountGrid(2, 2, 1, 3, [])


def test_f_series_frozen():
    pts = f_series(25)
    assert pts[-1] == SeriesPoint(25, 17)
    by_d = {p.D: p.f for p in pts}
    assert by_d[10] == 0
    assert by_d[11] == 1
    fs = [p.f for p in pts]
    assert fs == sorted(fs)
    assert f_series(1) == [SeriesPoint(1, 0)]
    assert [p.D for p in f_series(25, step=7)] == [7, 14, 21]


def test_f_series_derived_points():
    by_d = {p.D: p.f for p in f_series(100, step=20)}
    assert by_d[40] == 39
    assert by_d[60] == 102
    assert by_d[100] == 273


def test_f_series_consistent_with_survey():
    grid = survey(40, 40)
    assert f_series(40)[-1].f == 40 * 40 - grid.count_S_Pi


def test_f_series_checkpoint_roundtrip(tmp_path, monkeypatch):
    path = str(tmp_path / "ck.json")
    want = f_series(40, step=5)
    with monkeypatch.context() as mp:
        mp.setattr(counting, "_CHECKPOINT_SECONDS", 0.0)
        got = f_series(40, step=5, resume=path)
    assert got == want
    doc = json.loads(open(path).read())
    assert doc["version"] == counting.CHECKPOINT_VERSION
    assert doc["rows_done"] == 40
    # resuming a finished run returns the same series without survey work

    def no_survey(*args):
        raise AssertionError("survey work on a finished checkpoint")

    with monkeypatch.context() as mp:
        mp.setattr(counting, "_SieveContext", no_survey)
        mp.setattr(counting, "_prime_power_marks", no_survey)
        assert f_series(40, step=5, resume=path) == want
    # a partially complete checkpoint resumes to the same answer
    doc2 = dict(doc)
    doc2["rows_done"] = 17
    doc2["missed"] = [m for m in doc["missed"] if m[0] <= 17]
    with open(path, "w") as fh:
        json.dump(doc2, fh)
    assert f_series(40, step=5, resume=path) == want
    # the step does not enter the checkpoint: a step-5 one resumes under step 10
    with open(path, "w") as fh:
        json.dump(doc2, fh)
    assert f_series(40, step=10, resume=path) == f_series(40, step=10)
    # parameter mismatch is refused
    with open(path, "w") as fh:
        json.dump(dict(doc, dmax=39), fh)
    with pytest.raises(ValueError):
        f_series(40, step=5, resume=path)


def test_f_series_checkpoints_on_block_ends(tmp_path, monkeypatch):
    # with every interval elapsed, each block end of the pool's merge writes
    # the missed pairs of the rows done so far, and each resumes to the series
    monkeypatch.setattr(counting, "_BLOCK_CELLS", 7 * 40)
    monkeypatch.setattr(counting, "_TASK_POOLS", 1)
    want = f_series(40, step=5)
    pairs = survey(40, 40).missed
    path = str(tmp_path / "ck.json")
    write = counting._write_checkpoint
    written = []

    def record(path, d_max, step, rows_done, missed):
        write(path, d_max, step, rows_done, missed)
        with open(path) as fh:
            written.append((rows_done, list(missed), fh.read()))

    monkeypatch.setattr(counting, "_write_checkpoint", record)
    monkeypatch.setattr(counting, "_CHECKPOINT_SECONDS", 0.0)
    assert f_series(40, step=5, workers=2, resume=path) == want
    monkeypatch.setattr(counting, "_write_checkpoint", write)
    assert [rows_done for rows_done, _, _ in written] == [7, 14, 21, 28, 35, 40, 40]
    for rows_done, missed, doc in written:
        assert missed == [s for s in pairs if s.n <= rows_done], rows_done
        with open(path, "w") as fh:
            fh.write(doc)
        assert f_series(40, step=5, workers=2, resume=path) == want, rows_done


def test_f_series_checkpoints_serial(tmp_path, monkeypatch):
    # in-process, every finished prefix of rows with the interval elapsed
    # writes the missed pairs of the rows done so far, and each resumes to
    # the series
    monkeypatch.setattr(counting, "_BLOCK_CELLS", 7 * 40)
    want = f_series(40, step=5)
    pairs = survey(40, 40).missed
    path = str(tmp_path / "ck.json")
    write = counting._write_checkpoint
    written = []

    def record(path, d_max, step, rows_done, missed):
        write(path, d_max, step, rows_done, missed)
        with open(path) as fh:
            written.append((rows_done, list(missed), fh.read()))

    monkeypatch.setattr(counting, "_write_checkpoint", record)
    monkeypatch.setattr(counting, "_CHECKPOINT_SECONDS", 0.0)
    assert f_series(40, step=5, workers=1, resume=path) == want
    monkeypatch.setattr(counting, "_write_checkpoint", write)
    done = [rows_done for rows_done, _, _ in written]
    assert len(done) > 3 and done[-2:] == [40, 40]
    assert done[:-1] == sorted(set(done[:-1]))
    for rows_done, missed, doc in written:
        assert missed == [s for s in pairs if s.n <= rows_done], rows_done
        with open(path, "w") as fh:
            fh.write(doc)
        assert f_series(40, step=5, workers=1, resume=path) == want, rows_done


def _checkpoint_doc(**change):
    doc = {"version": counting.CHECKPOINT_VERSION, "dmax": 30, "step": 5,
           "rows_done": 20, "missed": [[11, 1], [11, 14], [13, 6]]}
    doc.update(change)
    return {key: value for key, value in doc.items() if value is not None}


@pytest.mark.parametrize("change", [
    dict(missed=None), dict(rows_done=None), dict(version=None), dict(dmax=None),
    dict(rows_done=-1), dict(rows_done=31), dict(rows_done=2.5), dict(rows_done="20"),
    dict(rows_done=3, missed=[[29, 1], [29, 1]]),
    dict(missed=[[11, 1], [13, 6], [11, 1]]),
    dict(missed=[[21, 1]]), dict(missed=[[0, 1]]), dict(missed=[[5, 0]]), dict(missed=[[5, 31]]),
    dict(missed=[[5]]), dict(missed=[[5, 1.0]]), dict(missed=[[5, True]]), dict(missed={"5": 1}),
    dict(version=2),
])
def test_read_checkpoint_rejects_bad_files(tmp_path, change):
    path = tmp_path / "ck.json"
    path.write_text(json.dumps(_checkpoint_doc(**change)))
    with pytest.raises(ValueError):
        f_series(30, step=5, resume=str(path))


def test_read_checkpoint_accepts_edges(tmp_path):
    # rows_done 0 with no pairs, and pairs on the corners of the range
    path = tmp_path / "ck.json"
    want = f_series(30, step=5)
    path.write_text(json.dumps(_checkpoint_doc(rows_done=0, missed=[])))
    assert counting._read_checkpoint(str(path), 30) == (0, [])
    assert f_series(30, step=5, resume=str(path)) == want
    path.write_text(json.dumps(_checkpoint_doc(missed=[[1, 30], [20, 1]])))
    assert counting._read_checkpoint(str(path), 30) == (20, [GroupShape(1, 30), GroupShape(20, 1)])
    path.write_text("[]")
    with pytest.raises(ValueError):
        counting._read_checkpoint(str(path), 30)


def test_workers_bit_identical(monkeypatch):
    # blocks of five rows, so that the surveys take the pool
    monkeypatch.setattr(counting, "_BLOCK_CELLS", 5 * 40)
    monkeypatch.setattr(counting, "_TASK_POOLS", 1)
    one = survey(60, 40, workers=1)
    many = survey(60, 40, workers=3)
    assert one == many
    a = membership_grid(35, 35, workers=1)
    b = membership_grid(35, 35, workers=4)
    assert np.array_equal(a[0], b[0]) and np.array_equal(a[1], b[1])


def test_pool_independent_of_block_size(monkeypatch):
    # the forked pool against the in-process path: one-row blocks, blocks of
    # three rows with a short last one, and blocks of seven and eight rows,
    # whose edges carry prime-power marks
    monkeypatch.setattr(counting, "_TASK_POOLS", 1)
    assert any(n % 7 in (0, 1) for n in counting._prime_power_marks(60, 40))
    assert any(n % 8 in (0, 1) for n in counting._prime_power_marks(35, 35))
    want = survey(60, 40, workers=1)
    grid = membership_grid(35, 35, workers=1)
    for cells in (1, 3 * 40 + 1, 7 * 40):
        monkeypatch.setattr(counting, "_BLOCK_CELLS", cells)
        assert survey(60, 40, workers=2) == want, cells
        got = membership_grid(35, 35, workers=2)
        assert all(np.array_equal(a, b) for a, b in zip(got, grid)), cells


def test_pool_sized_to_blocks(monkeypatch):
    # one block runs in-process; three blocks take three workers, not eight
    sizes = []
    real = concurrent.futures.ProcessPoolExecutor

    def sized(workers, **kw):
        sizes.append(workers)
        return real(workers, **kw)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", sized)
    want = survey(12, 12, workers=1)
    assert survey(12, 12, workers=8) == want
    assert sizes == []
    monkeypatch.setattr(counting, "_BLOCK_CELLS", 4 * 12)
    assert survey(12, 12, workers=8) == want
    assert sizes == [3]


def test_pool_tasks_span_several_pool_fulls(monkeypatch):
    # a task holds _TASK_POOLS pool-fulls of rows, or fewer where that
    # leaves two tasks a worker, and never less than a pool-full
    tasks = []

    class Recording(concurrent.futures.ProcessPoolExecutor):
        def map(self, fn, blocks, **kw):
            tasks.extend(map(len, blocks))
            return super().map(fn, blocks, **kw)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", Recording)
    want = survey(60, 40)
    for cells, workers, sizes in ((40, 2, [8] * 7 + [4]), (40, 8, [4] * 15),
                                  (7 * 40, 8, [7] * 8 + [4])):
        monkeypatch.setattr(counting, "_BLOCK_CELLS", cells)
        tasks.clear()
        assert survey(60, 40, workers=workers) == want
        assert tasks == sizes, (cells, workers)


_REAL_ROW_KERNEL = counting._row_kernel


def _slow_first_block(log, ctx, ns):
    # stands in for the pool's block function: the first block sleeps, so
    # later blocks finish first; each block appends its first row to log
    if ns.start == 1:
        time.sleep(0.5)
    rows = _REAL_ROW_KERNEL(ctx, ns)
    with open(log, "a") as fh:
        fh.write(f"{ns.start}\n")
    return rows


def test_pool_rows_in_order_when_blocks_finish_out_of_order(tmp_path, monkeypatch):
    # blocks of three rows; the first finishes last, and the runs still come
    # out in ascending first_n, equal to the in-process run
    monkeypatch.setattr(counting, "_BLOCK_CELLS", 3 * 20)
    monkeypatch.setattr(counting, "_TASK_POOLS", 1)
    spi, spp = membership_grid(30, 20, workers=1)
    log = tmp_path / "finished"
    monkeypatch.setattr(counting, "_row_kernel", functools.partial(_slow_first_block, str(log)))
    runs = list(counting._member_rows(30, 20, workers=2))
    assert [first for first, _, _ in runs] == list(range(1, 31, 3))
    for first, rows_pi, rows_pp in runs:
        assert np.array_equal(rows_pi, spi[first:first + 3]), first
        assert np.array_equal(rows_pp, spp[first:first + 3]), first
    finished = log.read_text().split()
    assert sorted(map(int, finished)) == list(range(1, 31, 3))
    assert finished[-1] == "1"


def _predicate_rows(ns, K):
    # the per-shape predicate: scalar is_prime over each window in ascending l
    rows = np.zeros((len(ns), K + 1), dtype=bool)
    for i, n in enumerate(ns):
        for k in range(1, K + 1):
            rows[i, k] = smallest_prime_witness(GroupShape(n, k)) is not None
    return rows


def test_kernel_matches_per_shape_predicate():
    # full kernel rows against the per-shape predicate, on rows with n < sqrt(K)
    # and n >> sqrt(K), K = 1 and row 1, whose cell (1, 1) holds v = 0 at l = -2
    rng = random.Random(7)
    rects = [(1, 1), (1, 40), (40, 1), (2000, 1), (3000, 4), (8000, 16),
             (30, 2000), (5, 10000), (600, 1500)]
    # candidates on both sides of 2^32, where the squarings leave uint64, and
    # of 4,759,123,141, where the (2, 7, 61) tier ends
    rects += [(2000, 1200), (1900, 1300)]
    rects += [(rng.randint(1, 400), rng.randint(1, 400)) for _ in range(6)]
    for N, K in rects:
        ctx = counting._SieveContext(N, K)
        ns = sorted({1, N, *rng.sample(range(1, N + 1), min(N, 12))})
        got = counting._row_kernel(ctx, ns)
        assert np.array_equal(got, _predicate_rows(ns, K)), (N, K)
        assert not got[:, 0].any()


def test_sieve_masks_match_trial_division():
    # each mask bit against the value at its offset: set where the value
    # exceeds 61 and has a factor up to 61, or where the offset is past the
    # window; a block whose least value is at most 61 is not sieved: cells
    # (1, 77), (2, 19) and (5, 3) start at 61 itself. Every block starts
    # inside its window
    rng = random.Random(11)
    n = np.array([1, 2, 3, 5, 6, 30030, 61 * 59, 2 ** 20, 1, 2, 5,
                  *(rng.randrange(1, 10 ** 6) for _ in range(40))])
    k = np.array([1, 1, 2, 1, 1, 3, 7, 5, 77, 19, 3, *(rng.randrange(1, 10 ** 4) for _ in range(40))])
    w = np.array([math.isqrt(4 * x) for x in k.tolist()])
    for b in (-w, np.minimum(-w + 64, w), np.minimum(-w + 17, w), w - 3):
        mask = counting._sieve_masks(n, k * n + b, w - b)
        for j in range(n.size):
            least = int(n[j] * (k[j] * n[j] + b[j]) + 1)
            for i in range(64):
                ell = int(b[j]) + i
                v = int(n[j] * (k[j] * n[j] + ell) + 1)
                want = ell > w[j] or (least > 61 and any(v % r == 0 for r in arith._SMALL_PRIMES))
                assert bool(mask[j] >> np.uint64(i) & np.uint64(1)) == want, (n[j], k[j], ell)


def _kernel_rows_checked(ctx, ns):
    # _kernel_rows over ns, drawn lazily: its prefixes must be contiguous, in
    # order and cover each row once, and the rows drawn but not yet yielded
    # must stay within the pool's bound, whatever the length of ns: each
    # round tests one offset of every live cell, a block's move included, so
    # a cell lives at most one round per offset of its window
    K = ctx.ks.size
    rounds = 2 * math.isqrt(4 * int(ctx.ks[-1])) + 1
    bound = (rounds + 1) * max(1, counting._BLOCK_CELLS // K)
    drawn = []

    def draw():
        for n in ns:
            drawn.append(n)
            yield n

    parts = [np.zeros((0, K + 1), dtype=bool)]
    done = 0
    for first, rows in counting._kernel_rows(ctx, draw()):
        assert first == done and len(rows) > 0
        assert len(drawn) - first <= bound, (len(drawn), first, bound)
        parts.append(rows.copy())
        done += len(rows)
    assert done == len(drawn) == len(ns)
    return np.concatenate(parts)


def test_kernel_rows_match_predicate(monkeypatch):
    # non-consecutive, unsorted and empty row lists; a pool of one cell, so
    # that one row is admitted at a time, and a pool narrower than a row
    cases = [(40, [1, 5, 6, 13, 40, 2]), (100, [7, 3, 90]), (40, []), (1, [1, 2, 3, 200])]
    # rows at K = 40 whose candidates, k n^2 for k = 1..40, straddle each
    # tier bound of arith._MR_TIERS from 4,759,123,141 up, BATCH_BOUND among
    # them, where the batch hands on to the scalar test, and reach 1.15 10^18
    bounds = [bound for bound, _ in arith._MR_TIERS[2:-1]]
    ns = [math.isqrt(bound // 20) for bound in bounds] + [math.isqrt(115 * 10 ** 16 // 40)]
    assert all(n * n < bound < 40 * n * n for n, bound in zip(ns, bounds))
    assert arith.BATCH_BOUND in bounds and 40 * ns[-1] ** 2 > 10 ** 18
    cases.append((40, ns))
    # the sieve masks' edges: windows holding a value up to 61, which is then
    # its own witness (rows n <= 8, and cell (1, 1), whose window starts at
    # v = 0); rows divisible by each prime up to 61, which then never
    # divides v; cells whose first prime lies past their first 64 offsets;
    # and prime-free cells whose windows span three blocks
    late = {(13, 614): 71, (59, 628): 90, (61, 491): 73}
    free = [(673, 1062), (823, 1048), (857, 1034)]
    for (n, k), index in late.items():
        q = smallest_prime_witness(GroupShape(n, k))
        assert (q - 1 - k * n * n) // n + math.isqrt(4 * k) == index >= 64
    for n, k in free:
        assert math.isqrt(4 * k) >= 64 and smallest_prime_witness(GroupShape(n, k)) is None
    # row 29267 at K = 2 has every value of both windows sieved out, so its
    # cells are done on admission, alone or among other rows
    cases += [(2, [29267]), (2, [4, 29267, 7]),
              (12, list(range(1, 9))),
              (60, [*arith._SMALL_PRIMES, 30030, 2 * 3 * 5 * 7 * 11 * 13 * 17 * 19 * 23]),
              (628, [13, 59, 61]), (1062, [673, 823, 857])]
    for cells in (None, 1, 37):
        if cells is not None:
            monkeypatch.setattr(counting, "_BLOCK_CELLS", cells)
        for K, ns in cases:
            got = _kernel_rows_checked(counting._SieveContext(max(ns, default=1), K), ns)
            assert np.array_equal(got, _predicate_rows(ns, K)), (cells, K, ns)
            assert np.array_equal(got, counting._row_kernel(counting._SieveContext(1, K), ns))


def test_kernel_column_sets_match_predicate(monkeypatch):
    # a context over chosen columns holds column ks[j - 1] at position j:
    # lone columns and columns whose k exceeds their count, windows of one
    # block and of several, prime-free cells and late first primes, and row
    # 29267, whose k = 1 and k = 2 windows are sieved out on admission
    cases = [([7], list(range(1, 60))), ([1000], [1, 2, 3, 673]),
             ([2, 614, 628, 1062], [13, 59, 61, 673, 823, 857]),
             ([1], [29267]), ([2], [4, 29267, 7])]
    for cells in (None, 1, 37):
        if cells is not None:
            monkeypatch.setattr(counting, "_BLOCK_CELLS", cells)
        for ks, ns in cases:
            ctx = counting._SieveContext(max(ns), ks[-1], ks=ks)
            got = _kernel_rows_checked(ctx, ns)
            assert np.array_equal(got, _predicate_rows(ns, ks[-1])[:, [0, *ks]]), (cells, ks)


def test_kernel_rows_hold_a_bounded_window(monkeypatch):
    # a pool of three rows of 40 cells over 300 rows: the rows held stay
    # within (25 + 1) * 3 however many rows there are
    monkeypatch.setattr(counting, "_BLOCK_CELLS", 3 * 40)
    ns = list(range(1, 301))
    got = _kernel_rows_checked(counting._SieveContext(300, 40), ns)
    assert np.array_equal(got, _predicate_rows(ns, 40))


def test_sieve_row_matches_membership_grid():
    # the single-row entry point that row-cost measurements time
    for N, K, ns in ((1, 1, (1,)), (30, 40, (1, 7, 30)), (12, 300, (2, 12))):
        spi, _ = membership_grid(N, K)
        ctx = counting._SieveContext(N, K)
        for n in ns:
            assert np.array_equal(counting._sieve_row(ctx, n), spi[n]), (N, K, n)


def test_survey_independent_of_block_size(monkeypatch):
    # runs of one row, of three rows, and of seven rows with a short last run
    want = survey(60, 40)
    for cells in (1, 3 * 40 + 1, 7 * 40):
        monkeypatch.setattr(counting, "_BLOCK_CELLS", cells)
        assert survey(60, 40) == want, cells


def _base2_survivors(v):
    # what a kernel trusting the base-2 test would take for prime: the small
    # primes themselves, and values above 61 with no factor up to 61 that
    # pass the base-2 strong test
    small = np.isin(v, arith._SMALL_PRIMES)
    rough = v > arith._SMALL_PRIMES[-1]
    for p in arith._SMALL_PRIMES:
        rough &= v % p != 0
    out = small | rough
    out[rough] = arith._sprp(v[rough], 2)
    return out


def test_kernel_passes_over_base2_pseudoprimes(monkeypatch):
    # cells whose first base-2 strong probable prime, in ascending l, is a
    # composite: the kernel must reject it and certify the cell's next one.
    # In the lone cells that pseudoprime is the window's only survivor and no
    # prime follows, so a kernel trusting the base-2 test would admit them.
    K = 100
    lone = {(255, 1): 65281, (323, 1): 104653, (324, 1): 104653, (151, 55): 1252697}
    W = np.array([math.isqrt(4 * k) for k in range(1, K + 1)])
    ell = np.arange(-W[-1], W[-1] + 1)
    traps = {}
    for n in [*range(1, 81), 151, 255, 323, 324]:
        v = np.arange(1, K + 1)[:, None] * n * n + ell * n + 1
        v[np.abs(ell) > W[:, None]] = 0
        maybe = _base2_survivors(v)
        for k in np.flatnonzero(maybe.any(axis=1)).tolist():
            first = int(v[k, maybe[k].argmax()])
            if not arith.is_prime(first):
                traps[n, k + 1] = first
    assert len(traps) >= 3
    assert lone.items() <= traps.items()
    rejected = set()
    sprp = arith._sprp

    def watched(values, a):
        out = sprp(values, a)
        if a != 2:
            rejected.update(values[~out].tolist())
        return out

    monkeypatch.setattr(arith, "_sprp", watched)
    ns = sorted({n for n, _ in traps})
    rows = counting._row_kernel(counting._SieveContext(ns[-1], K), ns)
    assert np.array_equal(rows, _predicate_rows(ns, K))
    assert not any(rows[ns.index(n), k] for n, k in lone)
    assert set(traps.values()) <= rejected


def _dense_prime_power_marks(N, K):
    # the former implementation: every prime power against every n <= N
    vmax = arith.candidate_bound(N, K)
    L = math.isqrt(4 * K)
    pps = []
    for p in arith.primes_in_range(2, max(2, math.isqrt(vmax))).tolist():
        q, j = p * p, 2
        while q <= vmax:
            pps.append((q, p, j))
            q *= p
            j += 1
    marks = {}
    nvec = np.arange(1, N + 1, dtype=np.int64)
    Q = np.array([e[0] for e in pps], dtype=np.int64)
    for lo in range(0, len(pps), 256):
        qi, ni = np.nonzero((Q[lo:lo + 256, None] - 1) % nvec[None, :] == 0)
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


def test_prime_power_marks_match_dense():
    for N, K in ((1, 1), (60, 40), (300, 300), (8000, 16), (1500, 1500),
                 (2000, 50), (50, 3000), (1, 3000), (3000, 1)):
        assert counting._prime_power_marks(N, K) == _dense_prime_power_marks(N, K), (N, K)


def test_prime_power_marks_call_predicate_only_when_undecided(monkeypatch):
    # realizability.hits_realizable decides a trace a prime to p
    # (OrdinaryCoprime) and a = +-2 p^(j/2) (FullSquareTrace) in bulk for
    # each of its callers: the marks, the n sets and the high-degree search.
    # Only the rest, with p | a and a^2 != 4q, may reach the per-shape
    # predicate
    calls = []

    def record(q, shape, _decomp=None):
        calls.append((q, shape, _decomp))
        return shape_realizable_over(q, shape, _decomp=_decomp)

    monkeypatch.setattr(realizability, "shape_realizable_over", record)
    runs = [functools.partial(counting._prime_power_marks, N, K)
            for N, K in ((60, 40), (1500, 1500))]
    runs += [functools.partial(special_sets.realizable_n_set, m, k, 300)
             for m, k in ((2, 7), (3, 7), (4, 19))]
    runs += [functools.partial(special_sets.high_degree_search, k) for k in (7, 11)]
    for run in runs:
        calls.clear()
        run()
        assert calls, run
        for q, shape, (p, j) in calls:
            assert p ** j == q
            a = q + 1 - shape.k * shape.n ** 2
            assert a % p == 0 and a * a != 4 * q, (run, q, shape)


def test_unit_square_roots_match_brute_force():
    N = 2000
    count, roots = counting._unit_square_roots(N)
    ends = np.cumsum(count)
    assert count[0] == 0 and ends[-1] == roots.size
    for n in range(1, N + 1):
        want = [r for r in range(n) if (r * r - 1) % n == 0]
        assert sorted(roots[ends[n - 1]:ends[n]].tolist()) == want, n


def dying_row_kernel(ctx, ns):
    # stands in for the pool's block function; its worker dies on row 7
    if 7 in ns:
        os.kill(os.getpid(), signal.SIGKILL)
    return _REAL_ROW_KERNEL(ctx, ns)


def _alarm(signum, frame):
    raise TimeoutError("the survey hung after its worker died")


def test_dead_worker_raises(monkeypatch):
    # blocks of three rows, so that the survey takes the pool
    monkeypatch.setattr(counting, "_BLOCK_CELLS", 3 * 20)
    monkeypatch.setattr(counting, "_TASK_POOLS", 1)
    monkeypatch.setattr(counting, "_row_kernel", dying_row_kernel)
    old = signal.signal(signal.SIGALRM, _alarm)
    signal.alarm(60)
    try:
        with pytest.raises(BrokenProcessPool):
            survey(30, 20, workers=2)
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, old)


def test_workers_ignores_environment(monkeypatch):
    # no environment variable sets the worker count
    monkeypatch.setenv("ECG_WORKERS", "abc")
    grid = survey(25, 25)
    assert (grid.count_S_pi, grid.count_S_Pi) == (604, 608)
    assert [(s.n, s.k) for s in grid.missed] == MISSED_25


def test_workers_checked_on_finished_checkpoint(tmp_path):
    path = str(tmp_path / "ck.json")
    f_series(40, resume=path)
    with pytest.raises(ValueError):
        f_series(40, workers=0, resume=path)


def test_np_sums_frozen():
    assert witness_prime_sum_direct(1, 1) == 2
    assert witness_prime_sum_direct(2, 1) == 5
    assert witness_prime_sum_progression(1, 1) == 2
    assert witness_prime_sum_progression(2, 1) == 5


def test_np_identity_on_grid():
    direct = witness_prime_sum_direct_grid(40, 40)
    prog = witness_prime_sum_progression_grid(40, 40)
    assert np.array_equal(direct, prog)
    assert direct[40, 40] == witness_prime_sum_direct(40, 40)
    assert prog[17, 23] == witness_prime_sum_progression(17, 23)
    assert direct[1, 1] == 2


def test_progression_sieves_once(monkeypatch):
    want = witness_prime_sum_direct_grid(6, 30)
    calls = []
    sieve = arith.primes_in_range

    def counted(lo, hi, *args):
        calls.append(hi)
        return sieve(lo, hi, *args)

    monkeypatch.setattr(arith, "primes_in_range", counted)
    assert witness_prime_sum_progression(6, 30) == want[6, 30]
    assert calls == [arith.candidate_bound(6, 30)]
    assert np.array_equal(witness_prime_sum_progression_grid(6, 30), want)
    assert len(calls) == 2


def test_np_direct_reference():
    def ref_prime(v):
        if v < 2:
            return False
        return all(v % d for d in range(2, math.isqrt(v) + 1))

    want = 0
    for n in range(1, 4):
        for k in range(1, 8):
            w = math.isqrt(4 * k)
            want += sum(1 for ell in range(-w, w + 1)
                        if ref_prime(k * n * n + ell * n + 1))
    assert witness_prime_sum_direct(3, 7) == want


def test_asymptotic_ratio_formula():
    total = witness_prime_sum_progression(5, 50)
    want = total * math.log(50 * 25) / (50 ** 1.5 * 5)
    assert asymptotic_ratio(5, 50) == pytest.approx(want, rel=0, abs=0)


def test_asymptotic_ratio_magnitude():
    # pins the measured normalization at a mid-size argument; the value
    # drifts down toward 420 zeta(3)/pi^4 ~ 5.18 as K grows
    assert 5.0 < asymptotic_ratio(10, 10 ** 4) < 6.5


def test_overflow_guards():
    big = 1 << 21
    with pytest.raises(OverflowError):
        survey(big, big)
    with pytest.raises(OverflowError):
        witness_prime_sum_direct(big, big)
    with pytest.raises(OverflowError):
        f_series(1 << 32)


def test_bad_arguments():
    with pytest.raises(ValueError):
        survey(0, 5)
    with pytest.raises(ValueError):
        f_series(10, step=0)
    with pytest.raises(ValueError):
        survey(5, 5, workers=0)


def test_column_one_density_decreases():
    counts = {}
    hits = 0
    for n in range(1, 10001):
        if smallest_prime_power_witness(GroupShape(n, 1)) is not None:
            hits += 1
        if n in (1000, 10000):
            counts[n] = hits
    assert counts[1000] / 1000 > counts[10000] / 10000


@settings(max_examples=12, deadline=None)
@given(st.integers(1, 12), st.integers(1, 12))
def test_survey_random_rectangles(N, K):
    grid = survey(N, K)
    spi = 0
    spp = 0
    missed = []
    for n in range(1, N + 1):
        for k in range(1, K + 1):
            shape = GroupShape(n, k)
            if smallest_prime_witness(shape) is not None:
                spi += 1
            if smallest_prime_power_witness(shape) is not None:
                spp += 1
            else:
                missed.append(shape)
    assert (grid.count_S_pi, grid.count_S_Pi) == (spi, spp)
    assert grid.missed == missed


@settings(max_examples=10, deadline=None)
@given(st.integers(1, 10), st.integers(1, 10))
def test_np_identity_random(N, K):
    assert witness_prime_sum_direct(N, K) == witness_prime_sum_progression(N, K)
