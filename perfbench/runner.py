"""Child-process side of the ecgroups benchmark.

`run.py` starts this script in a fresh interpreter with the package's
`src` directory on PYTHONPATH, so that the parent can read each child's
CPU time and peak RSS from `wait4`. Modes:

    runner.py cli-trace LAYERS_JSON ARG...   cli.main(ARGS) with the tracer
                                             installed; the payload goes to
                                             stdout as usual, the per-layer
                                             readings to LAYERS_JSON
    runner.py queries SEED SECONDS BLOCKS TRACE
                                             the closed-loop request stream;
                                             prints one JSON result
    runner.py c10                            the C10 ratio ladder
    runner.py projection                     per-row costs of fcurve --dmax 37550
"""

from __future__ import annotations

import hashlib
import json
import math
import random
import sys
import time

import tracer
from ecgroups import cli, counting, heuristics, realizability, special_sets

BLOCK_MIX = (("check", 3600), ("primes", 900), ("sets", 600), ("witness", 300),
             ("n2k", 240), ("kk", 180), ("npsum", 120), ("constants", 60))
BLOCK = sum(count for _, count in BLOCK_MIX)


# ---------------------------------------------------------------------------
# the request stream
# ---------------------------------------------------------------------------

def _strata(rng, count):
    """count uniforms in [0, 1), one per stratum [i/count, (i+1)/count), shuffled.

    Stratifying every parameter (pairs of them jointly, by _grid) keeps the
    block's total cost, and so rps and p99, nearly independent of the seed
    while each request stays random.
    """
    u = [(i + rng.random()) / count for i in range(count)]
    rng.shuffle(u)
    return u


def _grid(rng, count):
    """count points of [0, 1)^2, one per cell of an a x b grid (a b = count), shuffled.

    A request's cost can grow with two arguments at once (npsum's grows
    about as N K^1.5), so the pair is stratified jointly: stratifying each
    column alone still lets a seed pair many large N with large K.
    """
    a = max(d for d in range(1, math.isqrt(count) + 1) if count % d == 0)
    b = count // a
    cells = [((i + rng.random()) / a, (j + rng.random()) / b)
             for i in range(a) for j in range(b)]
    rng.shuffle(cells)
    return cells


def _log_int(u, lo, hi):
    """Log-uniform integer in [lo, hi] for u in [0, 1)."""
    return min(hi, int(math.exp(math.log(lo) + u * (math.log(hi + 1) - math.log(lo)))))


def _lin_int(u, lo, hi):
    return lo + int(u * (hi - lo + 1))


def _kind_args(rng, kind, count):
    """Arguments of `count` requests of one kind, in stratified random order."""
    def col(draw, *bounds):
        return [draw(u, *bounds) for u in _strata(rng, count)]

    def pair(draw_u, bounds_u, draw_v, bounds_v):
        cells = _grid(rng, count)
        return ([draw_u(u, *bounds_u) for u, _ in cells],
                [draw_v(v, *bounds_v) for _, v in cells])

    if kind in ("check", "primes"):
        cols = list(pair(_log_int, (1, 10 ** 6), _log_int, (1, 10 ** 4)))
        if kind == "primes":
            cols.append(col(_lin_int, 0, 1))            # square_witness_primes if 1
    elif kind == "sets":
        cols = [col(_lin_int, 1, 4), *pair(_log_int, (1, 100), _log_int, (1, 1000))]
    elif kind == "witness":
        cols = list(pair(_log_int, (1, 10 ** 6), _lin_int, (1, 8)))
    elif kind == "n2k":
        cols = list(pair(_log_int, (1, 10 ** 4), _log_int, (1, 1000)))
    elif kind == "kk":
        cols = [col(_lin_int, 2, 40)]
    elif kind == "npsum":
        cols = list(pair(_log_int, (1, 30), _log_int, (1, 300)))
    else:
        cols = [col(_log_int, 3, 10 ** 5)]
    return list(zip(*cols))


def make_block(seed, block):
    """The block-th BLOCK requests of the stream for `seed`, shuffled."""
    rng = random.Random("ecgroups-queries:%d:%d" % (seed, block))
    reqs = [(kind, args) for kind, count in BLOCK_MIX
            for args in _kind_args(rng, kind, count)]
    rng.shuffle(reqs)
    return reqs


def execute(kind, a):
    """One library call mirroring a single-answer subcommand.

    Every call goes through a module attribute, so a traced run sees it.
    """
    R, S, C, H = realizability, special_sets, counting, heuristics
    if kind == "check":
        shape = R.GroupShape(*a)
        return R.smallest_prime_witness(shape), R.smallest_prime_power_witness(shape)
    if kind == "primes":
        shape = R.GroupShape(a[0], a[1])
        return R.square_witness_primes(shape) if a[2] else R.witness_primes(shape)
    if kind == "sets":
        return S.realizable_n_set(*a)
    if kind == "witness":
        return S.fixed_degree_witness(*a)
    if kind == "n2k":
        return S.degree_two_classify(a[0]), S.degree_two_predicted_gap(*a)
    if kind == "kk":
        return S.high_degree_search(a[0])
    if kind == "npsum":
        return C.witness_prime_sum_direct(*a), C.witness_prime_sum_progression(*a)
    return H.constants(a[0])


def check_response(kind, resp):
    """Raise if a response fails the checks that need no recorded answer."""
    if kind == "check":
        s_pi, w = resp
        if w is not None:
            w.revalidate()
        if s_pi is not None and (w is None or w.q > s_pi):
            raise AssertionError("a prime witness %d but prime-power witness %r" % (s_pi, w))
    elif kind == "npsum" and resp[0] != resp[1]:
        raise AssertionError("direct sum %d != progression sum %d" % resp)


def run_queries(seed, seconds, max_blocks, trace):
    tr = None
    if trace:
        tr = tracer.Tracer()
        tracer.install(tr)
    heuristics.zeta3()                                  # warm the lru_cache, untimed
    kinds, lat_ns, responses = [], [], []
    decompose_in_checks = 0
    block_s, block_cpu_s = [], []
    while len(block_s) < max_blocks:
        reqs = make_block(seed, len(block_s))
        c_block = time.process_time()
        t_block = time.perf_counter()
        for kind, args in reqs:
            before = tr.calls["arith.prime_power_decompose"] if tr else 0
            t0 = time.perf_counter_ns()
            try:
                resp = execute(kind, args)
            except Exception as exc:              # a failed request is counted, not fatal
                resp = exc
            lat_ns.append(time.perf_counter_ns() - t0)
            if tr and kind == "check":
                decompose_in_checks += tr.calls["arith.prime_power_decompose"] - before
            kinds.append(kind)
            responses.append(resp)
        block_s.append(time.perf_counter() - t_block)
        block_cpu_s.append(time.process_time() - c_block)
        if sum(block_s) * (1 + 1 / len(block_s)) > seconds:
            break

    failed, errors, digests = 0, [], []
    for b in range(len(block_s)):
        h = hashlib.sha256()
        for i in range(b * BLOCK, (b + 1) * BLOCK):
            resp = responses[i]
            try:
                if isinstance(resp, Exception):
                    raise resp
                check_response(kinds[i], resp)
            except Exception as exc:
                failed += 1
                if len(errors) < 5:
                    errors.append("%s %r: %r" % (kinds[i], responses[i], exc))
            h.update(repr(resp).encode() + b"\n")
        digests.append(h.hexdigest())
    out = {"block_s": block_s, "block_cpu_s": block_cpu_s, "kinds": kinds, "lat_ns": lat_ns,
           "failed": failed, "errors": errors, "digests": digests}
    if tr:
        out["layers"] = tracer.layer_metrics(tr)
        out["decompose_in_checks"] = decompose_in_checks
    return out


# ---------------------------------------------------------------------------
# informational readings
# ---------------------------------------------------------------------------

def c10_ladder():
    return {"c10_ratio_25_1e3": counting.asymptotic_ratio(25, 10 ** 3),
            "c10_ratio_25_1e4": counting.asymptotic_ratio(25, 10 ** 4)}


LONG_D = 37550
PROJECTION_ROWS = (1000, 2000, 4000, 8000)
PROJECTION_MARKS = (2000, 5000)


def projection():
    """Project the serial cost of `fcurve --dmax 37550` from measured pieces.

    The sieve context is built at D = 37550 and timed directly. Rows are
    timed at a few n <= 8000 of that context: a row clears a D*n-byte
    array, so its cost is fitted as a + b*n and summed over n <= D. A row
    near n = D would allocate 1.4 GB, which is why no late row is sampled;
    n = 8000 keeps this process near 0.95 GB. Prime-power marks cost about
    (#prime powers) * D, fitted as c * D**e through D = 2000 and 5000.
    """
    t0 = time.perf_counter()
    ctx = counting._SieveContext(LONG_D, LONG_D)
    context_s = time.perf_counter() - t0
    rows = []
    for n in PROJECTION_ROWS:
        t0 = time.perf_counter()
        counting._sieve_row(ctx, n)
        rows.append(time.perf_counter() - t0)
    del ctx
    marks = []
    for d in PROJECTION_MARKS:
        t0 = time.perf_counter()
        counting._prime_power_marks(d, d)
        marks.append(time.perf_counter() - t0)

    k = len(rows)
    mean_n = sum(PROJECTION_ROWS) / k
    mean_t = sum(rows) / k
    b = (sum((n - mean_n) * (t - mean_t) for n, t in zip(PROJECTION_ROWS, rows))
         / sum((n - mean_n) ** 2 for n in PROJECTION_ROWS))
    a = mean_t - b * mean_n
    rows_s = a * LONG_D + b * LONG_D * (LONG_D + 1) / 2
    (d1, d2), (m1, m2) = PROJECTION_MARKS, marks
    e = math.log(m2 / m1) / math.log(d2 / d1)
    marks_s = m2 * (LONG_D / d2) ** e
    return {
        "fcurve_37550_projected_s": context_s + marks_s + rows_s,
        "context_s": context_s,
        "row_samples": {str(n): t for n, t in zip(PROJECTION_ROWS, rows)},
        "row_fit": {"a_s": a, "b_s_per_n": b, "rows_s": rows_s},
        "marks_samples": {str(d): t for d, t in zip(PROJECTION_MARKS, marks)},
        "marks_fit": {"exponent": e, "marks_s": marks_s},
    }


def cli_trace(layers_path, argv):
    tr = tracer.Tracer()
    tracer.install(tr)
    rc = cli.main(argv)
    sys.stdout.flush()
    with open(layers_path, "w") as fh:
        json.dump(tracer.layer_metrics(tr), fh)
    return rc


def main(argv):
    mode = argv[0]
    if mode == "cli-trace":
        return cli_trace(argv[1], argv[2:])
    if mode == "queries":
        seed, seconds, blocks, trace = int(argv[1]), float(argv[2]), int(argv[3]), argv[4] == "1"
        out = run_queries(seed, seconds, blocks, trace)
    elif mode == "c10":
        out = c10_ladder()
    elif mode == "projection":
        out = projection()
    else:
        raise SystemExit("unknown mode %r" % mode)
    json.dump(out, sys.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
