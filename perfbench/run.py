#!/usr/bin/env python3
"""Benchmark of the ecgroups package: four workloads, end to end and per layer.

Run from the root of a checkout; the package is imported from ./src:

    python3 perfbench/run.py --workload WORKLOAD --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all [--save FILE]

Workloads, and why each was chosen:

  fcurve   `ecgroups fcurve --dmax 1500 --step 10 --resume <fresh file>`, one
           process. A square rectangle of 2.25 M cells whose time goes to the
           row sieve's strided clears, plus prime-power marks, the missed-list
           bookkeeping and the final checkpoint write. It is the serial
           baseline for the long-form `fcurve --dmax 37550`.
  tall     `ecgroups missed --nmax 8000 --kmax 16 --workers 2`. Few windows
           per row, so a row costs its Python loop over ~3,400 base primes,
           not array clears. The only workload that runs the worker pool and
           its row-order merge; the 2048 x 8000 prime-power block sets its
           peak RSS; the CLI renders a 39,795-pair payload.
  oracle   `ecgroups oracle --qmax 80`. All of curve_oracle and none of the
           survey. The bound stops below q = 81, which alone takes over a
           minute.
  queries  closed loop, one client, one process: blocks of 6000 seeded
           library calls mirroring the single-answer subcommands (scalar
           arith, realizability, special_sets, heuristics), in the mix of
           runner.BLOCK_MIX. It calls the library, not cli.main, because
           rebuilding the argparse parser would hide the sub-millisecond
           `check` latency.

Only queries uses --seed; the other three are fixed inputs, because the
input's shape is what each one tests.

End-to-end metrics (--trace 0), each over the runs that fit in --seconds:

  wall_s       fcurve/tall/oracle: median run, from process spawn to exit;
               queries: median time of one 6000-request block of the loop
  cpu_s        user+sys of the whole process tree, pool workers included
               (queries: of the one process, per block)
  peak_rss_mb  largest RSS of any process in the tree
  setup_s      median of 9 fresh interpreters reaching `import ecgroups.cli`,
               started in three rounds spread over the run; queries also
               counts the first heuristics.zeta3() call
  cells_per_s  fcurve/tall: N*K / wall_s; oracle: shapes decided (every
               (n, k) with k*n^2 in the Hasse window of a q <= 80) / wall_s;
               queries: the same as rps
  rps          requests completed per second; a CLI run is one request
  p50_ms       median request latency (a CLI run's wall time there)
  p99_ms       nearest-rank 99th percentile, i.e. the slowest of fewer than
               100 CLI runs

The result line's `attempted` and `failed` count payload checks (one per
CLI run, one per query request, one per recorded digest); fail_frac =
failed / attempted is printed above it. A failure is a non-zero exit or a
payload that fails its check. Checks run after the timed region.

--trace 1 runs the workload twice untraced and twice under
perfbench/tracer.py (one 6000-request block each on queries), requires
byte-identical payloads, and prints the per-layer metrics of the first
traced run plus trace.overhead_s (median traced minus median untraced
wall). On fcurve it also takes the informational readings: the C10 ratio
ladder, which must repeat exactly, and the projected cost of
`fcurve --dmax 37550`.

--workload all runs every workload with --trace 0 and then 1; with
--save perfbench/trajectory/BENCH_<commit>.json it records a trajectory
point: the machine block, every metric and the readings.

The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import importlib.metadata
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
HERE = os.path.join(ROOT, "perfbench")
RUNNER = os.path.join(HERE, "runner.py")
WORK = os.path.join(HERE, "_work")

WORKLOADS = ("fcurve", "tall", "oracle", "queries")
DEFAULT_SEED = 1
SETUP_PROBES = 3          # per probing round; a run makes three rounds
ORACLE_QMAX = 80

# Answers recorded from the seed commit; a change that alters any payload
# byte fails its check.
EXPECTED = {
    "fcurve_sha256": "ad99d7fb6f84add3a220cae8bbee6fa9486a1a7986640a200d9697ee15dfb44b",
    "tall_sha256": "0d95af0a3c98d6dcea92947f7c56da76d3aa0a1eed2a3e3a6ae976d622a49a0f",
    "oracle_sha256": "6cfa3a5cdf8b5d5b00c626b900c99aed84c121e1fda7863ca7ac4c4f14167376",
    "queries_seed1_block_sha256": (
        "2e55f282c94e056a0df2b1af9c69c39118aa52c3cf569f1b2eb4cfed3a835c92",
        "a8bc0c6836464b8ad948b3516357505bda2eaf6f5face7ee1fc9c9851fa7b7b2",
        "e35cda1805464615cdcb9761cfa4120177c794fcd39e17fa99cc57e094291c39",
        "e3a2be296ae728aedaa6aecd5be03e12589f316550ad593daaf51243cd5f3693",
    ),
    "c10": {"c10_ratio_25_1e3": 6.112009350757709,
            "c10_ratio_25_1e4": 5.8946074720898105},
}

END_TO_END = {"wall_s": "s", "cpu_s": "s", "peak_rss_mb": "MB", "setup_s": "s",
              "cells_per_s": "1/s", "rps": "1/s", "p50_ms": "ms", "p99_ms": "ms"}

QUERY_KINDS = ("check", "primes", "sets", "witness", "n2k", "kk", "npsum", "constants")

PER_LAYER = (
    "cli.parse_s", "cli.render_s", "cli.payload_bytes",
    "counting.context_s", "counting.pp_marks_s", "counting.pp_marks_found",
    "counting.rows", "counting.row_s", "counting.row_wait_s",
    "counting.checkpoint_s", "counting.checkpoint_bytes", "counting.missed_pairs",
    "arith.is_prime_calls", "arith.is_prime_s",
    "arith.prime_power_decompose_calls", "arith.prime_power_decompose_s",
    "arith.primes_in_range_calls", "arith.primes_in_range_s", "arith.primes_in_range_span",
    "arith.legendre_symbol_calls",
    "realizability.realizable_over_calls", "realizability.hit_ratio",
    "realizability.decompose_per_check",
) + tuple("queries.%s_p50_ms" % k for k in QUERY_KINDS) + (
    "special_sets.high_degree_search_s", "heuristics.bateman_horn_C_s", "heuristics.zeta3_s",
    "curve_oracle.fields", "curve_oracle.build_field_s", "curve_oracle.tables_s",
    "curve_oracle.curves", "curve_oracle.classes_forced", "curve_oracle.classes_resolved",
    "curve_oracle.lanes_resolved", "curve_oracle.resolve_s", "curve_oracle.count_s",
    "trace.overhead_s",
)

# Untraced and traced runs in ABBA order, so that a steady drift of the
# machine's speed cancels out of trace.overhead_s.
TRACE_ORDER = (False, True, True, False)

READY = "import time, ecgroups.cli; print(time.monotonic())"
READY_WARM = ("import time, ecgroups.cli, ecgroups.heuristics as h; h.zeta3(); "
              "print(time.monotonic())")


def unit_of(name):
    if name in END_TO_END:
        return END_TO_END[name]
    for suffix, unit in (("_s", "s"), ("_ms", "ms"), ("_bytes", "bytes"), ("_ratio", "ratio")):
        if name.endswith(suffix):
            return unit
    return "count"


def child_env():
    env = dict(os.environ)
    env.pop("ECG_WORKERS", None)        # fcurve and oracle run with the default 1 worker
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


# ---------------------------------------------------------------------------
# processes
# ---------------------------------------------------------------------------

class Proc:
    """One finished child: stdout, exit code, wall, and its tree's rusage."""

    def __init__(self, argv):
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=subprocess.PIPE, env=child_env(), cwd=ROOT)
        with proc.stdout:
            self.out = proc.stdout.read()
        # wait4 reports the child plus every descendant it reaped, which
        # covers the pool workers: CPU is summed, max RSS is the largest.
        _, status, ru = os.wait4(proc.pid, 0)
        self.wall = time.perf_counter() - t0
        self.rc = proc.returncode = os.waitstatus_to_exitcode(status)
        self.cpu = ru.ru_utime + ru.ru_stime
        self.rss_mb = ru.ru_maxrss / 1024.0


def python(*args):
    return Proc([sys.executable] + list(args))


def nearest_rank(sorted_values, pct):
    return sorted_values[math.ceil(pct / 100 * len(sorted_values)) - 1]


def probe_setup(code, times):
    """Append SETUP_PROBES fresh-interpreter times to ready (monotonic clock)."""
    for _ in range(SETUP_PROBES):
        t0 = time.monotonic()
        p = python("-c", code)
        if p.rc != 0:
            raise RuntimeError("a fresh interpreter could not import ecgroups")
        times.append(float(p.out) - t0)


def machine_block():
    caches = {}
    base = "/sys/devices/system/cpu/cpu0/cache"
    for idx in sorted(os.listdir(base)) if os.path.isdir(base) else ():
        try:
            with open(os.path.join(base, idx, "level")) as fh:
                level = fh.read().strip()
            with open(os.path.join(base, idx, "type")) as fh:
                kind = fh.read().strip()
            with open(os.path.join(base, idx, "size")) as fh:
                caches["L%s%s" % (level, {"Data": "d", "Instruction": "i"}.get(kind, ""))] = \
                    fh.read().strip()
        except OSError:
            continue
    mem_kb = None
    try:
        with open("/proc/meminfo") as fh:
            mem_kb = int(next(line for line in fh if line.startswith("MemTotal")).split()[1])
    except (OSError, StopIteration, ValueError):
        pass
    try:
        numpy_version = importlib.metadata.version("numpy")
    except importlib.metadata.PackageNotFoundError:
        numpy_version = None
    commit = None
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            commit = subprocess.run(["git", "-C", ROOT, "rev-parse", "--short", "HEAD"],
                                    capture_output=True, text=True, check=True).stdout.strip()
        except (OSError, subprocess.CalledProcessError):
            pass
    digest = hashlib.sha256()
    for dirpath, dirnames, filenames in sorted(os.walk(os.path.join(SRC, "ecgroups"))):
        dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
        for fname in sorted(f for f in filenames if f.endswith(".py")):
            with open(os.path.join(dirpath, fname), "rb") as fh:
                digest.update(fname.encode() + b"\0" + fh.read())
    return {"nproc": os.cpu_count(), "caches": caches,
            "mem_total_mb": mem_kb // 1024 if mem_kb else None,
            "python": platform.python_version(), "numpy": numpy_version,
            "commit": commit, "src_sha256": digest.hexdigest()[:16]}


# ---------------------------------------------------------------------------
# payload checks
# ---------------------------------------------------------------------------

def sha256(data):
    return hashlib.sha256(data).hexdigest()


def _failures(*pairs):
    return [msg for ok, msg in pairs if not ok]


def check_fcurve(payload, checkpoint):
    doc = json.loads(payload)
    ck = json.loads(checkpoint)
    f = dict(map(tuple, doc["series"]))
    tops = [max(n, k) for n, k in ck["missed"]]
    return _failures(
        (f.get(1500) == 14950, "f(1500) = %r, expected 14950" % f.get(1500)),
        (sum(t <= 25 for t in tops) == 17, "f(25) from the checkpoint is not 17"),
        (ck["rows_done"] == 1500 and len(tops) == 14950, "checkpoint is incomplete"),
        (sha256(payload) == EXPECTED["fcurve_sha256"], "payload sha256 %s" % sha256(payload)),
    )


def check_tall(payload, _):
    doc = json.loads(payload)
    return _failures(
        (doc["count_s_pi"] == 87014, "count_s_pi = %r" % doc["count_s_pi"]),
        (doc["count_s_Pi"] == 88205, "count_s_Pi = %r" % doc["count_s_Pi"]),
        (len(doc["missed"]) == 39795, "%d missed pairs" % len(doc["missed"])),
        (sha256(payload) == EXPECTED["tall_sha256"], "payload sha256 %s" % sha256(payload)),
    )


@functools.lru_cache(maxsize=None)
def predicted_atlas():
    """{q: sorted [[n, k], ...]} from the closed-form predicate, q <= ORACLE_QMAX."""
    sys.path.insert(0, SRC)
    from ecgroups.arith import prime_power_decompose
    from ecgroups.curve_oracle import predicted_shapes
    return {q: sorted([s.n, s.k] for s in predicted_shapes(q))
            for q in range(2, ORACLE_QMAX + 1) if prime_power_decompose(q)}


def check_oracle(payload, _):
    atlas = {e["q"]: e["shapes"] for e in json.loads(payload)["atlas"]}
    want = predicted_atlas()
    return _failures(
        (sorted(atlas) == sorted(want), "atlas covers q = %s" % sorted(atlas)),
        (all(atlas.get(q) == s for q, s in want.items()),
         "atlas differs from predicted_shapes at q = %s"
         % [q for q, s in want.items() if atlas.get(q) != s]),
        (sha256(payload) == EXPECTED["oracle_sha256"], "payload sha256 %s" % sha256(payload)),
    )


def _is_prime_power(q):
    p = next(d for d in range(2, q + 1) if q % d == 0)
    while q % p == 0:
        q //= p
    return q == 1


def oracle_cells(qmax):
    """Shapes (n, k) the atlas decides: k n^2 in the Hasse window of q <= qmax."""
    total = 0
    for q in range(2, qmax + 1):
        if _is_prime_power(q):
            w = math.isqrt(4 * q)
            for N in range(q + 1 - w, q + 2 + w):
                total += sum(1 for n in range(1, math.isqrt(N) + 1) if N % (n * n) == 0)
    return total


CLI = {
    "fcurve": (["fcurve", "--dmax", "1500", "--step", "10", "--resume"], check_fcurve,
               1500 * 1500),
    "tall": (["missed", "--nmax", "8000", "--kmax", "16", "--workers", "2"], check_tall,
             8000 * 16),
    "oracle": (["oracle", "--qmax", str(ORACLE_QMAX)], check_oracle, oracle_cells(ORACLE_QMAX)),
}


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------

class Outcome:
    def __init__(self):
        self.metrics = {}
        self.attempted = 0
        self.failed = 0
        self.notes = []
        self.readings = None

    def check(self, what, problems):
        self.attempted += 1
        if problems:
            self.failed += 1
            self.notes.append("FAILED %s: %s" % (what, "; ".join(problems)))


def cli_run(name, work, traced=False):
    """One CLI run in a fresh directory.

    Returns (Proc, checkpoint bytes, problems, per-layer readings or None).
    """
    argv, check, _ = CLI[name]
    os.makedirs(work)
    try:
        checkpoint = os.path.join(work, "checkpoint.json")
        if name == "fcurve":
            argv = argv + [checkpoint]
        layers_path = os.path.join(work, "layers.json")
        if traced:
            p = python(RUNNER, "cli-trace", layers_path, *argv)
        else:
            p = python("-m", "ecgroups.cli", *argv)
        extra = b""
        if os.path.exists(checkpoint):
            with open(checkpoint, "rb") as fh:
                extra = fh.read()
        layers = None
        if p.rc != 0:
            problems = ["exit code %d" % p.rc]
        else:
            try:
                problems = check(p.out, extra)
            except (ValueError, KeyError, TypeError) as exc:
                problems = ["unreadable payload: %r" % exc]
            if traced:
                with open(layers_path) as fh:
                    layers = json.load(fh)
        return p, extra, problems, layers
    finally:
        shutil.rmtree(work, ignore_errors=True)


def run_cli(name, seconds, trace, work):
    res = Outcome()
    if trace:
        walls, reference = {False: [], True: []}, None
        for i, traced in enumerate(TRACE_ORDER):
            p, extra, problems, layers = cli_run(name, os.path.join(work, "t%d" % i), traced)
            if reference is None:
                reference = (p.out, extra)
            elif not problems and (p.out, extra) != reference:
                problems = ["payload differs from the first untraced run"]
            res.check("%s run %d" % ("traced" if traced else "untraced", i), problems)
            walls[traced].append(p.wall)
            if layers and not res.metrics:
                res.metrics = layers
        res.metrics["trace.overhead_s"] = statistics.median(walls[True]) - \
            statistics.median(walls[False])
        res.notes.append("untraced %s s, traced %s s" % tuple(
            ", ".join("%.3f" % w for w in walls[t]) for t in (False, True)))
        return res

    # Setup probes are taken in rounds spread over the run, so that one slow
    # spell of the machine cannot move all of them.
    setup = []
    probe_setup(READY, setup)
    runs = []
    while not runs or sum(r.wall for r in runs) * (1 + 1 / len(runs)) <= seconds:
        p, _, problems, _ = cli_run(name, os.path.join(work, "run%d" % len(runs)))
        res.check("run %d" % len(runs), problems)
        runs.append(p)
        if len(runs) == 1:
            probe_setup(READY, setup)
    probe_setup(READY, setup)
    walls = sorted(r.wall for r in runs)
    wall = statistics.median(walls)
    res.metrics = {
        "wall_s": wall,
        "cpu_s": statistics.median(r.cpu for r in runs),
        "peak_rss_mb": statistics.median(r.rss_mb for r in runs),
        "setup_s": statistics.median(setup),
        "cells_per_s": CLI[name][2] / wall,
        "rps": len(runs) / sum(walls),
        "p50_ms": wall * 1e3,
        "p99_ms": nearest_rank(walls, 99) * 1e3,
    }
    res.notes.append("%d runs, wall %s s" % (len(runs), ", ".join("%.3f" % w for w in walls)))
    return res


def queries_run(seed, seconds, blocks, trace):
    p = python(RUNNER, "queries", str(seed), repr(seconds), str(blocks), str(int(trace)))
    if p.rc != 0:
        raise RuntimeError("the queries runner exited with code %d" % p.rc)
    return p, json.loads(p.out)


def _queries_checks(res, out, seed):
    res.attempted += len(out["lat_ns"])
    res.failed += out["failed"]
    res.notes.extend("FAILED request %s" % e for e in out["errors"])
    if seed == DEFAULT_SEED:
        for b, (got, want) in enumerate(zip(out["digests"],
                                            EXPECTED["queries_seed1_block_sha256"])):
            res.check("block %d digest" % b, [] if got == want else ["digest %s" % got])


def run_queries(seed, seconds, trace):
    res = Outcome()
    if trace:
        blocks, traced_out, reference = {False: [], True: []}, None, None
        for traced in TRACE_ORDER:
            _, out = queries_run(seed, seconds, 1, traced)
            _queries_checks(res, out, seed)
            if reference is None:
                reference = out["digests"]
            else:
                res.check("digest", [] if out["digests"] == reference
                          else ["responses differ from the first untraced run"])
            blocks[traced].append(out["block_s"][0])
            traced_out = traced_out or (out if traced else None)
        res.metrics = dict(traced_out["layers"])
        by_kind = {k: [] for k in QUERY_KINDS}
        for kind, ns in zip(traced_out["kinds"], traced_out["lat_ns"]):
            by_kind[kind].append(ns / 1e6)
        for kind, lat in by_kind.items():
            res.metrics["queries.%s_p50_ms" % kind] = statistics.median(lat)
        res.metrics["realizability.decompose_per_check"] = \
            traced_out["decompose_in_checks"] / len(by_kind["check"])
        res.metrics["trace.overhead_s"] = statistics.median(blocks[True]) - \
            statistics.median(blocks[False])
        res.notes.append("untraced blocks %s s, traced blocks %s s" % tuple(
            ", ".join("%.3f" % b for b in blocks[t]) for t in (False, True)))
        return res

    setup = []
    probe_setup(READY_WARM, setup)
    probe_setup(READY_WARM, setup)
    p, out = queries_run(seed, seconds, 10 ** 6, False)
    probe_setup(READY_WARM, setup)
    _queries_checks(res, out, seed)
    lat = sorted(ns / 1e6 for ns in out["lat_ns"])
    rps = len(lat) / sum(out["block_s"])
    res.metrics = {
        "wall_s": statistics.median(out["block_s"]),
        "cpu_s": statistics.median(out["block_cpu_s"]), "peak_rss_mb": p.rss_mb,
        "setup_s": statistics.median(setup),
        "cells_per_s": rps, "rps": rps,
        "p50_ms": statistics.median(lat), "p99_ms": nearest_rank(lat, 99),
    }
    res.notes.append("%d requests, blocks of 6000 in %s s"
                     % (len(lat), ", ".join("%.3f" % b for b in out["block_s"])))
    return res


def take_readings(res):
    """C10 ratio ladder (must repeat exactly) and the long-form projection."""
    c10 = python(RUNNER, "c10")
    proj = python(RUNNER, "projection")
    if c10.rc != 0 or proj.rc != 0:
        res.check("readings", ["a readings process failed"])
        return
    ladder = json.loads(c10.out)
    res.check("C10 ladder", [] if ladder == EXPECTED["c10"]
              else ["ratio ladder %r did not repeat" % ladder])
    projection = json.loads(proj.out)
    projection["peak_rss_mb"] = proj.rss_mb
    res.readings = {"c10": ladder, "projection": projection}


def run_workload(name, seed, seconds, trace, work):
    if name == "queries":
        res = run_queries(seed, seconds, trace)
    else:
        res = run_cli(name, seconds, trace, work)
    if trace:
        res.metrics = {k: res.metrics.get(k, 0) for k in PER_LAYER}
        if name == "fcurve":
            take_readings(res)
    return res


# ---------------------------------------------------------------------------
# output
# ---------------------------------------------------------------------------

def print_outcome(name, res):
    print("== %s" % name)
    for note in res.notes:
        print("   %s" % note)
    for key, value in res.metrics.items():
        print("   %-40s %r %s" % (key, value, unit_of(key)))
    print("   %-40s %r ratio (%d of %d checks)" % (
        "fail_frac", res.failed / max(1, res.attempted), res.failed, res.attempted))
    if res.readings:
        print("   readings %s" % json.dumps(res.readings, sort_keys=True))


def result_line(metrics, attempted, failed):
    return json.dumps({"correct": failed == 0, "attempted": max(1, attempted), "failed": failed,
                       "metrics": {k: {"value": v, "unit": unit_of(k.split("/")[-1])}
                                   for k, v in metrics.items()}})


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--save", default=None,
                    help="with --workload all: write the results as a trajectory point")
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "ecgroups", "cli.py")):
        print("error: no ecgroups package under %s; run from the root of a checkout" % SRC,
              file=sys.stderr)
        return 2

    work = os.path.join(WORK, str(os.getpid()))
    try:
        machine = machine_block()
        print("machine %s" % json.dumps(machine, sort_keys=True))
        if args.workload != "all":
            res = run_workload(args.workload, args.seed, args.seconds, args.trace, work)
            print_outcome(args.workload, res)
            print(result_line(res.metrics, res.attempted, res.failed))
            return 0
        doc = {"machine": machine, "seed": args.seed, "seconds": args.seconds,
               "workloads": {}}
        merged, attempted, failed = {}, 0, 0
        for name in WORKLOADS:
            entry = {"attempted": 0, "failed": 0}
            for trace in (0, 1):
                res = run_workload(name, args.seed, args.seconds, trace, work)
                print_outcome("%s --trace %d" % (name, trace), res)
                key = "per_layer" if trace else "end_to_end"
                entry[key] = {k: {"value": v, "unit": unit_of(k)} for k, v in res.metrics.items()}
                entry["attempted"] += res.attempted
                entry["failed"] += res.failed
                if res.readings:
                    doc["readings"] = res.readings
                if not trace:
                    merged.update({"%s/%s" % (name, k): v for k, v in res.metrics.items()})
            entry["fail_frac"] = entry["failed"] / max(1, entry["attempted"])
            attempted += entry["attempted"]
            failed += entry["failed"]
            doc["workloads"][name] = entry
        if args.save:
            with open(args.save, "w") as fh:
                json.dump(doc, fh, indent=1, sort_keys=True)
                fh.write("\n")
        print(result_line(merged, attempted, failed))
        return 0
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            os.rmdir(WORK)
        except OSError:
            pass                        # another run is still using it


if __name__ == "__main__":
    sys.exit(main())
