"""Command-line surface over the library.

Every subcommand prints one machine-readable payload: JSON by default,
CSV with --format csv (headerless unless --header). List-like results
have a natural CSV row shape; object-like results flatten to key,value
rows. Exit codes: 0 for computed answers including negative membership,
1 when a survey's worker process died, 2 for usage errors, 3 for overflow
or bound violations.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from concurrent.futures import BrokenExecutor

from . import arith, counting, curve_oracle, heuristics, special_sets
from .curve_oracle import BoundError
from .realizability import (GroupShape, smallest_prime_power_witness,
                            smallest_prime_witness, square_witness_primes,
                            witness_primes)

EXIT_OK = 0
EXIT_WORKER = 1
EXIT_USAGE = 2
EXIT_BOUND = 3


def _build_parser():
    top = argparse.ArgumentParser(prog="ecgroups",
                                  description="group shapes of elliptic curves "
                                              "over finite fields")
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--format", choices=("json", "csv"), default="json")
    common.add_argument("--workers", type=int, default=1,
                        help="worker processes (default: 1)")
    common.add_argument("--out", default=None, help="write the payload to a file")
    common.add_argument("--header", action="store_true",
                        help="prepend a header row in CSV mode")
    sub = top.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", parents=[common],
                       help="single-shape membership with witnesses")
    p.add_argument("n", type=int)
    p.add_argument("k", type=int)

    p = sub.add_parser("missed", parents=[common], help="missed pairs in a rectangle")
    p.add_argument("--nmax", type=int, required=True)
    p.add_argument("--kmax", type=int, required=True)

    p = sub.add_parser("fcurve", parents=[common], help="missed-pair growth series")
    p.add_argument("--dmax", type=int, required=True)
    p.add_argument("--step", type=int, default=1)
    p.add_argument("--resume", default=None, help="checkpoint file")

    p = sub.add_parser("grid", parents=[common], help="per-cell membership grid")
    p.add_argument("--nmax", type=int, required=True)
    p.add_argument("--kmax", type=int, required=True)
    p.add_argument("--heuristic", action="store_true",
                   help="append the model probability per cell")

    p = sub.add_parser("npsum", parents=[common], help="witness-prime double sum")
    p.add_argument("--nmax", type=int, required=True)
    p.add_argument("--kmax", type=int, required=True)
    p.add_argument("--method", choices=("direct", "progression", "both"),
                   default="both")

    p = sub.add_parser("primes", parents=[common], help="witness primes of one shape")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--tilde", action="store_true",
                   help="primes whose square is a candidate value")

    p = sub.add_parser("sets", parents=[common], help="fixed-degree index sets")
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--tmax", type=int, required=True)
    p.add_argument("--tilde", action="store_true", help="candidate set instead")

    p = sub.add_parser("n2k", parents=[common], help="degree-2 classification and gap")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--tmax", type=int, required=True)

    p = sub.add_parser("kk", parents=[common], help="high-degree witnesses for k >= 2")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--mmax", type=int, default=special_sets.DEFAULT_DEGREE_MAX)
    p.add_argument("--qmax", type=int, default=special_sets.DEFAULT_Q_MAX)

    p = sub.add_parser("nm1", parents=[common], help="square shapes at fixed degree")
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--tmax", type=int, required=True)

    p = sub.add_parser("adam", parents=[common],
                       help="square shapes needing a proper prime power")
    p.add_argument("--tmax", type=int, required=True)

    p = sub.add_parser("witness", parents=[common],
                       help="identity witness at fixed degree")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--m", type=int, required=True)

    p = sub.add_parser("dioph", parents=[common], help="power values of the quadratics")
    p.add_argument("--form", required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--xmax", type=int, required=True)

    p = sub.add_parser("oracle", parents=[common], help="brute-force atlas per field")
    p.add_argument("--qmax", type=int, required=True)

    p = sub.add_parser("constants", parents=[common], help="the model's constants")
    p.add_argument("--euler-product-bound", type=int, default=None, metavar="P")

    p = sub.add_parser("plot", parents=[common], help="gnuplot script for a CSV")
    p.add_argument("--csv", required=True)
    p.add_argument("--kind", choices=("f-curve", "grid-3d"), required=True)

    return top


def _witness_dict(w):
    if w is None:
        return None
    return {"q": w.q, "p": w.p, "m": w.m, "ell": w.ell,
            "trace": w.trace, "case": w.case.value}


def _cell(v):
    if v is None:
        return ""
    if isinstance(v, float):
        return repr(v)
    return str(v)


def _flatten(obj, prefix=""):
    rows = []
    for key, val in obj.items():
        name = prefix + key
        if isinstance(val, dict):
            rows.extend(_flatten(val, name + "."))
        elif isinstance(val, (list, tuple)):
            rows.append((name, " ".join(_cell(x) for x in val)))
        else:
            rows.append((name, _cell(val)))
    return rows


def _run_check(args):
    shape = GroupShape(args.n, args.k)
    obj = {"n": args.n, "k": args.k,
           "s_pi": smallest_prime_witness(shape),
           "s_Pi": _witness_dict(smallest_prime_power_witness(shape))}
    return obj, None, None


def _run_missed(args):
    grid = counting.survey(args.nmax, args.kmax, workers=args.workers)
    obj = {"nmax": args.nmax, "kmax": args.kmax,
           "count_s_pi": grid.count_S_pi, "count_s_Pi": grid.count_S_Pi,
           "missed": [[s.n, s.k] for s in grid.missed]}
    return obj, ((s.n, s.k) for s in grid.missed), ("n", "k")


def _run_fcurve(args):
    series = counting.f_series(args.dmax, step=args.step, workers=args.workers,
                               resume=args.resume)
    rows = [(pt.D, pt.f) for pt in series]
    obj = {"dmax": args.dmax, "step": args.step,
           "series": [[pt.D, pt.f] for pt in series]}
    return obj, rows, ("D", "f")


# Peak bytes per cell of a grid run, its row tuples and rendered payload, measured
# from 1000^2 to 1500^2 rectangles: 157 for JSON and 218 for CSV, 87 and 121 more
# with the heuristic column.
_GRID_CELL_BYTES = {"json": 160, "csv": 220}
_HEURISTIC_CELL_BYTES = 120


def _run_grid(args):
    per_cell = _GRID_CELL_BYTES[args.format] + (_HEURISTIC_CELL_BYTES if args.heuristic else 0)
    counting._require_memory(per_cell * args.nmax * args.kmax, "the grid payload")
    spi, spp = counting.membership_grid(args.nmax, args.kmax, workers=args.workers)
    cells = None
    if args.heuristic:
        _, cells = heuristics.b_grid(args.nmax, args.kmax)
    rows = []
    for n in range(1, args.nmax + 1):
        for k in range(1, args.kmax + 1):
            row = [n, k, int(spi[n, k]), int(spp[n, k])]
            if cells is not None:
                row.append(float(cells[n, k]))
            rows.append(tuple(row))
    header = ("n", "k", "in_s_pi", "in_s_Pi") + (("vartheta",) if cells is not None else ())
    obj = {"nmax": args.nmax, "kmax": args.kmax, "rows": rows}
    return obj, rows, header


def _run_npsum(args):
    obj = {"N": args.nmax, "K": args.kmax}
    if args.method in ("direct", "both"):
        obj["direct"] = counting.witness_prime_sum_direct(args.nmax, args.kmax)
    if args.method in ("progression", "both"):
        obj["progression"] = counting.witness_prime_sum_progression(args.nmax, args.kmax)
    return obj, None, None


# Peak bytes per prime listed by primes without --tilde, over the peak of a
# run listing four: 84-139 for JSON and 146-148 for CSV, measured at 5 10^4
# to 2.8 10^5 primes (--n 1 --k 10^12 and 4 10^12, --n 7 --k 10^11).
_PRIME_LIST_BYTES = {"json": 150, "csv": 160}


def _run_primes(args):
    shape = GroupShape(args.n, args.k)
    if args.tilde:
        ps = square_witness_primes(shape)
    else:
        # the window's values are 1 mod n on an interval of y integers, which
        # holds fewer than 2y / (phi(n) log(y/n)) such primes (Montgomery and
        # Vaughan, Mathematika 20, 1973); y/n > 2 isqrt(4k) >= 4. The range
        # guard comes first, keeping n below 2^32 for euler_phi's trial division
        arith.candidate_bound(args.n, args.k)
        y = 2 * math.isqrt(4 * args.k) * args.n + 1
        bound = 2 * y / (arith.euler_phi(args.n) * math.log(y / args.n))
        counting._require_memory(int(_PRIME_LIST_BYTES[args.format] * bound),
                                 "the witness-prime list")
        ps = witness_primes(shape)
    obj = {"n": args.n, "k": args.k, "tilde": bool(args.tilde), "primes": ps}
    return obj, ((p,) for p in ps), ("p",)


# Peak bytes of a degree m >= 2 scan per prime and per entry as estimated
# below, from 3 10^6 to 3 10^7 rows: 19-28 a prime (sets --m 2 --k 2). An
# entry, as the peak over that of sets --m 2 --k 2 at the same rows, takes
# 50-62 for JSON and 79-124 for CSV (sets, nm1 --m 2 --k 1) and 34-60 for
# n2k --k 1, rising with the rows; CSV rows are built only for CSV. A degree-1
# scan, the cell kernel included, peaks at 69 and 133 bytes a row for
# sets --m 1 --k 1000 at 10^6 rows, nearly all of them entries, and at 23 and
# 35 for nm1 --m 1 at 3 10^6 rows.
_SCAN_PRIME_BYTES = 30
_SCAN_ENTRY_BYTES = {"json": 80, "csv": 180}

# Peak bytes per row of adam, most of them the square roots of 1 mod n that
# the prime-power marks of counting.membership_grid gather: 466 and 371 at
# 10^6 and 3 10^6 rows, in either format.
_ADAM_ROW_BYTES = 450


def _require_scan_memory(args, m, k):
    """OverflowError up front when the degree-m scan for cofactor k would not
    fit: the primes up to the m-th root of the largest candidate, and the n.

    At degree 1 the cell kernel holds a bounded pool, no primes are listed
    and every n may be an entry. At degree m >= 2 a scan finds at most three
    n a prime, and at most tmax. For k = h^2 a degree-2 scan finds about two,
    n = (p -+ 1)/h. For any other k its n solve the Pell-type
    X^2 - 4k p^2 = l^2 - 4k, X = 2kn + l, and are few (18 for k = 2 up to
    3 10^7), so only the primes are counted.
    """
    vmax = arith.candidate_bound(args.tmax, k)
    if m < 2:
        primes, entries = 0, args.tmax
    else:
        # pi(x) < 1.25506 x / ln x for x > 1 (Rosser and Schoenfeld 1962)
        x = max(2, arith.iroot(vmax, m))
        primes = 1.25506 * x / math.log(x)
        entries = min(args.tmax, 3 * primes) if math.isqrt(k) ** 2 == k else 0
    counting._require_memory(
        int(_SCAN_PRIME_BYTES * primes + _SCAN_ENTRY_BYTES[args.format] * entries),
        "the n-set scan")


def _run_sets(args):
    _require_scan_memory(args, args.m, args.k)
    fn = special_sets.candidate_n_set if args.tilde else special_sets.realizable_n_set
    ns = fn(args.m, args.k, args.tmax)
    obj = {"m": args.m, "k": args.k, "tmax": args.tmax,
           "tilde": bool(args.tilde), "n_set": ns}
    return obj, ((n,) for n in ns), ("n",)


def _run_n2k(args):
    cls = special_sets.degree_two_classify(args.k)
    _require_scan_memory(args, 2, args.k)
    pred = special_sets.degree_two_predicted_gap(args.k, args.tmax)
    gap = special_sets.degree_two_gap(args.k, args.tmax)
    obj = {"k": args.k, "tmax": args.tmax, "tag": cls.tag.value,
           "p": cls.p, "sign": cls.sign, "h": cls.h,
           "predicted": pred, "gap": gap}
    return obj, ((n,) for n in gap), ("n",)


def _run_kk(args):
    entries = special_sets.high_degree_search(args.k, m_max=args.mmax,
                                              q_max=args.qmax)
    obj = {"k": args.k, "m_max": args.mmax, "q_max": args.qmax,
           "n_set": sorted({e.n for e in entries}),
           "entries": [{"n": e.n, "p": e.p, "m": e.m, "ell": e.ell}
                       for e in entries]}
    return obj, [(e.n, e.p, e.m, e.ell) for e in entries], ("n", "p", "m", "ell")


def _run_nm1(args):
    _require_scan_memory(args, args.m, 1)
    ns = special_sets.balanced_n_set(args.m, args.tmax)
    obj = {"m": args.m, "tmax": args.tmax, "n_set": ns}
    return obj, ((n,) for n in ns), ("n",)


def _run_adam(args):
    counting._require_memory(_ADAM_ROW_BYTES * args.tmax, "the n-set scan")
    members, sufficient = special_sets.balanced_prime_power_only(args.tmax)
    suff = set(sufficient)
    obj = {"tmax": args.tmax, "members": members, "sufficient": sufficient}
    return obj, [(n, int(n in suff)) for n in members], ("n", "sufficient")


def _run_witness(args):
    w = special_sets.fixed_degree_witness(args.n, args.m)
    obj = {"n": args.n, "m": args.m, "p": w.p, "d": w.d, "k": w.k, "ell": w.ell}
    return obj, None, None


# Peak bytes per row of a dioph --m 1 run, whose 2 x_max + 1 rows are all
# solutions: 289 for JSON and 370 for CSV measured at x_max = 10^6, with room
# for the wider numbers near the 2^63 scan bound.
_DIOPH_ROW_BYTES = {"json": 320, "csv": 400}


def _run_dioph(args):
    if args.m == 1:
        counting._require_memory(_DIOPH_ROW_BYTES[args.format] * (2 * args.xmax + 1),
                                 "the dioph payload")
    sols = special_sets.diophantine_solutions(args.form, args.m, args.xmax)
    obj = {"form": args.form, "m": args.m, "x_max": args.xmax,
           "solutions": [list(s) for s in sols]}
    return obj, sols, ("x", "y")


def _run_oracle(args):
    if args.qmax < 2:
        raise ValueError("qmax must be at least 2")
    if args.qmax > curve_oracle.MAX_ORACLE_BOUND:
        raise BoundError("qmax %d exceeds the oracle limit %d"
                         % (args.qmax, curve_oracle.MAX_ORACLE_BOUND))
    entries = []
    rows = []
    for q in range(2, args.qmax + 1):
        if arith.prime_power_decompose(q) is None:
            continue
        entry = curve_oracle.atlas(q)
        entries.append(entry)
        rows.extend((q, n, k) for n, k in entry["shapes"])
    obj = {"q_max": args.qmax, "atlas": entries}
    return obj, rows, ("q", "n", "k")


def _run_constants(args):
    c = heuristics.constants(P=args.euler_product_bound)
    obj = {"theta": c.theta, "main": c.main}
    if c.C_truncated is not None:
        t = c.C_truncated
        obj["C"] = {"bound": t.bound, "value": t.value,
                    "tenth_bound": t.tenth_bound, "tenth_value": t.tenth_value}
    return obj, None, None


_F_CURVE_TEMPLATE = """\
set datafile separator ','
set terminal pngcairo size 900,600
set output 'f_curve.png'
set xlabel 'D'
set ylabel 'f(D)'
set key left top
plot '{path}' using 1:2 with lines lw 2 lc rgb '#205080' title 'missed pairs up to D'
"""

_GRID_3D_TEMPLATE = """\
set datafile separator ','
set datafile missing ''
set terminal pngcairo size 900,700
set output 'grid_surface.png'
set xlabel 'n'
set ylabel 'k'
set view 60, 40
set palette rgbformulae 33,13,10
splot '{path}' using 1:2:{col} with points pt 7 ps 0.4 palette notitle
"""


def emit_plot_script(series, kind):
    """Self-contained gnuplot text for a CSV produced by this package.

    f-curve expects two columns (D, f); grid-3d expects at least three
    and plots the last column over (n, k), skipping empty cells.
    """
    with open(series) as fh:
        first = None
        for line in fh:
            line = line.strip()
            if line:
                first = line
                break
    if first is None:
        raise ValueError("CSV %s has no data rows" % series)
    ncols = first.count(",") + 1
    if kind == "f-curve":
        if ncols < 2:
            raise ValueError("f-curve needs two columns, found %d" % ncols)
        return _F_CURVE_TEMPLATE.format(path=series)
    if ncols < 3:
        raise ValueError("grid-3d needs at least three columns, found %d" % ncols)
    return _GRID_3D_TEMPLATE.format(path=series, col=ncols)


_HANDLERS = {
    "check": _run_check,
    "missed": _run_missed,
    "fcurve": _run_fcurve,
    "grid": _run_grid,
    "npsum": _run_npsum,
    "primes": _run_primes,
    "sets": _run_sets,
    "n2k": _run_n2k,
    "kk": _run_kk,
    "nm1": _run_nm1,
    "adam": _run_adam,
    "witness": _run_witness,
    "dioph": _run_dioph,
    "oracle": _run_oracle,
    "constants": _run_constants,
}


def _render(args, obj, rows, header):
    if args.format == "json":
        return json.dumps(obj) + "\n"
    if rows is None:
        rows = _flatten(obj)
        header = ("key", "value")
    lines = []
    if args.header and header:
        lines.append(",".join(header))
    lines.extend(",".join(_cell(v) for v in row) for row in rows)
    return "\n".join(lines) + "\n" if lines else ""


def _emit(args, text):
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def main(argv=None):
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_USAGE
    try:
        if args.command == "plot":
            text = emit_plot_script(args.csv, args.kind)
        else:
            obj, rows, header = _HANDLERS[args.command](args)
            text = _render(args, obj, rows, header)
        _emit(args, text)
    except (OverflowError, BoundError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return EXIT_BOUND
    except BrokenExecutor as exc:
        print("error: %s" % exc, file=sys.stderr)
        return EXIT_WORKER
    except (ValueError, OSError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return EXIT_USAGE
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
