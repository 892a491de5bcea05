#!/usr/bin/env python3
"""Build the figure inputs: CSV data plus self-contained gnuplot scripts.

Figure 1: the missed-pair growth curve f(D). Figure 2/3 inputs: the
per-corner table with observed misses F, expected weight B, and their
ratio beta over a square grid (beta is empty where B vanishes, and the
generated scripts skip those cells). Run gnuplot on the .gp files to
render PNGs.
"""

import argparse
import pathlib
import sys

from ecgroups import cli, counting, heuristics


def write_f_curve(outdir, dmax, step, workers):
    path = outdir / "f_curve.csv"
    ckpt = outdir / ("f_curve_%d_%d.ckpt.json" % (dmax, step))
    series = counting.f_series(dmax, step=step, workers=workers,
                               resume=str(ckpt))
    with open(path, "w") as fh:
        fh.write("D,f\n")
        for pt in series:
            fh.write("%d,%d\n" % (pt.D, pt.f))
    script = cli.emit_plot_script(str(path), "f-curve")
    (outdir / "f_curve.gp").write_text(script)
    print("wrote", path, "and f_curve.gp")


def write_beta_grid(outdir, size):
    path = outdir / "beta_grid.csv"
    table = heuristics.beta_grid(size, size)
    with open(path, "w") as fh:
        fh.write("n,k,F,B,beta\n")
        for row in table:
            beta = "" if row.beta is None else repr(row.beta)
            fh.write("%d,%d,%d,%s,%s\n" % (row.n, row.k, row.misses,
                                           repr(row.weight), beta))
    script = cli.emit_plot_script(str(path), "grid-3d")
    (outdir / "beta_grid.gp").write_text(script)
    print("wrote", path, "and beta_grid.gp")


def write_vartheta_grid(outdir, size):
    path = outdir / "vartheta_grid.csv"
    _, cells = heuristics.b_grid(size, size)
    with open(path, "w") as fh:
        fh.write("n,k,vartheta\n")
        for n in range(1, size + 1):
            for k in range(1, size + 1):
                fh.write("%d,%d,%s\n" % (n, k, repr(float(cells[n, k]))))
    script = cli.emit_plot_script(str(path), "grid-3d")
    (outdir / "vartheta_grid.gp").write_text(script)
    print("wrote", path, "and vartheta_grid.gp")


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--outdir", default="results/figures")
    ap.add_argument("--dmax", type=int, default=2000,
                    help="f-curve reach; the long-form curve uses 37550")
    ap.add_argument("--step", type=int, default=10)
    ap.add_argument("--grid", type=int, default=200,
                    help="side length of the square beta/vartheta grids")
    ap.add_argument("--workers", type=int, default=1)
    args = ap.parse_args()
    outdir = pathlib.Path(args.outdir)
    outdir.mkdir(parents=True, exist_ok=True)

    write_f_curve(outdir, args.dmax, args.step, args.workers)
    write_beta_grid(outdir, args.grid)
    write_vartheta_grid(outdir, args.grid)
    return 0


if __name__ == "__main__":
    sys.exit(main())
