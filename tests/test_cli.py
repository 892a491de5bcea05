"""End-to-end subcommand behavior: payload shapes, exit codes, determinism."""

import hashlib
import json
import os
import pathlib
import resource
import signal
import subprocess
import sys

import pytest

from ecgroups import arith, cli, counting, curve_oracle

MISSED_25 = [
    (11, 1), (11, 14), (13, 6), (13, 25), (15, 4), (19, 7), (19, 10),
    (19, 14), (19, 15), (19, 18), (21, 18), (23, 1), (23, 5), (23, 8),
    (23, 19), (25, 5), (25, 14),
]


def run(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_missed_csv_frozen(capsys):
    code, out = run(capsys, "missed", "--nmax", "25", "--kmax", "25",
                    "--format", "csv")
    assert code == 0
    lines = out.strip().split("\n")
    assert len(lines) == 17
    assert lines[0] == "11,1"
    assert [tuple(map(int, L.split(","))) for L in lines] == MISSED_25


def test_missed_json(capsys):
    code, out = run(capsys, "missed", "--nmax", "25", "--kmax", "25")
    assert code == 0
    obj = json.loads(out)
    assert obj["count_s_pi"] == 604
    assert obj["count_s_Pi"] == 608
    assert [tuple(p) for p in obj["missed"]] == MISSED_25


def test_check_frozen(capsys):
    code, out = run(capsys, "check", "5", "1")
    assert code == 0
    obj = json.loads(out)
    assert obj["s_pi"] == 31
    assert obj["s_Pi"] == {"q": 16, "p": 2, "m": 4, "ell": -2, "trace": -8,
                           "case": "FullSquareTrace"}


def test_check_negative_membership(capsys):
    code, out = run(capsys, "check", "11", "1")
    assert code == 0
    obj = json.loads(out)
    assert obj["s_pi"] is None and obj["s_Pi"] is None


def test_check_csv_flatten(capsys):
    code, out = run(capsys, "check", "5", "1", "--format", "csv", "--header")
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "key,value"
    kv = dict(L.split(",", 1) for L in lines[1:])
    assert kv["s_pi"] == "31"
    assert kv["s_Pi.q"] == "16"


def test_fcurve_csv(capsys):
    code, out = run(capsys, "fcurve", "--dmax", "25", "--step", "1",
                    "--format", "csv")
    assert code == 0
    rows = [tuple(map(int, L.split(","))) for L in out.strip().split("\n")]
    assert len(rows) == 25
    assert rows[-1] == (25, 17)
    assert all(rows[i + 1][1] >= rows[i][1] for i in range(len(rows) - 1))


def test_make_figures_script(tmp_path, capsys):
    root = pathlib.Path(__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    proc = subprocess.run([sys.executable, str(root / "scripts" / "make_figures.py"),
                           "--outdir", str(tmp_path), "--dmax", "30", "--step", "10",
                           "--grid", "8"],
                          env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    for name in ("f_curve", "beta_grid", "vartheta_grid"):
        assert (tmp_path / (name + ".csv")).is_file(), name
        assert (tmp_path / (name + ".gp")).is_file(), name
    code, out = run(capsys, "fcurve", "--dmax", "30", "--step", "10",
                    "--format", "csv", "--header")
    assert code == 0
    assert (tmp_path / "f_curve.csv").read_text() == out


def test_make_tables_script(tmp_path):
    # every table the script lists is written, each with its header line
    root = pathlib.Path(__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    proc = subprocess.run([sys.executable, str(root / "scripts" / "make_tables.py"),
                           "--outdir", str(tmp_path), "--nmax", "10", "--kmax", "10"],
                          env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    headers = {"missed_10x10": "n,k", "prime_power_only": "n,sufficient",
               **{"high_degree_k%d" % k: "n,p,m,ell" for k in (2, 3, 4, 5)},
               **{"balanced_m%d" % m: "n" for m in (1, 2, 3, 4)},
               **{"dioph_%s_cubes" % t: "x,y" for t in ("x2p1", "x2pxp1", "x2mxp1")}}
    written = [line.split(" ", 1)[1] for line in proc.stdout.splitlines()]
    assert sorted(written) == sorted(str(tmp_path / (name + ".csv")) for name in headers)
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(name + ".csv" for name in headers)
    for name, header in headers.items():
        assert (tmp_path / (name + ".csv")).read_text().split("\n")[0] == header, name


def test_fcurve_resume(tmp_path, capsys):
    ck = str(tmp_path / "ck.json")
    code, first = run(capsys, "fcurve", "--dmax", "30", "--step", "5",
                      "--resume", ck, "--format", "csv")
    assert code == 0
    code, second = run(capsys, "fcurve", "--dmax", "30", "--step", "5",
                       "--resume", ck, "--format", "csv")
    assert code == 0
    assert first == second
    code, _ = run(capsys, "fcurve", "--dmax", "35", "--step", "5",
                  "--resume", ck)
    assert code == 2  # checkpoint keyed to a different run


# an fcurve run that checkpoints at every end of a run of finished rows, in
# blocks of about two rows, and SIGKILLs itself at its third checkpoint: just
# after the rename ("written") or with the new file still at its .tmp name
# ("tmp"); "none" runs to the end
_DYING_FCURVE = """\
import os, signal, sys
from ecgroups import cli, counting
counting._CHECKPOINT_SECONDS = 0
counting._BLOCK_CELLS = 80
mode, argv = sys.argv[1], sys.argv[2:]
replace, renames = os.replace, []

def dying_replace(src, dst):
    renames.append(dst)
    if mode == "tmp" and len(renames) == 3:
        os.kill(os.getpid(), signal.SIGKILL)
    replace(src, dst)
    if mode == "written" and len(renames) == 3:
        os.kill(os.getpid(), signal.SIGKILL)

os.replace = dying_replace
sys.exit(cli.main(argv))
"""


def test_fcurve_resumes_after_sigkill(tmp_path):
    # the run itself is killed at its third checkpoint, once after the rename
    # and once before it, leaving a stale .tmp; resuming from the same file
    # gives the stdout and the final checkpoint of an uninterrupted run
    root = pathlib.Path(__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=str(root / "src"))

    def fcurve(mode, ck):
        return subprocess.run([sys.executable, "-c", _DYING_FCURVE, mode, "fcurve",
                               "--dmax", "40", "--step", "5", "--workers", "1",
                               "--resume", str(ck)],
                              env=env, capture_output=True, timeout=120)

    whole = fcurve("none", tmp_path / "whole.json")
    assert whole.returncode == 0, whole.stderr
    for mode in ("written", "tmp"):
        ck = tmp_path / (mode + ".json")
        killed = fcurve(mode, ck)
        assert killed.returncode == -signal.SIGKILL and killed.stdout == b"", mode
        assert 0 < json.loads(ck.read_text())["rows_done"] < 40, mode
        assert pathlib.Path(str(ck) + ".tmp").exists() == (mode == "tmp"), mode
        resumed = fcurve("none", ck)
        assert resumed.returncode == 0, resumed.stderr
        assert resumed.stdout == whole.stdout, mode
        assert ck.read_bytes() == (tmp_path / "whole.json").read_bytes(), mode


def test_fcurve_resume_rejects_bad_checkpoint(tmp_path, capsys):
    # repeated pairs beyond rows_done would give f(30) = 23 instead of 21,
    # and a file without its missed list is not a checkpoint: both exit 2
    ck = tmp_path / "ck.json"
    code, out = run(capsys, "fcurve", "--dmax", "30", "--step", "30", "--format", "csv")
    assert code == 0 and out.splitlines()[-1] == "30,21"
    ck.write_text(json.dumps({"version": 1, "dmax": 30, "step": 30, "rows_done": 3,
                              "missed": [[29, 1], [29, 1]]}))
    code, out = run(capsys, "fcurve", "--dmax", "30", "--step", "30", "--resume", str(ck))
    assert code == 2 and out == ""
    ck.write_text(json.dumps({"version": 1, "dmax": 30, "step": 30, "rows_done": 3}))
    code, out = run(capsys, "fcurve", "--dmax", "30", "--step", "30", "--resume", str(ck))
    assert code == 2 and out == ""


def test_fcurve_resume_unwritable_fails_before_survey(tmp_path, monkeypatch, capsys):
    # a checkpoint path in a missing directory exits 2 before any row is
    # surveyed, not at the first checkpoint after them
    def no_rows(*args, **kwargs):
        raise AssertionError("surveyed rows before checking the checkpoint path")

    monkeypatch.setattr(counting, "_member_rows", no_rows)
    ck = str(tmp_path / "no" / "such" / "ck.json")
    code, out = run(capsys, "fcurve", "--dmax", "600", "--step", "100", "--resume", ck)
    assert code == 2 and out == ""


def test_grid_csv(capsys):
    code, out = run(capsys, "grid", "--nmax", "5", "--kmax", "5",
                    "--format", "csv", "--header")
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "n,k,in_s_pi,in_s_Pi"
    assert len(lines) == 26
    spi, spp = counting.membership_grid(5, 5)
    for line in lines[1:]:
        n, k, a, b = map(int, line.split(","))
        assert a == int(spi[n, k]) and b == int(spp[n, k])


def test_grid_heuristic_column(capsys):
    code, out = run(capsys, "grid", "--nmax", "3", "--kmax", "2",
                    "--format", "csv")
    assert code == 0
    plain = [L.split(",") for L in out.strip().split("\n")]
    code, out = run(capsys, "grid", "--nmax", "3", "--kmax", "2",
                    "--format", "csv", "--heuristic")
    assert code == 0
    rich = [L.split(",") for L in out.strip().split("\n")]
    assert len(rich) == len(plain) == 6
    for row in rich:
        assert len(row) == 5
        assert 0.0 <= float(row[4]) <= 1.0


def test_npsum(capsys):
    code, out = run(capsys, "npsum", "--nmax", "3", "--kmax", "7")
    assert code == 0
    obj = json.loads(out)
    assert obj["direct"] == obj["progression"]
    code, out = run(capsys, "npsum", "--nmax", "2", "--kmax", "1",
                    "--method", "direct")
    obj = json.loads(out)
    assert obj["direct"] == 5
    assert "progression" not in obj


def test_primes(capsys):
    code, out = run(capsys, "primes", "--n", "5", "--k", "1")
    assert json.loads(out)["primes"] == [31]
    code, out = run(capsys, "primes", "--n", "3", "--k", "1", "--tilde")
    assert json.loads(out)["primes"] == [2]


def test_sets(capsys):
    code, out = run(capsys, "sets", "--m", "3", "--k", "237", "--tmax", "10",
                    "--tilde")
    assert 3 in json.loads(out)["n_set"]
    code, out = run(capsys, "sets", "--m", "3", "--k", "237", "--tmax", "10")
    assert 3 not in json.loads(out)["n_set"]


def test_n2k(capsys):
    code, out = run(capsys, "n2k", "--k", "26", "--tmax", "10")
    obj = json.loads(out)
    assert obj["tag"] == "prime-square-plus-one"
    assert obj["p"] == 5
    assert obj["predicted"] == [1]
    assert obj["gap"] == [1]


def test_kk_csv(capsys):
    code, out = run(capsys, "kk", "--k", "2", "--format", "csv")
    assert code == 0
    rows = [tuple(map(int, L.split(","))) for L in out.strip().split("\n")]
    assert rows[0] == (3, 2, 4, -1)
    assert [r[0] for r in rows] == [3, 11, 45, 119, 120]


def test_nm1(capsys):
    code, out = run(capsys, "nm1", "--m", "3", "--tmax", "1000000")
    assert json.loads(out)["n_set"] == [18, 19]


def test_adam(capsys):
    code, out = run(capsys, "adam", "--tmax", "40", "--format", "csv")
    assert code == 0
    rows = dict(tuple(map(int, L.split(","))) for L in out.strip().split("\n"))
    assert rows.get(32) == 1
    assert 8 not in rows
    assert 1 not in rows


# sha256 of degree-1 payloads, recorded before these scans moved onto the
# cell kernel
DEGREE_ONE_PAYLOADS = {
    "adam --tmax 2000":
        "dab48a35b6eba71d309366e0f8eea410b87b160dd816f64025aea90b77631b50",
    "adam --tmax 2000 --format csv":
        "6da119fc4c214599c262d57a44fd8ef052133591749d5771c3811591a18d14d5",
    "nm1 --m 1 --tmax 3000":
        "271d1eb70e657fb6de12c445684f3cd5f4d430dcb97aed9b67c7362b4eb84d5e",
    "nm1 --m 1 --tmax 3000 --format csv":
        "dac48d7318151dbcd4eeab0a8d7b0b05c9f56e9e038bea36521db67f202780a4",
    "sets --m 1 --k 7 --tmax 3000":
        "352fa02174ea80840778df80c36d478cee3ffb74847dc51c2c60a556c25517c4",
    "sets --m 1 --k 7 --tmax 3000 --format csv":
        "f5996adf87488f7c29c683b1a2ff79168191b9335db4ff09d48e4328148e78a5",
}


def test_degree_one_payloads_pinned(capsys):
    for argv, digest in DEGREE_ONE_PAYLOADS.items():
        code, out = run(capsys, *argv.split())
        assert code == 0, argv
        assert hashlib.sha256(out.encode()).hexdigest() == digest, argv


# sha256 of payloads whose scans became closed forms: the square witness
# primes and the k = h^2 predicted gap, recorded on the window and n scans
CLOSED_FORM_PAYLOADS = {
    "n2k --k 4 --tmax 3000":
        "e44fcea4740e15df02656e35770d28223396f66afa7d53d2b4db20ba417648e3",
    "primes --n 30 --k 400 --tilde":
        "433d956dddfaf1efdb0c476f59ba75b653ef18992121bb94792010f8d235b1ca",
    "primes --n 1000 --k 10000 --tilde":
        "39cbdc579ffdcfaf9baa94645074c7ba5f1239146a084a1b1f13b0de825444b3",
}


def test_closed_form_payloads_pinned(capsys):
    for argv, digest in CLOSED_FORM_PAYLOADS.items():
        code, out = run(capsys, *argv.split())
        assert code == 0, argv
        assert hashlib.sha256(out.encode()).hexdigest() == digest, argv


ORACLE_PAYLOADS = {
    "oracle --qmax 128":
        "0fcc92529f3f0579415d6fbcdd485345ff6938272302863c002ab22aa008616e",
    "oracle --qmax 128 --format csv":
        "8cf88b7fb5efbfee6df7ec76bd4cd2b4b07e980ffa93f413afef4dc576d149df",
}


def test_oracle_payloads_pinned(capsys):
    for argv, digest in ORACLE_PAYLOADS.items():
        code, out = run(capsys, *argv.split())
        assert code == 0, argv
        assert hashlib.sha256(out.encode()).hexdigest() == digest, argv


# sha256 of survey payloads, recorded before the missed pairs became an
# array: the missed payload in each format, and an fcurve run's stdout and
# checkpoint, whose 4,274 pairs span more than one chunk of the encoder
SURVEY_PAYLOADS = {
    "missed --nmax 8000 --kmax 16 --workers 2":
        "0d95af0a3c98d6dcea92947f7c56da76d3aa0a1eed2a3e3a6ae976d622a49a0f",
    "missed --nmax 8000 --kmax 16 --workers 2 --format csv":
        "23fe3f88e0dced18b68b7094f1727ff5834d3b1adbec92c3cd26d5d7a8a550ff",
    "missed --nmax 8000 --kmax 16 --workers 2 --format csv --header":
        "4f5af0f11430d00bced175fc5540d097d088d4b4c491e5b8c975482210243613",
}
FCURVE_600_STDOUT = "7285cdd83f89dccaaf5e0efda26cf97565017ac18bbe2713db2a61a03504b168"
FCURVE_600_CHECKPOINT = "26686ff56a8e9f3563613a56014d079599b120717edb875ab6e828d78b03a87f"


def test_survey_payloads_pinned(tmp_path, capsys):
    for argv, digest in SURVEY_PAYLOADS.items():
        code, out = run(capsys, *argv.split())
        assert code == 0, argv
        assert hashlib.sha256(out.encode()).hexdigest() == digest, argv
    ck = tmp_path / "ck.json"
    code, out = run(capsys, "fcurve", "--dmax", "600", "--step", "10", "--resume", str(ck))
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == FCURVE_600_STDOUT
    assert hashlib.sha256(ck.read_bytes()).hexdigest() == FCURVE_600_CHECKPOINT
    assert len(json.loads(ck.read_text())["missed"]) == 4274


@pytest.mark.parametrize("chunk", [1, 8, 16, 17, 18, 100])
def test_missed_payload_at_chunk_edges(capsys, monkeypatch, chunk):
    # 0, 1 and 17 pairs (the 10 x 10, 11 x 1 and 25 x 25 rectangles) against
    # chunks that leave 17 = C - 1, C, C + 1 and 2C + 1: the payload is the
    # json.dumps text of the pairs as a list of lists
    monkeypatch.setattr(counting, "_PAIR_CHUNK", chunk)
    for nmax, kmax, pairs in ((10, 10, 0), (11, 1, 1), (25, 25, 17)):
        grid = counting.survey(nmax, kmax)
        assert len(grid.missed) == pairs
        want = json.dumps({"nmax": nmax, "kmax": kmax, "count_s_pi": grid.count_S_pi,
                           "count_s_Pi": grid.count_S_Pi,
                           "missed": [[s.n, s.k] for s in grid.missed]}) + "\n"
        code, out = run(capsys, "missed", "--nmax", str(nmax), "--kmax", str(kmax))
        assert code == 0 and out == want, (nmax, kmax)
        code, out = run(capsys, "missed", "--nmax", str(nmax), "--kmax", str(kmax),
                        "--format", "csv")
        assert code == 0
        assert out == "".join("%d,%d\n" % (s.n, s.k) for s in grid.missed), (nmax, kmax)


def test_primes_checks_memory_before_the_walk(monkeypatch, capsys):
    # the window of (1, 2^62) holds 2^33 + 1 values and, by the Montgomery-
    # Vaughan bound, fewer than 7.6 10^8 primes, more than any budget here:
    # exit 3 before a value is tested; a small window still lists its primes
    def no_walk(shape):
        raise AssertionError("walked the window before the memory check")

    monkeypatch.setattr(cli, "witness_primes", no_walk)
    assert cli.main(["primes", "--n", "1", "--k", str(2 ** 62)]) == 3
    captured = capsys.readouterr()
    assert captured.out == "" and "witness-prime list" in captured.err
    monkeypatch.undo()
    code, out = run(capsys, "primes", "--n", "30", "--k", "400")
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == \
        "260fa187dff152108d261eaec2a7934dd614f04ffb2e21273ebcede57b4da3f5"


def test_witness(capsys):
    code, out = run(capsys, "witness", "--n", "3", "--m", "2")
    obj = json.loads(out)
    assert (obj["p"], obj["d"], obj["k"], obj["ell"]) == (7, 2, 4, 4)


def test_dioph_csv(capsys):
    code, out = run(capsys, "dioph", "--form", "x^2+x+1", "--m", "3",
                    "--xmax", "1000000", "--format", "csv")
    rows = [tuple(map(int, L.split(","))) for L in out.strip().split("\n")]
    assert rows == [(-19, 7), (-1, 1), (0, 1), (18, 7)]


def test_oracle(capsys):
    code, out = run(capsys, "oracle", "--qmax", "5")
    assert code == 0
    obj = json.loads(out)
    qs = [e["q"] for e in obj["atlas"]]
    assert qs == [2, 3, 4, 5]
    for e in obj["atlas"]:
        assert e == curve_oracle.atlas(e["q"])
    code, out = run(capsys, "oracle", "--qmax", "4", "--format", "csv")
    assert out.startswith("2,1,1\n")


def test_constants(capsys):
    code, out = run(capsys, "constants")
    assert out == '{"theta": 1.943596436820751, "main": 2.5914619157610015}\n'
    code, out = run(capsys, "constants", "--euler-product-bound", "1000")
    obj = json.loads(out)
    assert obj["C"]["value"] == pytest.approx(1.8035366139149054, rel=1e-12)


def test_exit_codes(capsys):
    assert cli.main(["nonsense"]) == 2
    capsys.readouterr()
    assert cli.main(["missed", "--nmax", "25"]) == 2
    capsys.readouterr()
    assert cli.main(["missed", "--nmax", "0", "--kmax", "5"]) == 2
    capsys.readouterr()
    big = str(4 * 10 ** 9)
    assert cli.main(["missed", "--nmax", big, "--kmax", big]) == 3
    capsys.readouterr()
    assert cli.main(["grid", "--nmax", "100000000", "--kmax", "1000"]) == 3
    capsys.readouterr()
    # fits below 2^63, but the two membership tables would need ~2 TB
    assert cli.main(["grid", "--nmax", "1000000", "--kmax", "1000000"]) == 3
    capsys.readouterr()
    assert cli.main(["oracle", "--qmax", "1000"]) == 3
    capsys.readouterr()
    assert cli.main(["kk", "--k", "2", "--mmax", "63", "--qmax", str(2 ** 63)]) == 3
    capsys.readouterr()
    assert cli.main(["check", "5"]) == 2
    capsys.readouterr()


def test_grid_respects_address_space_limit():
    # 3.2 GB of tables: above a 3 GB RLIMIT_AS, below most physical memories
    def cap():
        resource.setrlimit(resource.RLIMIT_AS, (3 * 10 ** 9, resource.RLIM_INFINITY))

    root = pathlib.Path(__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    proc = subprocess.run([sys.executable, "-m", "ecgroups.cli", "grid",
                           "--nmax", "40000", "--kmax", "40000"],
                          env=env, preexec_fn=cap, capture_output=True, text=True,
                          timeout=120)
    assert proc.returncode == 3, proc.stderr


def test_grid_payload_respects_address_space_limit():
    # 32 MB of tables but about 2.6 GB of payload, above a 1.5 GB RLIMIT_AS:
    # refused up front, where building the payload used to die of MemoryError
    def cap():
        resource.setrlimit(resource.RLIMIT_AS, (15 * 10 ** 8, resource.RLIM_INFINITY))

    root = pathlib.Path(__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    proc = subprocess.run([sys.executable, "-m", "ecgroups.cli", "grid",
                           "--nmax", "4000", "--kmax", "4000"],
                          env=env, preexec_fn=cap, capture_output=True, text=True,
                          timeout=120)
    assert proc.returncode == 3, proc.stderr
    assert "grid payload" in proc.stderr


def test_dioph_payload_respects_address_space_limit():
    # degree 1 lists all 2 * 10^9 + 1 values of x, hundreds of GB of payload,
    # above a 1.5 GB RLIMIT_AS: refused up front, where building the list
    # used to die of MemoryError
    def cap():
        resource.setrlimit(resource.RLIMIT_AS, (15 * 10 ** 8, resource.RLIM_INFINITY))

    root = pathlib.Path(__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    proc = subprocess.run([sys.executable, "-m", "ecgroups.cli", "dioph", "--form", "x^2+1",
                           "--m", "1", "--xmax", "1000000000"],
                          env=env, preexec_fn=cap, capture_output=True, text=True,
                          timeout=120)
    assert proc.returncode == 3, proc.stderr
    assert "dioph payload" in proc.stderr


def test_check_stops_at_first_candidate_under_address_space_limit():
    # the window of (1, 2^62) holds 2^33 + 1 values; both witness searches
    # stop near its start, so the answer comes under a 1 GB RLIMIT_AS where
    # building the window would die of MemoryError
    def cap():
        resource.setrlimit(resource.RLIMIT_AS, (10 ** 9, resource.RLIM_INFINITY))

    root = pathlib.Path(__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    proc = subprocess.run([sys.executable, "-m", "ecgroups.cli", "check", "1",
                           str(2 ** 62)],
                          env=env, preexec_fn=cap, capture_output=True, text=True,
                          timeout=60)
    assert proc.returncode == 0, proc.stderr
    obj = json.loads(proc.stdout)
    assert obj["s_pi"] == obj["s_Pi"]["q"] == 4611686014132420667


def test_npsum_respects_address_space_limit():
    # under a 1.5 GB RLIMIT_AS both double sums are refused before any work:
    # the progression sum's primes up to 8 * 10^9, and the direct sum's three
    # int64 tables of 20000^2 cells, which used to die of MemoryError
    def cap():
        resource.setrlimit(resource.RLIMIT_AS, (15 * 10 ** 8, resource.RLIM_INFINITY))

    root = pathlib.Path(__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    for method, side in (("progression", "2000"), ("direct", "20000")):
        proc = subprocess.run([sys.executable, "-m", "ecgroups.cli", "npsum", "--nmax", side,
                               "--kmax", side, "--method", method],
                              env=env, preexec_fn=cap, capture_output=True, text=True,
                              timeout=60)
        assert proc.returncode == 3, (method, proc.stderr)
        assert "sum's" in proc.stderr, method


def test_degree_two_scans_check_memory_before_sieving(monkeypatch, capsys):
    # below a 100 kB budget the degree-2 scans of sets, nm1 and n2k exit 3
    # before listing a prime; the same requests run at the real budget
    def no_sieve(*args, **kwargs):
        raise AssertionError("listed primes before the memory check")

    requests = (["sets", "--m", "2", "--k", "1", "--tmax", "100000"],
                ["sets", "--m", "2", "--k", "2", "--tmax", "1000000", "--tilde"],
                ["nm1", "--m", "2", "--tmax", "100000", "--format", "csv"],
                ["n2k", "--k", "3", "--tmax", "100000"])
    monkeypatch.setattr(arith, "primes_in_range", no_sieve)
    monkeypatch.setattr(counting, "_memory_budget", lambda: 10 ** 5)
    for argv in requests:
        assert cli.main(argv) == 3, argv
        captured = capsys.readouterr()
        assert captured.out == "" and "n-set scan" in captured.err, argv
    monkeypatch.undo()
    for argv in requests:
        assert cli.main(argv) == 0, argv
        capsys.readouterr()


def test_degree_one_scans_check_memory_before_sieving(monkeypatch, capsys):
    # below a 100 kB budget the degree-1 scans of sets, nm1 and adam exit 3
    # before the cell kernel runs; the same requests run at the real budget
    def no_kernel(*args, **kwargs):
        raise AssertionError("ran the kernel before the memory check")

    requests = (["sets", "--m", "1", "--k", "1", "--tmax", "100000"],
                ["sets", "--m", "1", "--k", "7", "--tmax", "100000", "--tilde"],
                ["nm1", "--m", "1", "--tmax", "100000", "--format", "csv"],
                ["adam", "--tmax", "100000"])
    monkeypatch.setattr(counting, "_kernel_rows", no_kernel)
    monkeypatch.setattr(counting, "_memory_budget", lambda: 10 ** 5)
    for argv in requests:
        assert cli.main(argv) == 3, argv
        captured = capsys.readouterr()
        assert captured.out == "" and "n-set scan" in captured.err, argv
    monkeypatch.undo()
    for argv in requests:
        assert cli.main(argv) == 0, argv
        capsys.readouterr()


def test_benchmark_tracer_hooks(tmp_path):
    # the benchmark's tracer rebinds package attributes by name, so a rename
    # it depends on fails here instead of only in a traced benchmark run; the
    # fcurve run takes the in-process kernel path and the checkpoint hook,
    # which reads the arguments of _write_checkpoint
    root = pathlib.Path(__file__).resolve().parents[1]
    env = dict(os.environ,
               PYTHONPATH=os.pathsep.join([str(root / "src"), str(root / "perfbench")]))
    resume = str(tmp_path / "fcurve.json")
    code = ("import sys, tracer\n"
            "from ecgroups import cli\n"
            "tracer.install(tracer.Tracer())\n"
            "for argv in (['missed', '--nmax', '12', '--kmax', '12'], ['check', '12', '5'],\n"
            "             ['kk', '--k', '5'], ['constants', '--euler-product-bound', '1000'],\n"
            "             ['oracle', '--qmax', '9'],\n"
            f"             ['fcurve', '--dmax', '40', '--step', '10', '--resume', {resume!r}]):\n"
            "    rc = cli.main(argv)\n"
            "    if rc:\n"
            "        sys.exit('%s exited %d' % (argv, rc))\n")
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr


def test_benchmark_tracer_counts_missed_pairs(tmp_path):
    # under the benchmark's tracer, counting.missed_pairs is the number of
    # pairs in the missed payload and in the fcurve checkpoint, and
    # counting.checkpoint_bytes is the checkpoint file's size
    root = pathlib.Path(__file__).resolve().parents[1]
    env = dict(os.environ,
               PYTHONPATH=os.pathsep.join([str(root / "src"), str(root / "perfbench")]))
    payload, resume = tmp_path / "missed.json", tmp_path / "fcurve.json"
    code = ("import json, sys, tracer\n"
            "from ecgroups import cli\n"
            "tr = tracer.Tracer()\n"
            "tracer.install(tr)\n"
            "counts = []\n"
            f"for argv in (['missed', '--nmax', '60', '--kmax', '40', '--out', {str(payload)!r}],\n"
            "             ['fcurve', '--dmax', '60', '--step', '10', '--out', '/dev/null',\n"
            f"              '--resume', {str(resume)!r}]):\n"
            "    tr.counts.clear()\n"
            "    if cli.main(argv):\n"
            "        sys.exit('%s failed' % argv)\n"
            "    counts.append(tracer.layer_metrics(tr))\n"
            "print(json.dumps(counts))\n")
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    missed, fcurve = json.loads(proc.stdout)
    pairs = json.loads(payload.read_text())["missed"]
    assert missed["counting.missed_pairs"] == len(pairs) > 0
    assert fcurve["counting.missed_pairs"] == len(json.loads(resume.read_text())["missed"])
    assert fcurve["counting.missed_pairs"] == 102
    assert fcurve["counting.checkpoint_bytes"] == resume.stat().st_size


def test_out_file(tmp_path, capsys):
    code, out = run(capsys, "missed", "--nmax", "12", "--kmax", "12",
                    "--format", "csv")
    target = tmp_path / "missed.csv"
    code2 = cli.main(["missed", "--nmax", "12", "--kmax", "12",
                      "--format", "csv", "--out", str(target)])
    assert capsys.readouterr().out == ""
    assert code == code2 == 0
    assert target.read_text() == out


def test_workers_identical(monkeypatch, capsys):
    # blocks of four rows, so that the survey takes the pool
    monkeypatch.setattr(counting, "_BLOCK_CELLS", 4 * 20)
    monkeypatch.setattr(counting, "_TASK_POOLS", 1)
    _, one = run(capsys, "missed", "--nmax", "30", "--kmax", "20",
                 "--workers", "1", "--format", "csv")
    _, many = run(capsys, "missed", "--nmax", "30", "--kmax", "20",
                  "--workers", "3", "--format", "csv")
    assert one == many


def dying_row_kernel(ctx, ns):
    # stands in for the pool's block function: every worker dies
    os.kill(os.getpid(), signal.SIGKILL)


def _alarm(signum, frame):
    raise TimeoutError("the survey hung after its workers died")


def test_dead_worker_exit_code(monkeypatch, capsys):
    # blocks of four rows, so that the survey takes the pool
    monkeypatch.setattr(counting, "_BLOCK_CELLS", 4 * 12)
    monkeypatch.setattr(counting, "_row_kernel", dying_row_kernel)
    old = signal.signal(signal.SIGALRM, _alarm)
    signal.alarm(60)
    try:
        code = cli.main(["missed", "--nmax", "12", "--kmax", "12", "--workers", "2"])
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, old)
    captured = capsys.readouterr()
    assert code == cli.EXIT_WORKER == 1
    assert captured.out == "" and captured.err.startswith("error: ")


def test_plot_scripts(tmp_path, capsys):
    f = tmp_path / "f.csv"
    f.write_text("1,0\n2,0\n25,17\n")
    code, out = run(capsys, "plot", "--csv", str(f), "--kind", "f-curve")
    assert code == 0
    assert "using 1:2" in out and str(f) in out
    g = tmp_path / "beta.csv"
    g.write_text("1,1,0,0.0,\n25,25,17,33.27,0.511\n")
    code, out = run(capsys, "plot", "--csv", str(g), "--kind", "grid-3d")
    assert code == 0
    assert "using 1:2:5" in out and "missing ''" in out
    code, _ = run(capsys, "plot", "--csv", str(f), "--kind", "grid-3d")
    assert code == 2  # two columns cannot make a surface
    code, _ = run(capsys, "plot", "--csv", str(tmp_path / "no.csv"),
                  "--kind", "f-curve")
    assert code == 2
