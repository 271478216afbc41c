"""Print the report set: the bit-identity gate for campaign reports, kernels and the CLI.

Run from the repository root: once on the reference tree to save its
output, then with ``--against`` on the changed tree, which prints each
differing line (``-`` saved, ``+`` now) with the fields that differ and
|Δ| of its value (``worst_margin``, ``kl``, ``kl_nats``, ``kl_exact``, ``bound`` or
``value``; inf for a ``gen`` line), then
a summary line naming every differing proposition, kernel or command and field with the largest |Δ|, and
exits 1 if any differs:

    OPENBLAS_NUM_THREADS=1 PYTHONPATH=src python tests/report_set.py > before.jsonl
    OPENBLAS_NUM_THREADS=1 PYTHONPATH=src python tests/report_set.py --against before.jsonl

``tests/report_set.golden.jsonl`` is the committed output, and
``tests/test_report_set.py`` runs the comparison against it: a change that
moves bits updates the golden file in the same diff.

Each line is JSON, with its value written by ``float.hex`` so a changed bit
shows.  The first line is a header naming what the bits depend on besides
the code: the numpy and scipy versions, numpy's OpenBLAS as loaded (its
configuration line names the kernel core picked for this CPU) and its thread
count, scipy's OpenBLAS version, and the SIMD dispatch targets numpy enabled
for this CPU (its ``exp``, ``log`` and ``log1p`` kernels differ in the last
bit between them).  The hex values and the ``gen`` hashes move with these, so
when the saved header differs from the current one, ``--against`` says so
and compares only the campaign reports' ``trials``, ``violations`` and
``config_digest``.  The 147 lines after the
header follow.  The first 39 are campaign reports: ``check_prop3`` at dims 1-8
and condition targets 1, 10 and 1e4 (200 trials), ``check_prop2`` over nine
block structures (100 trials; in the last two, blocks of one size are not
adjacent), and ``check_prop1``/``check_c1`` at dims 1-3 (5 trials,
n = 10000), all with master seed 7.  Campaign matrices have
m <= 8, so the next 40 lines are ``kl_gaussian`` values at m = 64, 65, 129,
256 and 512, across the kernel's 64-row blocks: four pairs per m
drawn at condition target 100 from seeds derived from 7, each against a
dense and a diagonal reference.  The next 8 lines are the sha256 of files
written by the ``gen`` command, dense at condition target 100 and
``--diagonal``, at m = 1, 8, 64 and 512, from seeds derived from 7.  The next
8 lines are the results of the ``kl`` command on files written by
``write_matrix_csv``: at m = 1, 8, 64 and 512, one subject drawn at condition
target 100 against a dense and a diagonal reference, from seeds derived from
7.  The next 40 lines are the O(m) kernels on the ``kl_gaussian`` subjects
against their diagonal references' spectra: ``diagonal_lower_bound``, then
``kl_gap_diagonal``'s ``bound``, ``gap`` and ``kl_exact``, per pair.  The last
12 lines are ``mc_kl``'s ``value`` and ``std_error`` for the four pairings of
a Gaussian and a matched mixture as subject and reference, at dims 1, 3 and 8
and n = 10007 (not a multiple of its 8192-draw block), from seeds derived
from 7.  It takes a few seconds.  pytest does not collect this file.
"""

import argparse
import contextlib
import ctypes
import glob
import hashlib
import io
import json
import math
import os
import sys
import tempfile
from itertools import zip_longest

import numpy as np
import scipy

try:
    from numpy._core import _multiarray_umath as _umath
except ImportError:  # numpy < 2
    from numpy.core import _multiarray_umath as _umath

from gausskl import (GaussianModel, build_matched_mixture, check_c1, check_prop1, check_prop2,
                     check_prop3, derive_seed, diagonal_lower_bound, kl_gap_diagonal, kl_gaussian,
                     mc_kl, random_diag_spectrum, random_spd, write_matrix_csv)
from gausskl.cli import main as cli_main

MASTER_SEED = 7
P3_DIMS = range(1, 9)
P3_CONDS = (1.0, 10.0, 1e4)
P2_STRUCTURES = ([1, 1], [2, 2], [1, 2], [2, 3], [3, 3, 2], [1, 1, 1, 1], [4, 4], [2, 1, 2],
                 [1, 3, 1, 3])
MC_DIMS = (1, 2, 3)
KL_DIMS = (64, 65, 129, 256, 512)
KL_PAIRS = 4
KL_COND = 100.0
GEN_DIMS = (1, 8, 64, 512)
GEN_FLAGS = (("--cond", "100"), ("--diagonal",))
CLI_KL_DIMS = (1, 8, 64, 512)
MC_KL_DIMS = (1, 3, 8)
MC_KL_SAMPLES = 10_007
# The hex-written value of a line, by the first of these keys it has.
VALUES = ("worst_margin", "kl", "kl_nats", "kl_exact", "bound", "value")
# The fields of a campaign report line compared across differing headers.
CAMPAIGN_FIELDS = ("proposition", "trials", "violations", "config_digest")


def header() -> dict:
    config, threads = _openblas()
    return {"header": "report_set", "numpy": np.__version__, "scipy": scipy.__version__,
            "numpy_openblas": config, "openblas_threads": threads,
            "scipy_openblas": scipy.show_config(mode="dicts")["Build Dependencies"]["blas"]["version"],
            "numpy_simd": [t for t in _umath.__cpu_dispatch__ if _umath.__cpu_features__.get(t)]}


def _openblas() -> tuple:
    # numpy's OpenBLAS as loaded: its configuration line and thread count, read
    # from the library itself; numpy's build-time line and the environment's
    # thread setting where the library does not have them.
    for path in glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs",
                                       "*openblas*")):
        lib = ctypes.CDLL(path)
        config = getattr(lib, "scipy_openblas_get_config64_", None)
        threads = getattr(lib, "scipy_openblas_get_num_threads64_", None)
        if config is not None and threads is not None:
            config.argtypes, config.restype = [], ctypes.c_char_p
            threads.argtypes, threads.restype = [], ctypes.c_int
            return config().decode().strip(), threads()
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return (blas.get("openblas configuration", blas["name"]),
            os.environ.get("OPENBLAS_NUM_THREADS", "unset"))


def reports():
    for dim in P3_DIMS:
        for cond in P3_CONDS:
            yield check_prop3(200, dim, MASTER_SEED, cond)
    for dims in P2_STRUCTURES:
        yield check_prop2(dims, 100, MASTER_SEED)
    for check in (check_prop1, check_c1):
        for dim in MC_DIMS:
            yield check(5, dim, MASTER_SEED, 10_000)


def kl_subjects():
    # (dim, pair, subject, dense reference, diagonal reference's spectrum)
    for dim in KL_DIMS:
        for pair in range(KL_PAIRS):
            yield (dim, pair, random_spd(dim, derive_seed(MASTER_SEED, 3 * pair), KL_COND),
                   random_spd(dim, derive_seed(MASTER_SEED, 3 * pair + 1), KL_COND),
                   random_diag_spectrum(dim, derive_seed(MASTER_SEED, 3 * pair + 2)))


def kl_values():
    for dim, pair, sy, dense, spectrum in kl_subjects():
        for reference, sx in (("dense", dense), ("diagonal", spectrum.as_matrix())):
            yield {"kernel": "kl_gaussian", "dim": dim, "pair": pair,
                   "reference": reference, "kl": kl_gaussian(sx, sy).hex()}


def diagonal_values():
    for dim, pair, sy, _, spectrum in kl_subjects():
        yield {"kernel": "diagonal_lower_bound", "dim": dim, "pair": pair,
               "bound": diagonal_lower_bound(spectrum, sy).hex()}
        rep = kl_gap_diagonal(spectrum, sy)
        yield {"kernel": "kl_gap_diagonal", "dim": dim, "pair": pair,
               **{key: getattr(rep, key).hex() for key in ("bound", "gap", "kl_exact")}}


def mc_kl_values():
    for dim in MC_KL_DIMS:
        seed = derive_seed(MASTER_SEED, 100 + dim)
        models = []
        for k in range(2):
            target = random_spd(dim, derive_seed(seed, k), KL_COND)
            models.append((GaussianModel(target), build_matched_mixture(target, 0.3, 0.6)))
        for y_name, py in zip(("gaussian", "mixture"), models[0]):
            for x_name, px in zip(("gaussian", "mixture"), models[1]):
                est = mc_kl(py, px, MC_KL_SAMPLES, derive_seed(seed, 2))
                yield {"kernel": "mc_kl", "dim": dim, "y": y_name, "x": x_name,
                       "n": MC_KL_SAMPLES, "value": est.value.hex(),
                       "std_error": est.std_error.hex()}


def gen_hashes():
    runs = [(dim, flags) for flags in GEN_FLAGS for dim in GEN_DIMS]
    with tempfile.TemporaryDirectory() as tmp:
        for k, (dim, flags) in enumerate(runs):
            seed, path = derive_seed(MASTER_SEED, k), os.path.join(tmp, f"gen{k}.csv")
            with contextlib.redirect_stdout(io.StringIO()):  # gen's own report
                code = cli_main(["gen", "--dim", str(dim), "--seed", str(seed), *flags,
                                 "--out", path])
            with open(path, "rb") as fh:
                digest = hashlib.sha256(fh.read()).hexdigest()
            yield {"command": "gen", "dim": dim, "seed": seed, "flags": " ".join(flags),
                   "exit": code, "sha256": digest}


def cli_kl_results():
    with tempfile.TemporaryDirectory() as tmp:
        x, y = os.path.join(tmp, "x.csv"), os.path.join(tmp, "y.csv")
        for dim in CLI_KL_DIMS:
            seed = derive_seed(MASTER_SEED, dim)
            write_matrix_csv(y, random_spd(dim, derive_seed(seed, 0), KL_COND).entries)
            dense = random_spd(dim, derive_seed(seed, 1), KL_COND)
            diagonal = random_diag_spectrum(dim, derive_seed(seed, 2)).as_matrix()
            for reference, sx in (("dense", dense), ("diagonal", diagonal)):
                write_matrix_csv(x, sx.entries)
                out = io.StringIO()
                with contextlib.redirect_stdout(out):
                    code = cli_main(["kl", "--x", x, "--y", y])
                results = json.loads(out.getvalue())["results"]
                yield {"command": "kl", "dim": dim, "reference": reference, "exit": code,
                       **{key: value.hex() for key, value in results.items()}}


def lines():
    yield json.dumps(header())
    for report in reports():
        line = report.as_dict()
        line["worst_margin"] = report.worst_margin.hex()
        yield json.dumps(line)
    for line in kl_values():
        yield json.dumps(line)
    for line in gen_hashes():
        yield json.dumps(line)
    for line in cli_kl_results():
        yield json.dumps(line)
    for line in diagonal_values():
        yield json.dumps(line)
    for line in mc_kl_values():
        yield json.dumps(line)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--against", metavar="FILE",
                        help="compare with a saved output instead of printing the set")
    args = parser.parse_args(argv)
    if args.against is None:
        for line in lines():
            print(line)
        return 0
    with open(args.against, encoding="utf-8") as fh:
        saved = fh.read().splitlines()
    now = list(lines())
    if saved[:1] != now[:1]:
        print(f"headers differ, so only the campaign reports' trials, violations and "
              f"config_digest are compared\n- {saved[0] if saved else '(none)'}\n+ {now[0]}")
        saved, now = ([c for c in map(_campaign_fields, side) if c] for side in (saved, now))
    differing = number = 0
    sources, fields, worst_delta = set(), set(), 0.0
    for number, (old, new) in enumerate(zip_longest(saved, now, fillvalue="(none)"), 1):
        if old != new:
            differing += 1
            changed, delta = _compare(old, new)
            sources.update(_source(line) for line in (old, new))
            fields.update(changed)
            worst_delta = max(worst_delta, delta)
            print(f"line {number}: {', '.join(changed)} differ; "
                  f"|delta| = {delta:.3g}\n- {old}\n+ {new}")
    summary = f"{differing} of {number} lines differ from {args.against}"
    if differing:
        summary += (f" (sources {', '.join(sorted(sources - {None}))}; fields "
                    f"{', '.join(sorted(fields))}; max |delta| {worst_delta:.3g})")
    print(summary, file=sys.stderr)
    return 1 if differing else 0


def _campaign_fields(line: str) -> str:
    # A campaign report line cut to CAMPAIGN_FIELDS; "" for any other line.
    try:
        fields = json.loads(line)
    except json.JSONDecodeError:
        return ""
    if "proposition" not in fields:
        return ""
    return json.dumps({key: fields.get(key) for key in CAMPAIGN_FIELDS})


def _source(line: str):
    # The proposition of a report line, the kernel of a kernel line, or "gen".
    try:
        fields = json.loads(line)
    except json.JSONDecodeError:  # "(none)" past the end of the shorter set
        return None
    return next((fields[k] for k in ("proposition", "kernel", "command") if k in fields), None)


def _compare(old: str, new: str) -> tuple:
    # The differing field names, and |new - old| of the line's value (inf if either is missing).
    try:
        a, b = json.loads(old), json.loads(new)
    except json.JSONDecodeError:
        return ["all fields"], math.inf
    changed = sorted(k for k in a.keys() | b.keys() if a.get(k) != b.get(k))
    key = next((k for k in VALUES if k in a), None)
    try:
        delta = abs(float.fromhex(b[key]) - float.fromhex(a[key]))
    except KeyError:
        delta = math.inf
    return changed, delta


if __name__ == "__main__":
    sys.exit(main())
