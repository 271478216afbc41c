"""Print the 37-report set: the campaign gate for changes that must keep reports bit-identical.

Run from the repository root: once on the reference tree to save its
output, then with ``--against`` on the changed tree, which prints each
differing report (``-`` saved, ``+`` now) with the fields that differ and
|Δ worst_margin|, then a summary line naming every differing proposition
and field with the largest |Δ worst_margin|, and exits 1 if any differs:

    PYTHONPATH=src python tests/report_set.py > before.jsonl
    PYTHONPATH=src python tests/report_set.py --against before.jsonl

Each line is one report as JSON, with ``worst_margin`` written by
``float.hex`` so a changed bit shows.  The set is ``check_prop3`` at dims 1-8
and condition targets 1, 10 and 1e4 (200 trials), ``check_prop2`` over seven
block structures (100 trials), and ``check_prop1``/``check_c1`` at dims 1-3
(5 trials, n = 10000), all with master seed 7.  It takes a few seconds.
pytest does not collect this file.
"""

import argparse
import json
import math
import sys
from itertools import zip_longest

from gausskl import check_c1, check_prop1, check_prop2, check_prop3

MASTER_SEED = 7
P3_DIMS = range(1, 9)
P3_CONDS = (1.0, 10.0, 1e4)
P2_STRUCTURES = ([1, 1], [2, 2], [1, 2], [2, 3], [3, 3, 2], [1, 1, 1, 1], [4, 4])
MC_DIMS = (1, 2, 3)


def reports():
    for dim in P3_DIMS:
        for cond in P3_CONDS:
            yield check_prop3(200, dim, MASTER_SEED, cond)
    for dims in P2_STRUCTURES:
        yield check_prop2(dims, 100, MASTER_SEED)
    for check in (check_prop1, check_c1):
        for dim in MC_DIMS:
            yield check(5, dim, MASTER_SEED, 10_000)


def lines():
    for report in reports():
        line = report.as_dict()
        line["worst_margin"] = report.worst_margin.hex()
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
    differing = number = 0
    props, fields, worst_delta = set(), set(), 0.0
    for number, (old, new) in enumerate(zip_longest(saved, lines(), fillvalue="(none)"), 1):
        if old != new:
            differing += 1
            changed, delta = _compare(old, new)
            props.update(_field(line, "proposition") for line in (old, new))
            fields.update(changed)
            worst_delta = max(worst_delta, delta)
            print(f"report {number}: {', '.join(changed)} differ; "
                  f"|delta worst_margin| = {delta:.3g}\n- {old}\n+ {new}")
    summary = f"{differing} of {number} reports differ from {args.against}"
    if differing:
        summary += (f" (propositions {', '.join(sorted(props - {None}))}; fields "
                    f"{', '.join(sorted(fields))}; max |delta worst_margin| {worst_delta:.3g})")
    print(summary, file=sys.stderr)
    return 1 if differing else 0


def _field(line: str, key: str):
    try:
        return json.loads(line).get(key)
    except json.JSONDecodeError:  # "(none)" past the end of the shorter set
        return None


def _compare(old: str, new: str) -> tuple:
    # The differing field names, and |new - old| of worst_margin (inf if either is missing).
    try:
        a, b = json.loads(old), json.loads(new)
    except json.JSONDecodeError:
        return ["all fields"], math.inf
    changed = sorted(k for k in a.keys() | b.keys() if a.get(k) != b.get(k))
    try:
        delta = abs(float.fromhex(b["worst_margin"]) - float.fromhex(a["worst_margin"]))
    except KeyError:
        delta = math.inf
    return changed, delta


if __name__ == "__main__":
    sys.exit(main())
