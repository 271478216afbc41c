"""Set-up probe: a fresh interpreter imports gausskl and runs one operation.

Usage: python3 perfbench/setup_probe.py SPEC.json

SPEC holds one of
  {"call": "<gausskl function>", "args": [...]}   a campaign call,
  {"cli": [argv...]}                              cli.main in-process.
Prints {"import_s": ..., "first_op_s": ...} and exits 0 when the operation
succeeded.  The caller times the whole process as the set-up time.
"""

import json
import sys
import time
from pathlib import Path

START = time.perf_counter()
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))


def main() -> int:
    spec = json.loads(Path(sys.argv[1]).read_text())
    import gausskl
    import gausskl.cli
    imported = time.perf_counter()
    if "call" in spec:
        report = getattr(gausskl, spec["call"])(*spec["args"])
        ok = report.violations == 0
    else:
        import contextlib
        import io
        with contextlib.redirect_stdout(io.StringIO()):
            ok = gausskl.cli.main(spec["cli"]) == 0
    done = time.perf_counter()
    print(json.dumps({"import_s": imported - START, "first_op_s": done - imported}))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
