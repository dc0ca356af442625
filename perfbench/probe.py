"""Fresh-interpreter set-up probe.

    python3 perfbench/probe.py <src_dir> <out_json> [analyze argv ...]

Times ``import pcageom.cli`` in this new interpreter and, when an argv
is given, the first two ``main`` calls after it, and writes the times to
``out_json``.  The first call's excess over the second is the lazy
set-up the first call pays.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
import time


def main() -> int:
    src, out_json, argv = sys.argv[1], sys.argv[2], sys.argv[3:]
    sys.path.insert(0, src)
    t0 = time.perf_counter()
    from pcageom import cli
    t1 = time.perf_counter()
    record = {"import_s": t1 - t0}
    if argv:
        for key in ("first", "second"):
            sink = io.StringIO()
            t = time.perf_counter()
            with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
                record[key + "_rc"] = cli.main(argv)
            record[key + "_s"] = time.perf_counter() - t
    with open(out_json, "w", encoding="utf-8") as fh:
        json.dump(record, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
