#!/usr/bin/env python3
"""Write the benchmark's reference tables; run once, from the root of a checkout.

    python3 benchmarks/make_reference.py

Runs every sweep operation of the benchmark once, exactly as the benchmark
emits it, and stores the parsed tables in ``reference/tables.json.gz``. It
also checks that each README locate bracket still gives the root recorded in
``workloads.py``. The references were generated at the commit that defined
the benchmark. Regenerate them only for a deliberate change of behaviour,
and say so where the change is recorded; never to make a failing check pass.
"""

from __future__ import annotations

import contextlib
import gzip
import io
import json
import sys

import gate
import workloads
from run import import_package


def _emit(cli_main, argv: list[str]) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        if cli_main(argv) != 0:
            raise SystemExit(f"command failed: {' '.join(argv)}")
    return out.getvalue()


def main() -> int:
    cli_main = import_package().sweep_cli.cli_main
    sweeps = {}
    for spec in workloads.SWEEP_EXACT + workloads.COMPARE_EFFECTIVE:
        sweeps[spec.name] = gate.parse_table(_emit(cli_main, spec.argv()), spec.fmt)
    for spec in workloads.LOCATE_THRESHOLDS:
        root = json.loads(_emit(cli_main, spec.argv(*spec.bracket)))["abscissa"]
        if root != spec.root:
            raise SystemExit(f"{spec.name}: README bracket gives {root!r}, "
                             f"workloads.py records {spec.root!r}")
    gate.REFERENCE_PATH.parent.mkdir(exist_ok=True)
    with open(gate.REFERENCE_PATH, "wb") as raw, \
            gzip.GzipFile(fileobj=raw, mode="wb", mtime=0) as fh:
        fh.write(json.dumps({"sweeps": sweeps}, sort_keys=True).encode())
    print(f"wrote {len(sweeps)} tables to {gate.REFERENCE_PATH}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
