#!/usr/bin/env python3
"""One SHA-256 per CLI run, over the runs whose output a refactor must keep.

Usage, from the root of a checkout (no flags):

    python3 tools/output_digest.py > digest.txt

Each run is one in-process call of ``ptbilayer.sweep_cli.cli_main(argv)``:

- every operation of ``benchmarks/workloads.py`` (its sweeps, and its locate
  queries at their README brackets), and each full-mode sweep again with
  ``--check``;
- each README ``locate`` query again with ``--check`` and with
  ``--theory effective``;
- every README ``ptbilayer`` command, as ``tests/test_readme.py`` extracts
  them, with each ``--out`` written to a temporary directory;
- ``locate --help``, which lists the ``--kind`` choices, and one run per
  documented error exit (``ERROR_RUNS``): exit 2 from a refused value and
  from an argparse usage error, exit 3 from a locate bracket and from
  pt-solve's balance scan, exit 4 from an effective sweep and locate whose
  cell phase overflows. Help and usage text are wrapped at 80 columns
  whatever the terminal.

Each output line is the SHA-256 of the run's exit code, standard output,
standard error and ``--out`` file, then its argv. Two checkouts that print the
same lines gave the same bytes on every run; ``diff`` the two files.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import os
import shlex
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "benchmarks"), str(ROOT / "tests")]

from ptbilayer.sweep_cli import cli_main   # noqa: E402
from test_readme import COMMANDS           # noqa: E402
from workloads import WORKLOADS, Locate    # noqa: E402


# a cell phase 2kl that overflows fails the effective slab
_OVERFLOWING_PHASE = ["--omega-trad", "1e6", "--thickness-nm", "1e308", "--theory", "effective"]
# one run per documented error exit, each with its exit code
ERROR_RUNS = [
    ["sweep", "--preset", "set1", "--temperature-k", "-1"],                        # 2
    ["sweep", "--no-such-flag"],                                                   # 2
    ["locate", "--preset", "set2", "--kind", "atr", "--bracket", "1:1000"],        # 3
    ["pt-solve", "--preset", "set2", "--alpha-l", "0.2"],                         # 3
    ["sweep", "--preset", "set1", "--range", "0:1:2", *_OVERFLOWING_PHASE],        # 4
    ["locate", "--preset", "set1", "--kind", "atr", "--bracket", "0:1",
     *_OVERFLOWING_PHASE],                                                         # 4
]


def runs() -> list[list[str]]:
    """The argv of every run, in a fixed order."""
    out = []
    for specs in WORKLOADS.values():
        for spec in specs:
            if isinstance(spec, Locate):
                argv = spec.argv(*spec.bracket)
                out += [argv, argv + ["--check"], argv + ["--theory", "effective"]]
            else:
                out.append(spec.argv())
                if not (spec.paper_mode or spec.check):
                    out.append(spec.argv() + ["--check"])
    return (out + [shlex.split(command)[1:] for command in COMMANDS]
            + [["locate", "--help"]] + ERROR_RUNS)


def digest(argv: list[str], scratch: Path) -> str:
    """SHA-256 of the exit code, stdout, stderr and --out file of one run."""
    run_argv, out_file = list(argv), None
    if "--out" in run_argv:
        i = run_argv.index("--out") + 1
        out_file = run_argv[i] = str(scratch / Path(run_argv[i]).name)
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        try:
            code = cli_main(run_argv)
        except SystemExit as exc:   # argparse printed help or refused the argv
            code = exc.code
    h = hashlib.sha256()
    for part in (str(code), stdout.getvalue(), stderr.getvalue()):
        h.update(part.encode() + b"\0")
    if out_file is not None:
        h.update(Path(out_file).read_bytes())
    return h.hexdigest()


def main() -> None:
    os.environ["COLUMNS"] = "80"   # argparse wraps help and usage at the terminal width
    with tempfile.TemporaryDirectory() as scratch:
        for argv in runs():
            print(digest(argv, Path(scratch)), shlex.join(argv), flush=True)


if __name__ == "__main__":
    main()
