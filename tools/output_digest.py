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
  whatever the terminal;
- ``MATERIALS_RUNS``: a ``locate`` over the loss amplitude and one over the
  frequency on custom materials (``MATERIALS``, a ``--config`` file written
  to the temporary directory), each exact and with ``--theory effective``;
- ``DEFAULT_SIZE_RUNS``: ``compare`` tables larger than the benchmark's, at
  the CLI's default 500 rows (a bare ``compare``, and ``set2`` with every
  family) and at 2000 rows (``set1`` at 1000 Trad/s with every family);
- ``FLUX_LOCATE_RUNS``: each README ``squeeze_crossing`` and
  ``mandel_crossing`` query again with ``--mode paper`` and with
  ``--temperature-k 300``, the only runs whose roots read paper mode's
  commutator scale or the flux's thermal term on one point.

Each output line is the SHA-256 of the run's exit code, standard output,
standard error and ``--out`` file, then its argv. Two checkouts that print the
same lines gave the same bytes on every run; ``diff`` the two files. A
run's ``--config`` and ``--out`` files are named in its argv as they are named
in the temporary directory, so the lines do not depend on where that is.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
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

# a gain and a loss medium unlike either preset's, so that no preset's rule applies
MATERIALS = {"materials": {
    "gain": {"eps_b": 2.0, "alpha": -24.0, "omega0_trad": 1000.0, "gamma_trad": 67.0},
    "loss": {"eps_b": 2.5, "alpha": 20.0, "omega0_trad": 1100.0, "gamma_trad": 80.0}}}
MATERIALS_RUNS = [
    ["locate", "--config", "materials.json", *query, *theory]
    for query in (["--kind", "atr", "--bracket", "1:100"],
                  ["--var", "omega", "--kind", "squeeze_crossing", "--bracket", "300:1500"])
    for theory in ([], ["--theory", "effective"])]


_EVERY_FAMILY = ["--obs", "scattering,eigenvalues,noise,variance,mandel,eta"]
DEFAULT_SIZE_RUNS = [
    ["compare"],
    ["compare", "--preset", "set2", *_EVERY_FAMILY],
    ["compare", "--preset", "set1", "--omega-trad", "1000", "--range", "1:1000:2000",
     *_EVERY_FAMILY],
]

# the README's flux-kind locate queries in paper mode and at 300 K, where the
# paper mode's K scale and the thermal E term (0 at 0 K) reach the root
FLUX_LOCATE_RUNS = [
    argv + extra
    for argv in (shlex.split(command)[1:] for command in COMMANDS)
    if argv[0] == "locate" and argv[argv.index("--kind") + 1] in ("squeeze_crossing",
                                                                   "mandel_crossing")
    for extra in (["--mode", "paper"], ["--temperature-k", "300"])]


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
            + [["locate", "--help"]] + ERROR_RUNS + MATERIALS_RUNS + DEFAULT_SIZE_RUNS
            + FLUX_LOCATE_RUNS)


def digest(argv: list[str], scratch: Path) -> str:
    """SHA-256 of the exit code, stdout, stderr and --out file of one run."""
    run_argv, out_file = list(argv), None
    for flag in ("--config", "--out"):   # files in the scratch directory
        if flag in run_argv:
            i = run_argv.index(flag) + 1
            run_argv[i] = str(scratch / Path(run_argv[i]).name)
    if "--out" in run_argv:
        out_file = run_argv[run_argv.index("--out") + 1]
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
        (Path(scratch) / "materials.json").write_text(json.dumps(MATERIALS))
        for argv in runs():
            print(digest(argv, Path(scratch)), shlex.join(argv), flush=True)


if __name__ == "__main__":
    main()
