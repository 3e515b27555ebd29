"""The benchmark's sweeps and README locate queries against its stored
references, through the benchmark's own gate (benchmarks/gate.py)."""

import random
import sys
from pathlib import Path

import pytest

import ptbilayer
from ptbilayer.sweep_cli import cli_main

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "benchmarks"))
import gate  # noqa: E402
import workloads  # noqa: E402

REFERENCE = gate.load_reference()
SWEEPS = [s for specs in workloads.WORKLOADS.values() for s in specs
          if isinstance(s, workloads.Sweep)]


def test_every_reference_table_is_checked():
    assert sorted(s.name for s in SWEEPS) == sorted(REFERENCE["sweeps"])


@pytest.mark.parametrize("spec", SWEEPS, ids=lambda s: s.name)
def test_sweep_matches_its_reference(spec, capsys):
    assert cli_main(spec.argv()) == 0
    table = gate.parse_table(capsys.readouterr().out, spec.fmt)
    assert gate.compare_table(table, REFERENCE["sweeps"][spec.name]) == []
    assert gate.check_invariants(spec, table, random.Random(spec.name), ptbilayer) == []


@pytest.mark.parametrize("spec", workloads.LOCATE_THRESHOLDS, ids=lambda s: s.name)
def test_locate_finds_the_readme_root(spec, capsys):
    assert cli_main(spec.argv(*spec.bracket)) == 0
    assert gate.check_locate(spec, capsys.readouterr().out, spec.bracket) == []
