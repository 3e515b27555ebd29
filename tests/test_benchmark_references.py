"""The benchmark's sweeps and README locate queries against its stored
references, through the benchmark's own gate (benchmarks/gate.py)."""

import random
import sys
from pathlib import Path

import pytest

import ptbilayer
from ptbilayer import sweep_cli
from ptbilayer.sweep_cli import cli_main

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "benchmarks"))
import gate  # noqa: E402
import tracing  # noqa: E402
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


def test_traced_runs_record_spans_and_restore_the_cli(capsys):
    # the benchmark's --trace 1 wraps each function in tracing.TRACED by name,
    # so a renamed one makes every traced run raise AttributeError
    sweep = next(s for s in SWEEPS if s.name == "fig_vq")
    locate = next(s for s in workloads.LOCATE_THRESHOLDS if s.kind == "squeeze_crossing")
    before = ({name: getattr(sweep_cli, name) for name in tracing.TRACED}, sweep_cli.json,
              dict(vars(sweep_cli.ResultTable)))
    tracer = tracing.Tracer()
    with tracer.installed(sweep_cli):
        for op, argv in enumerate((sweep.argv(), locate.argv(*locate.bracket))):
            with tracer.operation(op):
                assert cli_main(argv) == 0
    capsys.readouterr()
    spans = tracer.arrays()
    recorded = {tracer.names[i] for i in spans["name_id"]}
    assert {tracing.ROOT_SPAN, "scattering.transfer_chain", "noise.noise_flux",
            "observables.homodyne_variance", "sweep_cli.json.dumps"} <= recorded
    assert recorded & set(tracing.OUTPUT_SPANS[:2])
    assert set(spans["op"].tolist()) == {0, 1}
    after = ({name: getattr(sweep_cli, name) for name in tracing.TRACED}, sweep_cli.json,
             dict(vars(sweep_cli.ResultTable)))
    assert after == before
