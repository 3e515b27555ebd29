"""Properties of the CLI. Whatever flags and config keys it is given, it ends
with an exit code and at most one stderr line, never with a traceback or a
numpy warning. And --check only checks: a run that evaluates gives the same
output with the sum rule checked.

Argv lists are drawn from each subcommand's flags and from every config key,
with IEEE extremes among the numbers. Every grid has at most four points,
and each run is an in-process cli_main call.
"""

import contextlib
import io
import json
import tempfile
import warnings
from pathlib import Path

from hypothesis import example, given, settings
from hypothesis import strategies as st

from ptbilayer.grid import OBSERVABLE_ORDER
from ptbilayer.sweep_cli import THEORIES, THRESHOLD_KINDS, VARIABLES, cli_main

# values a run can evaluate, and IEEE extremes: signed zeros, subnormals, the
# largest finite values, and the non-finite values as strings
ORDINARY = ("0.5", "1", "2", "10", "24", "100", "300", "700", "1000")
EXTREME = ("0", "-0.0", "5e-324", "-5e-324", "2.2250738585072014e-308", "1e-310", "1e308",
           "-1e308", "1.7976931348623157e308", "nan", "inf", "-inf", "-1", "400")


def one_in(n, usual, unusual):
    """Draws one of the unusual values about one time in n, a usual one otherwise."""
    return st.sampled_from(usual * round((n - 1) * len(unusual) / len(usual)) + unusual)


# about one number in four is extreme, and one count in four too small
numbers = one_in(4, ORDINARY, EXTREME)
counts = one_in(4, ("2", "3", "4"), ("-1", "0", "1"))


def flag_table(numbers, tols):
    """Each subcommand's (flag, strategy of its value, or None for a flag
    without one), numbers drawing every number but --tol's."""
    point = [("--preset", st.sampled_from(("set1", "set2"))),
             ("--alpha-l", numbers)]
    stack = [("--omega-trad", numbers), ("--temperature-k", numbers),
             ("--thickness-nm", numbers), ("--mode", st.sampled_from(("full-complex", "paper"))),
             ("--var", st.sampled_from(VARIABLES)), ("--check", None)]
    table = [("--format", st.sampled_from(("csv", "json"))), ("--reproducible", None),
             ("--log", None), ("--linear", None),
             ("--obs", st.lists(st.sampled_from(OBSERVABLE_ORDER), min_size=1).map(",".join))]
    # an --out of OUT is written into the run's temporary directory
    out = [("--out", st.sampled_from(("OUT", "/nonexistent/d/out")))]
    return {
        "sweep": point + stack + table + out + [("--theory", st.sampled_from(THEORIES))],
        "compare": point + stack + table + out,
        "locate": point + stack + out + [("--theory", st.sampled_from(THEORIES)),
                                         ("--tol", tols)],
        "pt-solve": point + out,
        "presets": out,
    }


def config_objects(numbers, counts):
    """Config objects with any subset of the keys, numbers drawing every
    number but the grid's count."""
    json_numbers = numbers.map(float)
    material = st.fixed_dictionaries({
        key: json_numbers for key in ("eps_b", "alpha", "omega0_trad", "gamma_trad")})
    return st.fixed_dictionaries({}, optional={
        "preset": st.sampled_from(("set1", "set2")),
        "materials": st.fixed_dictionaries({"gain": material, "loss": material}),
        "thickness_nm": json_numbers,
        "theory": st.sampled_from(THEORIES),
        "mode": st.sampled_from(("full_complex", "paper_real_part", "full-complex", "paper")),
        "observables": st.lists(st.sampled_from(OBSERVABLE_ORDER), min_size=1),
        "check_sum_rule": st.booleans(),
        "sweep": st.fixed_dictionaries({}, optional={
            "variable": st.sampled_from(VARIABLES), "start": json_numbers,
            "stop": json_numbers, "count": counts.map(int),
            "spacing": st.sampled_from(("linear", "log"))}),
        "fixed": st.fixed_dictionaries({}, optional={
            "omega_trad": json_numbers, "alpha_l": json_numbers,
            "temperature_k": json_numbers}),
        "input_state": st.fixed_dictionaries({}, optional={
            key: json_numbers for key in ("xi", "phi_xi", "w", "phi_rho", "phi_lo")}),
    })


FLAGS = flag_table(numbers, numbers)
CONFIG = config_objects(numbers, counts)


def flag_args(flag, value):
    """flag and its value as argv; a value that starts with '-' takes the = form."""
    if value is None:
        return [flag]
    return [f"{flag}={value}"] if value.startswith("-") else [flag, value]


@st.composite
def invocations(draw, commands=tuple(sorted(FLAGS)), flags=FLAGS, numbers=numbers,
                counts=counts, config=CONFIG):
    """(argv without --config, config object or None) of one of commands."""
    command = draw(st.sampled_from(commands))
    argv = [command]
    for flag, values in draw(st.lists(st.sampled_from(flags[command]), unique=True, max_size=5)):
        argv += flag_args(flag, None if values is None else draw(values))
    ends = sorted(draw(st.lists(numbers, min_size=2, max_size=2, unique=True)), key=float)
    if command in ("sweep", "compare"):   # a grid of at most four points
        argv += flag_args("--range", ":".join((*ends, draw(counts))))
    if command == "locate":
        argv += ["--kind", draw(st.sampled_from(THRESHOLD_KINDS))]
        argv += flag_args("--bracket", ":".join(ends))
    has_config = command not in ("presets",) and draw(st.booleans())
    return argv, draw(config) if has_config else None


def outputs(argv, config):
    """(exit code, whether argparse exited with its usage, stdout, stderr, the
    --out OUT file's bytes or None) of cli_main; an exception or a warning
    propagates."""
    with tempfile.TemporaryDirectory() as tmp:
        out_path = Path(tmp) / "out"
        argv = [str(out_path) if a == "OUT" else a for a in argv]
        if config is not None:
            path = Path(tmp) / "c.json"
            path.write_text(json.dumps(config))
            argv = [*argv, "--config", str(path)]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), \
                warnings.catch_warnings():
            warnings.simplefilter("error")
            try:
                rc = cli_main(argv)
                usage = False
            except SystemExit as exc:
                rc, usage = exc.code, True
        written = out_path.read_bytes() if out_path.exists() else None
    return rc, usage, out.getvalue(), err.getvalue(), written


def run(argv, config):
    """(exit code, whether argparse exited with its usage, stderr) of cli_main."""
    rc, usage, _, err, _ = outputs(argv, config)
    return rc, usage, err


SWEEP = ["--range", "1:2:2", "--omega-trad", "1000"]
SUBNORMAL = {"eps_b": 1.0, "alpha": 700.0, "omega0_trad": 5e-324, "gamma_trad": 300.0}


@settings(max_examples=200)
@given(invocations())
# an input state whose sinh(2 xi) or sinh(xi)^2 overflows, or whose phase
# offsets 2 phi_rho - phi_xi or phi_xi - 2 phi_lo overflow
@example((["sweep", *SWEEP, "--obs", "variance"], {"input_state": {"xi": 400.0}}))
@example((["sweep", *SWEEP, "--obs", "mandel"], {"input_state": {"xi": 400.0}}))
@example((["locate", "--preset", "set2", "--kind", "squeeze_crossing", "--bracket", "10:30"],
          {"input_state": {"xi": 400.0}}))
@example((["sweep", *SWEEP, "--obs", "variance"], {"input_state": {"phi_lo": 1e308}}))
@example((["sweep", *SWEEP, "--obs", "mandel"], {"input_state": {"phi_rho": -1e308}}))
# a cell phase 2 k l that overflows
@example((["sweep", "--range", "0:1:2", "--omega-trad", "1e6", "--thickness-nm", "1e308",
           "--obs", "eta"], None))
@example((["locate", "--kind", "eta_unity", "--bracket", "0:1", "--omega-trad", "1e6",
           "--thickness-nm", "1e308"], None))
@example((["locate", "--kind", "atr", "--bracket", "0:1", "--omega-trad", "1e6",
           "--thickness-nm", "1e308", "--theory", "effective"], None))
# a grid value that rounds past the largest float
@example((["compare", "--range", "2:1.7976931348623157e308:2", "--log"], None))
@example((["compare", "--range", "0:1.7976931348623157e308:4"], None))
# a tol so wide that ITP's eps overflowed; a tol of 1 or more is now refused
@example((["locate", "--tol", "1e308", "--kind", "atr", "--bracket", "0.5:24"], None))
# a paper-mode index whose real part is 0 (the gain permittivity is negative real)
@example((["locate", "--omega-trad", "5e-324", "--mode", "paper", "--kind", "atr",
           "--bracket", "0.5:300"], None))
# a balance frequency that underflows to 0
@example((["pt-solve"], {"materials": {"gain": SUBNORMAL, "loss": SUBNORMAL}}))
def test_the_cli_ends_with_an_exit_code_and_one_error_line(invocation):
    rc, usage, err = run(*invocation)
    assert rc in (0, 2, 3, 4)
    if rc != 0 and not usage:   # argparse prints its usage above the error
        assert err.count("\n") == 1 and err.endswith("\n"), err
    if rc == 0:
        assert err == ""


# runs that mostly evaluate: about one number in 16 is extreme and one count in
# 16 too small, and a locate's tol is one that ITP accepts
mostly_ordinary = one_in(16, ORDINARY, EXTREME)
mostly_counts = one_in(16, ("2", "3", "4"), ("-1", "0", "1"))
CHECKABLE = dict(commands=("compare", "locate", "sweep"),
                 flags=flag_table(mostly_ordinary, st.sampled_from(("1e-12", "1e-9", "1e-6"))),
                 numbers=mostly_ordinary, counts=mostly_counts,
                 config=config_objects(mostly_ordinary, mostly_counts))
PAPER_CHECK = "config error: sum rule check requires full-complex mode\n"


@settings(max_examples=300)
@given(invocations(**CHECKABLE))
# the gain index's real part is subnormal here, so that n''/n' overflows in
# the layer commutator
@example((["locate", "--omega-trad", "2.2250738585072014e-308", "--kind", "atr",
           "--bracket", "0.5:100"], None))
def test_check_leaves_every_evaluating_run_as_it_was(invocation):
    # --check only checks: a run that exits 0 gives the same stdout and --out
    # file with the sum rule checked, or refuses the check in paper mode
    argv, config = invocation
    if argv[0] != "locate":   # a table's timestamp would differ
        argv = [*argv, "--reproducible"]
    plain = outputs(argv, config)
    if plain[0] != 0:
        return
    checked = outputs([*argv, "--check"], config)
    if checked[0] == 2:
        assert checked[3] == PAPER_CHECK
    else:
        assert checked == plain
