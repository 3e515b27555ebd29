"""The benchmark's workloads: operation lists generated from a seed.

An operation is one ``ptbilayer`` command line, run in-process through
``sweep_cli.cli_main``. Sweep grids are fixed (the README figure grids and the
families named in ``benchmarks/README.md``), so every table can be compared
with its stored reference at any seed; the seed decides the order of the
operations in each pass and which rows the invariant checks sample. The
locate workload draws every bracket from the seed, inside the README bracket
and around the README root.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

ALL_EXACT = "scattering,eigenvalues,noise,variance,mandel"
ALL_FAMILIES = ALL_EXACT + ",eta"


@dataclass(frozen=True)
class Sweep:
    """One ``sweep`` or ``compare`` command with a fixed grid."""

    name: str
    command: str                 # "sweep" | "compare"
    preset: str
    variable: str                # "alpha_l" | "omega" | "temperature"
    grid: str                    # START:STOP:COUNT
    obs: str
    fmt: str                     # "csv" | "json"
    spacing: str | None = None   # "log" | "linear" | None (CLI default)
    omega_trad: float | None = None
    alpha_l: float | None = None
    thickness_nm: float | None = None
    paper_mode: bool = False
    check: bool = False

    def argv(self) -> list[str]:
        argv = [self.command, "--preset", self.preset, "--var", self.variable,
                "--range", self.grid, "--obs", self.obs, "--format", self.fmt,
                "--reproducible"]
        if self.spacing:
            argv.append("--" + self.spacing)
        if self.omega_trad is not None:
            argv += ["--omega-trad", repr(self.omega_trad)]
        if self.alpha_l is not None:
            argv += ["--alpha-l", repr(self.alpha_l)]
        if self.thickness_nm is not None:
            argv += ["--thickness-nm", repr(self.thickness_nm)]
        if self.paper_mode:
            argv += ["--mode", "paper"]
        if self.check:
            argv.append("--check")
        return argv

    @property
    def balanced(self) -> bool:
        """True when every row is a balanced (PT-symmetric) full-mode stack.

        The set1 pair is balanced at its shared resonance, 1000 Trad/s, for
        every loss amplitude; there generalized conservation holds exactly.
        """
        return (self.preset == "set1" and self.variable == "alpha_l"
                and self.omega_trad == 1000.0 and not self.paper_mode)


@dataclass(frozen=True)
class Locate:
    """One README ``locate`` query.

    ``root`` is the abscissa the README bracket gives at the commit that
    defined the benchmark (``make_reference.py`` checks it). Brackets are
    jittered around it, and the gate checks every located root against it.
    """

    name: str
    preset: str
    kind: str
    variable: str
    bracket: tuple[float, float]
    root: float
    omega_trad: float | None = None
    alpha_l: float | None = None

    def argv(self, lo: float, hi: float) -> list[str]:
        argv = ["locate", "--preset", self.preset, "--kind", self.kind,
                "--var", self.variable, "--bracket", f"{lo!r}:{hi!r}"]
        if self.omega_trad is not None:
            argv += ["--omega-trad", repr(self.omega_trad)]
        if self.alpha_l is not None:
            argv += ["--alpha-l", repr(self.alpha_l)]
        return argv

    def jittered_bracket(self, rng: random.Random) -> tuple[float, float]:
        # Each end moves at most 80% of the way toward the README root, so
        # the root stays inside with a margin and the sign change is clear.
        a, b = self.bracket
        return (a + 0.8 * rng.random() * (self.root - a),
                b - 0.8 * rng.random() * (b - self.root))


SWEEP_EXACT = (
    Sweep("fig_scatter", "sweep", "set1", "alpha_l", "1:1000:500", "scattering",
          "csv", spacing="log", omega_trad=1000.0),
    Sweep("fig_eigen", "sweep", "set1", "alpha_l", "800:1000:401", "eigenvalues",
          "csv", spacing="linear", omega_trad=1000.0),
    Sweep("fig_vq", "sweep", "set1", "alpha_l", "0.5:1000:500", "variance,mandel",
          "csv", spacing="log", omega_trad=1000.0),
    Sweep("fig_vw", "sweep", "set1", "omega", "200:2000:600", "variance,mandel",
          "csv", alpha_l=24.0),
    Sweep("exact_families_check", "sweep", "set1", "alpha_l", "0.5:1000:500",
          ALL_EXACT, "json", spacing="log", omega_trad=1000.0, check=True),
    # every row shares one stack and frequency, so a cache of indices and
    # chains would serve all 500 rows
    Sweep("temperature", "sweep", "set1", "temperature", "0:600:500", ALL_EXACT,
          "json", omega_trad=500.0, alpha_l=24.0),
    Sweep("set2_paper", "sweep", "set2", "alpha_l", "0.1:30:500", ALL_EXACT,
          "csv", paper_mode=True),
)

COMPARE_EFFECTIVE = (
    Sweep("cmp", "compare", "set1", "alpha_l", "0:100:201", "variance,mandel",
          "csv", omega_trad=1000.0),
    Sweep("compare_set1", "compare", "set1", "alpha_l", "0:200:201", ALL_FAMILIES,
          "json", omega_trad=1000.0),
    Sweep("compare_set2", "compare", "set2", "alpha_l", "0.1:30:201", ALL_FAMILIES,
          "json"),
    Sweep("fig_eta", "sweep", "set1", "alpha_l", "1:200:400", "eta", "csv",
          omega_trad=1000.0),
    # 100 nm layers: about half the rows end in BranchAmbiguity or
    # SingularTransfer, which exercises the per-row failure path
    Sweep("thick_compare", "compare", "set1", "alpha_l", "1:1000:200",
          ALL_FAMILIES, "csv", spacing="log", omega_trad=1000.0,
          thickness_nm=100.0),
)

LOCATE_THRESHOLDS = (
    Locate("atr", "set1", "atr", "alpha_l", (5.0, 50.0), 23.70675860387564,
           omega_trad=1000.0),
    Locate("accidental_degeneracy", "set1", "accidental_degeneracy", "alpha_l",
           (30.0, 80.0), 51.90108626818983, omega_trad=1000.0),
    Locate("exceptional_point", "set1", "exceptional_point", "alpha_l",
           (850.0, 950.0), 889.7228200687096, omega_trad=1000.0),
    Locate("eta_unity", "set1", "eta_unity", "alpha_l", (100.0, 200.0),
           146.8521464674268, omega_trad=1000.0),
    Locate("squeeze_crossing_omega", "set1", "squeeze_crossing", "omega",
           (650.0, 810.0), 722.729075346142, alpha_l=24.0),
    Locate("mandel_crossing", "set1", "mandel_crossing", "alpha_l", (1.0, 10.0),
           4.89356581355969, omega_trad=1000.0),
    Locate("squeeze_crossing_set2", "set2", "squeeze_crossing", "alpha_l",
           (10.0, 30.0), 17.86418162926566),
)

WORKLOADS = {
    "sweep-exact": SWEEP_EXACT,
    "compare-effective": COMPARE_EFFECTIVE,
    "locate-thresholds": LOCATE_THRESHOLDS,
}


@dataclass(frozen=True)
class Operation:
    """One generated command line and what its output is checked against."""

    spec: Sweep | Locate
    argv: list[str]
    bracket: tuple[float, float] | None = None   # locate only


def make_pass(workload: str, rng: random.Random) -> list[Operation]:
    """One cycle through the workload's operations, in a seeded order."""
    specs = list(WORKLOADS[workload])
    rng.shuffle(specs)
    ops = []
    for spec in specs:
        if isinstance(spec, Locate):
            lo, hi = spec.jittered_bracket(rng)
            ops.append(Operation(spec, spec.argv(lo, hi), (lo, hi)))
        else:
            ops.append(Operation(spec, spec.argv()))
    return ops
