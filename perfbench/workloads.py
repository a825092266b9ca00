"""The three benchmark workloads.

Each workload draws the inputs of op ``index`` from (seed, index), runs one op
against the spindimer modules, checks the result, and knows the fresh-process
command that does the same op from the shell (``cold_commands``).  The
spindimer modules are looked up by attribute at call time, so the tracer's
wrappers are seen when installed.
"""

import contextlib
import io
import json
import math
import os

import numpy as np

import reference


def _rng(seed, salt, index):
    return np.random.default_rng([seed, salt, index])


# ------------------------------------------------------------- oracle_ladder

# The op is kept as source text so that the in-process op and the cold
# ``python -c`` op run exactly the same code.
ORACLE_OP_SOURCE = '''
def oracle_op(spin_chain, clusters, grid):
    out = []
    for n_sites, bonds, g in clusters:
        spec = spin_chain.SpinChainSpec(n_sites=n_sites, bonds=bonds, g_factors=(g,) * n_sites)
        out.append([(spin_chain.fluctuation_susceptibility(spec, t),
                     spin_chain.pair_concurrence(spec, t, (0, 1))) for t in grid])
    return out
'''


class OracleLadder:
    """Fresh alternating-bond open chains at 4, 5 and 6 sites against the ED oracle."""

    name = "oracle_ladder"
    SITES = (4, 5, 6)
    GRID = tuple(float(t) for t in np.logspace(np.log10(5.0), np.log10(1000.0), 12))
    CHI_TOL = 1e-10  # in units of the Curie scale g^2 mu_B/k_B * n / (4 T)
    CONCURRENCE_TOL = 1e-8  # absolute

    def __init__(self, spindimer, seed, workdir, fault=0.0):
        namespace = {}
        exec(ORACLE_OP_SOURCE, namespace)
        self._op = namespace["oracle_op"]
        self._spin_chain = spindimer.spin_chain
        self.seed = seed
        self.fault = fault

    def make_input(self, index):
        rng = _rng(self.seed, 1, index)
        clusters = []
        for n_sites in self.SITES:
            g = float(rng.uniform(1.9, 2.3))
            bonds = tuple(
                (site, site + 1,
                 float(rng.uniform(-900.0, -100.0) if site % 2 == 0 else rng.uniform(-60.0, -1.0)))
                for site in range(n_sites - 1)
            )
            clusters.append((n_sites, bonds, g))
        return tuple(clusters)

    def run(self, clusters):
        return self._op(self._spin_chain, clusters, self.GRID)

    def check(self, clusters, out):
        if len(out) != len(clusters):
            return False
        for (n_sites, bonds, g), rows in zip(clusters, out):
            expected = reference.cluster_curves(n_sites, bonds, g, self.GRID)
            if len(rows) != len(expected):
                return False
            for t, (chi, conc), (chi_ref, conc_ref) in zip(self.GRID, rows, expected):
                chi_ref *= 1.0 + self.fault
                conc_ref += self.fault
                curie_scale = g * g * reference.MU_B_OVER_K_B * n_sites / (4.0 * t)
                if not abs(chi - chi_ref) <= self.CHI_TOL * curie_scale:
                    return False
                if not abs(conc - conc_ref) <= self.CONCURRENCE_TOL:
                    return False
        return True

    def cold_commands(self, python, index):
        clusters = self.make_input(index)
        code = (
            "import json\nfrom spindimer import spin_chain\n" + ORACLE_OP_SOURCE
            + f"print(json.dumps(oracle_op(spin_chain, {clusters!r}, {self.GRID!r})))\n"
        )
        return [[python, "-c", code]]

    def check_cold(self, index, results):
        (returncode, stdout), = results
        if returncode != 0:
            return False
        try:
            out = json.loads(stdout.strip().splitlines()[-1])
        except (ValueError, IndexError):
            return False
        return self.check(self.make_input(index), out)


# ------------------------------------------------------------ validate_suite


class ValidateSuite:
    """The equivalence, decoupling and J' suites at a fresh (J, g) per op."""

    name = "validate_suite"
    TOLERANCE = 1e-10
    FAMILIES = {
        "susceptibility", "concurrence", "bell", "chsh_optimum",
        "decoupled_susceptibility", "decoupled_pair_concurrence",
        "decoupled_monomer_concurrence",
    }
    JPRIME_ROWS = 5

    def __init__(self, spindimer, seed, workdir, fault=0.0):
        self._validate = spindimer.validate
        self.seed = seed
        self.fault = fault

    def make_input(self, index):
        rng = _rng(self.seed, 2, index)
        return float(rng.uniform(-1000.0, -50.0)), float(rng.uniform(1.9, 2.3))

    def run(self, inp):
        j_over_kb, g = inp
        validate = self._validate
        extra = {"fault": self.fault} if self.fault else {}
        families = validate.run_equivalence_suite(j_over_kb, g, **extra)
        families += validate.run_decoupling_suite(j_over_kb, g)
        return families, validate.jprime_sweep(j_over_kb, g)

    def check(self, inp, out):
        j_over_kb, _ = inp
        families, rows = out
        if {f.name for f in families} != self.FAMILIES or len(families) != len(self.FAMILIES):
            return False
        if not all(f.max_deviation <= self.TOLERANCE for f in families):
            return False
        if len(rows) != self.JPRIME_ROWS:
            return False
        for ratio, t, oracle, closed, deviation in rows:
            closed_ref = max(0.0, 1.0 - 6.0 / (3.0 + math.exp(-j_over_kb / t)))
            if not (abs(closed - closed_ref) <= 1e-12 and 0.0 <= oracle <= 1.0
                    and deviation == abs(oracle - closed)):
                return False
            if ratio == 0.0 and not deviation <= self.TOLERANCE:
                return False
        return True

    def cold_commands(self, python, index):
        return [[python, "-m", "spindimer", "validate"]]

    def check_cold(self, index, results):
        (returncode, stdout), = results
        lines = stdout.splitlines()
        passed = [line for line in lines if line.endswith("status=PASS")]
        return (returncode == 0 and len(passed) == len(self.FAMILIES)
                and not any(line.endswith("status=FAIL") for line in lines))


# -------------------------------------------------------------- fit_pipeline


def _header_values(path):
    values = {}
    with open(path, encoding="utf-8") as handle:
        for line in handle:
            if line.startswith("#") and "=" in line:
                key, _, value = line[1:].partition("=")
                values[key.strip()] = value.strip()
    return values


def _data_rows(path):
    with open(path, encoding="utf-8") as handle:
        rows = sum(1 for line in handle if line.strip() and not line.startswith("#"))
    return rows - 1  # column header


class FitPipeline:
    """The README flow synth -> fit -> analyze through ``cli.main``."""

    name = "fit_pipeline"
    POINTS = 1000
    GRID = f"2:700:{POINTS}:log"
    J_TOL = 0.01  # relative

    def __init__(self, spindimer, seed, workdir, fault=0.0):
        if fault:
            raise ValueError("fit_pipeline has no fault hook")
        self._cli = spindimer.cli
        self.seed = seed
        self.workdir = workdir

    def make_input(self, index):
        # Ranges where 1 % noise on 1000 points leaves the fitted J within
        # about 0.2 % (1 sigma), so the 1 % check fails only on a real defect.
        rng = _rng(self.seed, 3, index)
        return (float(rng.uniform(-800.0, -200.0)), float(rng.uniform(1.9, 2.3)),
                float(rng.uniform(1e-5, 3e-5)), int(rng.integers(2**31)))

    def _argvs(self, inp, tag):
        j_over_kb, g, curie_c, noise_seed = inp
        data, fit, report = (os.path.join(self.workdir, f"{tag}-{name}.csv")
                             for name in ("data", "fit", "report"))
        return [
            ["synth", f"--j-over-kb={j_over_kb!r}", f"--g={g!r}", f"--curie-c={curie_c!r}",
             f"--grid={self.GRID}", "--noise-rel=0.01", f"--seed={noise_seed}",
             f"--output={data}"],
            ["fit", f"--input={data}", f"--output={fit}"],
            ["analyze", f"--input={data}", f"--params={fit}", f"--output={report}"],
        ]

    def run(self, inp):
        sink = io.StringIO()
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            return [self._cli.main(argv) for argv in self._argvs(inp, "op")]

    def _check_files(self, inp, tag):
        fit_path = os.path.join(self.workdir, f"{tag}-fit.csv")
        report_path = os.path.join(self.workdir, f"{tag}-report.csv")
        try:
            values = _header_values(fit_path)
            j_fit = float(values["j_over_kb_K"])
            rows = _data_rows(report_path)
        except (OSError, KeyError, ValueError):
            return False
        j_true = inp[0]
        return (values.get("converged") == "true"
                and abs(j_fit - j_true) <= self.J_TOL * abs(j_true)
                and rows == self.POINTS)

    def check(self, inp, codes):
        return codes == [0, 0, 0] and self._check_files(inp, "op")

    def cold_commands(self, python, index):
        return [[python, "-m", "spindimer", *argv]
                for argv in self._argvs(self.make_input(index), "cold")]

    def check_cold(self, index, results):
        return (all(returncode == 0 for returncode, _ in results)
                and self._check_files(self.make_input(index), "cold"))


WORKLOADS = {w.name: w for w in (OracleLadder, ValidateSuite, FitPipeline)}
