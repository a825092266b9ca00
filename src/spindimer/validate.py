"""Oracle-vs-closed-form equivalence suites.

Each family evaluates the exact-diagonalization route and the corresponding
closed form once on the whole temperature grid (both take an array of T)
and reports the maximum relative deviation between them:

* fluctuation susceptibility of the two-site cluster vs the dimer formula,
* reduced-pair concurrence vs the closed concurrence,
* |<B>| of the thermal state (optimal directions) vs the closed Bell curve,
* the direction-set optimum vs |<B>| (certifies the fixed set is optimal),
* the dimer+monomer cluster at J' = 0 vs dimer + Curie superposition.

A J'-sweep table probes how fast the decoupling approximation degrades when
the dimer-monomer coupling is switched on.
"""

from dataclasses import dataclass

import numpy as np

from . import dimer, spin_chain, two_qubit
from .constants import MU_B_OVER_K_B, _float_or_array

DEFAULT_TOLERANCE = 1e-10


def relative_deviation(a, b):
    """|a - b| / max(|a|, |b|) elementwise, 0 where both vanish; scalars give a float."""
    scale = np.maximum(np.abs(a), np.abs(b))
    return _float_or_array(np.abs(a - b) / np.where(scale > 0.0, scale, 1.0))


@dataclass
class FamilyResult:
    """Outcome of one equivalence family."""

    name: str
    max_deviation: float
    tolerance: float
    n_points: int

    @property
    def passed(self) -> bool:
        return self.max_deviation <= self.tolerance


def temperature_grid(t_min: float = 10.0, t_max: float = 1000.0, count: int = 20) -> np.ndarray:
    return np.logspace(np.log10(t_min), np.log10(t_max), count)


def run_equivalence_suite(
    j_over_kb: float = -693.15,
    g: float = 2.21,
    grid=None,
    tolerance: float = DEFAULT_TOLERANCE,
    fault: float = 0.0,
) -> list:
    """Dimer oracle vs closed forms on a temperature grid.

    ``fault`` skews the oracle susceptibility by the given relative amount;
    it exists so the harness can prove it detects discrepancies.
    """
    grid = temperature_grid() if grid is None else np.asarray(grid, dtype=float)
    params = dimer.ModelParams(j_over_kb=j_over_kb, g=g, curie_c=0.0)
    spec = spin_chain.dimer_spec(j_over_kb, g)
    rho = spin_chain.thermal_state(spec, grid)
    chi_oracle = spin_chain.fluctuation_susceptibility(spec, grid) * (1.0 + fault)
    bell_oracle = np.abs(two_qubit.bell_expectation(rho))
    devs = {
        "susceptibility": relative_deviation(chi_oracle, dimer.chi_dimer(params, grid)),
        "concurrence": relative_deviation(
            spin_chain.pair_concurrence(spec, grid, (0, 1)),
            dimer.concurrence_closed(params, grid),
        ),
        "bell": relative_deviation(bell_oracle, dimer.bell_closed(params, grid)),
        "chsh_optimum": relative_deviation(two_qubit.chsh_maximum(rho), bell_oracle),
    }
    return [
        FamilyResult(name, float(np.max(dev)), tolerance, grid.size)
        for name, dev in devs.items()
    ]


def run_decoupling_suite(
    j_over_kb: float = -693.15,
    g: float = 2.21,
    grid=None,
    tolerance: float = DEFAULT_TOLERANCE,
) -> list:
    """Dimer+monomer cluster at J' = 0 vs the superposition closed form."""
    grid = temperature_grid() if grid is None else np.asarray(grid, dtype=float)
    curie_free_spin = g * g * MU_B_OVER_K_B / 4.0
    params = dimer.ModelParams(j_over_kb=j_over_kb, g=g, curie_c=curie_free_spin)
    dimer_params = dimer.ModelParams(j_over_kb=j_over_kb, g=g, curie_c=0.0)
    spec = spin_chain.dimer_plus_monomer_spec(j_over_kb, 0.0, g)
    devs = {
        "decoupled_susceptibility": relative_deviation(
            spin_chain.fluctuation_susceptibility(spec, grid), dimer.chi_total(params, grid)
        ),
        "decoupled_pair_concurrence": relative_deviation(
            spin_chain.pair_concurrence(spec, grid, (0, 1)),
            dimer.concurrence_closed(dimer_params, grid),
        ),
        # uncoupled monomer must share no entanglement with the dimer
        "decoupled_monomer_concurrence": spin_chain.pair_concurrence(spec, grid, (1, 2)),
    }
    return [
        FamilyResult(name, float(np.max(dev)), tolerance, grid.size)
        for name, dev in devs.items()
    ]


def jprime_sweep(
    j_over_kb: float = -693.15,
    g: float = 2.21,
    ratios=(0.0, 0.001, 0.01, 0.05, 0.1),
    temperature: float = 100.0,
) -> list:
    """Rows (ratio, T, oracle pair concurrence, closed concurrence, |dev|)."""
    params = dimer.ModelParams(j_over_kb=j_over_kb, g=g, curie_c=0.0)
    closed = dimer.concurrence_closed(params, temperature)
    rows = []
    for ratio in ratios:
        spec = spin_chain.dimer_plus_monomer_spec(j_over_kb, ratio * j_over_kb, g)
        oracle = spin_chain.pair_concurrence(spec, temperature, (0, 1))
        rows.append((float(ratio), float(temperature), oracle, closed, abs(oracle - closed)))
    return rows
