"""Command-line interface.

Subcommands::

    analyze     chi / witness / concurrence / Bell curves plus thresholds
    fit         Levenberg-Marquardt fit of (J/k_B, g, C) to a dataset
    synth       synthetic dataset generation (seeded)
    thresholds  critical temperatures for a given coupling
    validate    oracle-vs-closed-form equivalence suites

Exit codes: 0 success, 1 usage error, 2 data error, 3 validation failure.
Every command is deterministic given (input files, flags, seed); outputs
embed the parameters, a config echo and input hashes, so a run can be
reproduced from its artifact alone.
"""

import argparse
import re
import sys

import numpy as np

from . import dimer, fitting, io, two_qubit, validate
from .errors import (
    NotAntiferromagneticError,
    SpinDimerError,
)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_VALIDATION = 3

DEFAULT_GRID = "2:700:200:log"


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # argparse's own pattern (-12, -1.5) takes "-6.9315e2" for a flag.
        self._negative_number_matcher = re.compile(r"^-(\d+\.?\d*|\.\d+)([eE][-+]?\d+)?$")

    # argparse exits with code 2 on bad flags; the exit-code contract
    # reserves 2 for data errors, so usage problems are rethrown instead.
    def error(self, message):
        raise UsageError(message)


def parse_grid(text: str) -> np.ndarray:
    parts = text.split(":")
    if len(parts) not in (3, 4):
        raise UsageError(f"grid must be min:max:count[:log|lin], got {text!r}")
    try:
        t_min = float(parts[0])
        t_max = float(parts[1])
        count = int(parts[2])
    except ValueError:
        raise UsageError(f"grid must be min:max:count[:log|lin], got {text!r}") from None
    mode = parts[3] if len(parts) == 4 else "lin"
    if mode not in ("lin", "log"):
        raise UsageError(f"grid mode must be 'lin' or 'log', got {mode!r}")
    if not (0.0 < t_min < t_max < np.inf and count >= 2):
        raise UsageError(f"grid needs 0 < min < max < inf and count >= 2, got {text!r}")
    if mode == "log":
        return np.logspace(np.log10(t_min), np.log10(t_max), count)
    return np.linspace(t_min, t_max, count)


def _params_from_file(path):
    entries = io.parse_key_values(path)
    values = {}
    mapping = {
        "j_over_kb_K": ("j_over_kb", float),
        "g": ("g", float),
        "curie_c_K_muB_per_FU_Oe": ("curie_c", float),
        "n_spins": ("n_spins", int),
        "spin": ("spin", float),
    }
    for key, (name, cast) in mapping.items():
        if key in entries:
            try:
                values[name] = cast(entries[key])
            except ValueError:
                raise UsageError(f"{path}: bad value for {key}: {entries[key]!r}") from None
    return values


def _model_params(**values) -> dimer.ModelParams:
    """ModelParams from command-line values; invalid values are usage errors."""
    try:
        return dimer.ModelParams(**values)
    except ValueError as exc:
        raise UsageError(str(exc)) from None


def resolve_params(args, require: bool = True):
    """Model parameters from --params file and/or explicit flags (flags win)."""
    values = {}
    if getattr(args, "params", None):
        values.update(_params_from_file(args.params))
    for flag, name in (("j_over_kb", "j_over_kb"), ("g", "g"), ("curie_c", "curie_c"),
                       ("n_spins", "n_spins"), ("spin", "spin")):
        flag_value = getattr(args, flag, None)
        if flag_value is not None:
            values[name] = flag_value
    if "j_over_kb" not in values or "g" not in values:
        if require:
            raise UsageError("model parameters required: --j-over-kb and --g, or --params FILE")
        return None
    values.setdefault("curie_c", 0.0)
    values.setdefault("n_spins", 3)
    values.setdefault("spin", 0.5)
    return _model_params(**values)


def _config_echo(args, names) -> dict:
    echo = {}
    for name in names:
        value = getattr(args, name, None)
        if value is not None:
            echo[f"config_{name}"] = value
    return echo


def _emit(text: str, output_path) -> None:
    if output_path:
        with open(output_path, "w", encoding="utf-8") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)


# ---------------------------------------------------------------- analyze


def _check_epsilon(args) -> None:
    if not 0.0 < args.epsilon < 1.0:
        raise UsageError(f"--epsilon must be in (0, 1), got {args.epsilon}")


def run_analyze(args) -> int:
    params = resolve_params(args)
    _check_epsilon(args)
    provenance = _config_echo(
        args, ("grid", "epsilon", "input", "params", "output")
    )
    provenance["config_command"] = "analyze"

    if args.input:
        dataset = io.parse_dataset(args.input)
        provenance["input_sha256"] = io.file_sha256(args.input)
        provenance["config_field_oe"] = dataset.applied_field
        order = np.argsort(dataset.temperatures, kind="stable")
        temps = dataset.temperatures[order]
        chi_data = dataset.chi[order]
    else:
        temps = parse_grid(args.grid)
        chi_data = None
    if getattr(args, "params", None):
        provenance["params_sha256"] = io.file_sha256(args.params)

    chi_model = dimer.chi_total(params, temps)
    chi_source = chi_model if chi_data is None else chi_data
    # rows with no dimer signal left after the Curie term
    suspicious = temps[chi_source - params.curie_c / temps <= 0.0].tolist()
    witness = two_qubit.witness_from_chi(chi_source, temps, params.g, params.n_spins, params.spin)
    conc = dimer.concurrence_from_chi(chi_source, temps, params)
    bell = dimer.bell_from_chi(chi_source, temps, params)
    data_column = [None] * temps.size if chi_data is None else chi_data.tolist()
    rows = list(zip(temps.tolist(), chi_model.tolist(), data_column,
                    witness.tolist(), conc.tolist(), bell.tolist()))

    try:
        thresholds = dimer.thresholds(params, plateau_epsilon=args.epsilon)
    except NotAntiferromagneticError:
        thresholds = None
        print(
            "warning: J/k_B >= 0 (not antiferromagnetic); thresholds reported absent",
            file=sys.stderr,
        )
    if suspicious:
        print(
            f"warning: {len(suspicious)} row(s) carry no dimer signal "
            "(chi - C/T <= 0); concurrence there is an algebraic limit, not a measurement",
            file=sys.stderr,
        )

    try:
        report = io.EntanglementReport(
            rows=rows,
            params=params,
            thresholds=thresholds,
            provenance=provenance,
            suspicious_temperatures=suspicious,
        )
    except ValueError as exc:  # finite parameters whose curves overflow, e.g. g = 1e154
        raise UsageError(str(exc)) from None
    _emit(io.render_report(report), args.output)
    return EXIT_OK


# -------------------------------------------------------------------- fit


def run_fit(args) -> int:
    dataset = io.parse_dataset(args.input)
    initial = _model_params(
        j_over_kb=args.j_over_kb if args.j_over_kb is not None else -400.0,
        g=args.g if args.g is not None else 2.0,
        curie_c=args.curie_c if args.curie_c is not None else 1e-5,
        n_spins=args.n_spins if args.n_spins is not None else 3,
        spin=args.spin if args.spin is not None else 0.5,
    )
    result = fitting.fit(dataset, initial)
    params = result.params

    lines = ["# spindimer fit report", "# chi_units=muB_per_FU_Oe"]
    lines += io.params_header_lines(params)
    lines += [
        f"# residual_norm={io.format_value(result.residual_norm)}",
        f"# iterations={result.iterations}",
        f"# converged={io.format_value(result.converged)}",
        f"# covariance_j_over_kb={io.format_value(float(result.covariance_diag[0]))}",
        f"# covariance_g={io.format_value(float(result.covariance_diag[1]))}",
        f"# covariance_curie_c={io.format_value(float(result.covariance_diag[2]))}",
        f"# initial_j_over_kb_K={io.format_value(initial.j_over_kb)}",
        f"# initial_g={io.format_value(initial.g)}",
        f"# initial_curie_c_K_muB_per_FU_Oe={io.format_value(initial.curie_c)}",
        f"# input_sha256={io.file_sha256(args.input)}",
        "# config_command=fit",
        f"# config_input={args.input}",
        f"# config_field_oe={io.format_value(dataset.applied_field)}",
    ]
    lines.append("temperature_K,chi_muB_per_FU_Oe,chi_fit_muB_per_FU_Oe,residual")
    fit_curve = fitting.model_chi(params, dataset.temperatures)
    weighted = fitting.residuals(dataset, params)
    for k in range(dataset.n_points):
        lines.append(
            ",".join(
                (
                    io.DATASET_FORMAT.format(dataset.temperatures[k]),
                    io.DATASET_FORMAT.format(dataset.chi[k]),
                    io.REPORT_FORMAT.format(fit_curve[k]),
                    io.REPORT_FORMAT.format(weighted[k]),
                )
            )
        )
    _emit("\n".join(lines) + "\n", args.output)
    if args.output:
        print(
            f"fit: j_over_kb_K={params.j_over_kb!r} g={params.g!r} "
            f"curie_c={params.curie_c!r} converged={str(result.converged).lower()} "
            f"iterations={result.iterations}"
        )
    return EXIT_OK


# ------------------------------------------------------------------ synth


def run_synth(args) -> int:
    params = _model_params(
        j_over_kb=args.j_over_kb if args.j_over_kb is not None else -693.15,
        g=args.g if args.g is not None else 2.21,
        curie_c=args.curie_c if args.curie_c is not None else 7.02e-5,
    )
    grid = parse_grid(args.grid)
    try:
        dataset = fitting.synth_dataset(
            params,
            grid,
            noise_rel=args.noise_rel,
            seed=args.seed,
            applied_field=args.field_oe,
            label=args.label,
        )
    except ValueError as exc:  # noise level or field; the grid is checked above
        raise UsageError(str(exc)) from None
    comments = io.params_header_lines(params)[:3] + [
        "# config_command=synth",
        f"# config_grid={args.grid}",
        f"# config_noise_rel={io.format_value(float(args.noise_rel))}",
        f"# config_seed={args.seed}",
    ]
    text = io.render_dataset(dataset, extra_comments=comments)
    if args.output:
        with open(args.output, "w", encoding="utf-8") as handle:
            handle.write(text)
        print(
            f"synth: {dataset.n_points} points, grid={args.grid}, "
            f"noise_rel={args.noise_rel!r}, seed={args.seed}, output={args.output}"
        )
    else:
        sys.stdout.write(text)
    return EXIT_OK


# ------------------------------------------------------------- thresholds


def run_thresholds(args) -> int:
    _check_epsilon(args)
    params = resolve_params(args, require=False)
    if params is None:
        if args.j_over_kb is None:
            raise UsageError("thresholds requires --j-over-kb (or --params FILE)")
        params = _model_params(
            j_over_kb=args.j_over_kb,
            g=args.g if args.g is not None else 2.0,
            curie_c=args.curie_c if args.curie_c is not None else 0.0,
        )
    try:
        thresholds = dimer.thresholds(params, plateau_epsilon=args.epsilon)
    except NotAntiferromagneticError:
        thresholds = None
        print(
            "warning: J/k_B >= 0 (not antiferromagnetic); thresholds reported absent",
            file=sys.stderr,
        )
    lines = [line[2:] for line in io.threshold_header_lines(thresholds)]
    lines.append(f"j_over_kb_K={io.format_value(float(params.j_over_kb))}")
    text = "\n".join(lines) + "\n"
    sys.stdout.write(text)
    if args.output:
        with open(args.output, "w", encoding="utf-8") as handle:
            handle.write(text)
    return EXIT_OK


# --------------------------------------------------------------- validate


def run_validate(args) -> int:
    families = validate.run_equivalence_suite(fault=args.inject_fault)
    families += validate.run_decoupling_suite()
    lines = ["# spindimer validate report"]
    all_passed = True
    for family in families:
        all_passed &= family.passed
        status = "PASS" if family.passed else "FAIL"
        lines.append(
            f"family={family.name} max_deviation={family.max_deviation:.3e} "
            f"tolerance={family.tolerance:.1e} points={family.n_points} status={status}"
        )
    lines.append("# dimer-monomer coupling sweep at 100 K")
    lines.append(
        "jprime_ratio,temperature_K,pair_concurrence,closed_concurrence,abs_deviation"
    )
    for row in validate.jprime_sweep():
        lines.append(",".join(io.REPORT_FORMAT.format(value) for value in row))
    text = "\n".join(lines) + "\n"
    sys.stdout.write(text)
    if args.output:
        with open(args.output, "w", encoding="utf-8") as handle:
            handle.write(text)
    return EXIT_OK if all_passed else EXIT_VALIDATION


# ------------------------------------------------------------------- main


def _add_param_flags(sub, include_witness=True):
    sub.add_argument("--j-over-kb", type=float, default=None,
                     help="exchange coupling J/k_B in K (negative = antiferromagnetic)")
    sub.add_argument("--g", type=float, default=None, help="Lande g-factor")
    sub.add_argument("--curie-c", type=float, default=None,
                     help="monomer Curie constant in K muB/FU/Oe")
    if include_witness:
        sub.add_argument("--n-spins", type=int, default=None,
                         help="witness normalization: spins per formula unit (default 3)")
        sub.add_argument("--spin", type=float, default=None,
                         help="witness normalization: spin quantum number (default 0.5)")


def build_parser() -> _Parser:
    parser = _Parser(prog="spindimer", description=__doc__,
                     formatter_class=argparse.RawDescriptionHelpFormatter)
    commands = parser.add_subparsers(dest="command", required=True)

    analyze = commands.add_parser("analyze", help="entanglement curves and thresholds")
    _add_param_flags(analyze)
    analyze.add_argument("--params", default=None,
                         help="read model parameters from a fit/analyze output file")
    analyze.add_argument("--input", default=None, help="measured dataset CSV")
    analyze.add_argument("--output", default=None, help="report file (default stdout)")
    analyze.add_argument("--grid", default=DEFAULT_GRID,
                         help="temperature grid min:max:count[:log|lin]")
    analyze.add_argument("--epsilon", type=float, default=0.01,
                         help="plateau definition: concurrence >= 1-epsilon")
    analyze.set_defaults(func=run_analyze)

    fit_cmd = commands.add_parser("fit", help="fit (J/k_B, g, C) to a dataset")
    _add_param_flags(fit_cmd)
    fit_cmd.add_argument("--input", required=True, help="dataset CSV to fit")
    fit_cmd.add_argument("--output", default=None, help="fit report file (default stdout)")
    fit_cmd.set_defaults(func=run_fit)

    synth = commands.add_parser("synth", help="generate a synthetic dataset")
    _add_param_flags(synth, include_witness=False)
    synth.add_argument("--grid", default=DEFAULT_GRID,
                       help="temperature grid min:max:count[:log|lin]")
    synth.add_argument("--noise-rel", type=float, default=0.0,
                       help="relative gaussian noise level (default 0)")
    synth.add_argument("--seed", type=int, default=0, help="RNG seed")
    synth.add_argument("--field-oe", type=float, default=100.0,
                       help="applied field metadata in Oe (default 100)")
    synth.add_argument("--label", default="synthetic", help="dataset label")
    synth.add_argument("--output", default=None, help="dataset file (default stdout)")
    synth.set_defaults(func=run_synth)

    thresholds_cmd = commands.add_parser("thresholds", help="critical temperatures")
    _add_param_flags(thresholds_cmd, include_witness=False)
    thresholds_cmd.add_argument("--params", default=None,
                                help="read parameters from a fit/analyze output file")
    thresholds_cmd.add_argument("--epsilon", type=float, default=0.01,
                                help="plateau definition: concurrence >= 1-epsilon")
    thresholds_cmd.add_argument("--output", default=None, help="also write to this file")
    thresholds_cmd.set_defaults(func=run_thresholds)

    validate_cmd = commands.add_parser("validate",
                                       help="oracle vs closed-form equivalence suites")
    validate_cmd.add_argument("--output", default=None, help="also write to this file")
    validate_cmd.add_argument("--inject-fault", type=float, default=0.0,
                              help=argparse.SUPPRESS)
    validate_cmd.set_defaults(func=run_validate)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (SpinDimerError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())
