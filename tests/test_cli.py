"""Dataset parsing, report formats and CLI contract tests.

Exit-code contract: 0 success, 1 usage error, 2 data error,
3 validation failure.
"""

import contextlib
import io
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import spindimer
from spindimer.cli import main, parse_grid
from spindimer.dimer import ModelParams, chi_total
from spindimer.errors import (
    EmptyDatasetError,
    MalformedRowError,
    NonPositiveTemperatureError,
)
from spindimer.fitting import SusceptibilityDataset, synth_dataset
from spindimer.io import file_sha256, parse_dataset, parse_key_values, write_dataset

PAPER_LIKE = ModelParams(j_over_kb=-693.15, g=2.21, curie_c=7.02e-5)


def write_text(path, text):
    path.write_text(text, encoding="utf-8")
    return str(path)


def report_rows(path):
    rows = []
    header = None
    for line in open(path, encoding="utf-8"):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if header is None:
            header = line.split(",")
            continue
        rows.append(dict(zip(header, (float(cell) for cell in line.split(",")))))
    return header, rows


class TestParseDataset:
    def test_minimal_two_line_file(self, tmp_path):
        path = write_text(
            tmp_path / "tiny.csv", "temperature_K,chi_muB_per_FU_Oe\n300,2.34e-7\n"
        )
        ds = parse_dataset(path)
        assert ds.n_points == 1
        assert ds.temperatures[0] == 300.0
        assert ds.chi[0] == 2.34e-7
        assert ds.applied_field == 100.0  # default

    def test_malformed_row_reports_line_number(self, tmp_path):
        path = write_text(
            tmp_path / "bad.csv", "temperature_K,chi_muB_per_FU_Oe\nabc,1\n"
        )
        with pytest.raises(MalformedRowError) as err:
            parse_dataset(path)
        assert err.value.line_number == 2

    def test_wrong_field_count_reports_line_number(self, tmp_path):
        path = write_text(
            tmp_path / "bad.csv",
            "temperature_K,chi_muB_per_FU_Oe\n10,1e-6\n20,1e-6,0.1\n",
        )
        with pytest.raises(MalformedRowError) as err:
            parse_dataset(path)
        assert err.value.line_number == 3

    def test_nonpositive_temperature_reports_line_number(self, tmp_path):
        path = write_text(
            tmp_path / "bad.csv",
            "temperature_K,chi_muB_per_FU_Oe\n10,1e-6\n-5,1e-6\n",
        )
        with pytest.raises(NonPositiveTemperatureError) as err:
            parse_dataset(path)
        assert "line 3" in str(err.value)

    def test_empty_dataset(self, tmp_path):
        path = write_text(tmp_path / "empty.csv", "temperature_K,chi_muB_per_FU_Oe\n")
        with pytest.raises(EmptyDatasetError):
            parse_dataset(path)

    def test_bad_header(self, tmp_path):
        path = write_text(tmp_path / "bad.csv", "T,chi\n10,1e-6\n")
        with pytest.raises(MalformedRowError):
            parse_dataset(path)

    def test_field_comment_and_sigma(self, tmp_path):
        path = write_text(
            tmp_path / "ds.csv",
            "# field_Oe=250\ntemperature_K,chi_muB_per_FU_Oe,sigma\n10,1e-6,1e-8\n",
        )
        ds = parse_dataset(path)
        assert ds.applied_field == 250.0
        assert ds.sigma is not None and ds.sigma[0] == 1e-8

    def test_nonpositive_sigma_rejected(self, tmp_path):
        path = write_text(
            tmp_path / "ds.csv",
            "temperature_K,chi_muB_per_FU_Oe,sigma\n10,1e-6,0\n",
        )
        with pytest.raises(MalformedRowError):
            parse_dataset(path)

    def test_extra_columns_ignored(self, tmp_path):
        path = write_text(
            tmp_path / "wide.csv",
            "temperature_K,chi_muB_per_FU_Oe,concurrence\n10,1e-6,0.5\n",
        )
        ds = parse_dataset(path)
        assert ds.n_points == 1 and ds.chi[0] == 1e-6

    def test_round_trip_bit_exact(self, tmp_path):
        rng = np.random.default_rng(31)
        ds = SusceptibilityDataset(
            temperatures=np.sort(rng.uniform(2.0, 700.0, 40)),
            chi=rng.uniform(1e-8, 1e-4, 40),
            sigma=rng.uniform(1e-9, 1e-6, 40),
            applied_field=123.456,
            label="round-trip",
        )
        path = tmp_path / "rt.csv"
        write_dataset(ds, path)
        back = parse_dataset(path)
        assert np.array_equal(back.temperatures, ds.temperatures)
        assert np.array_equal(back.chi, ds.chi)
        assert np.array_equal(back.sigma, ds.sigma)
        assert back.applied_field == ds.applied_field
        assert back.label == ds.label

    def test_write_parse_write_is_identical(self, tmp_path):
        ds = synth_dataset(PAPER_LIKE, np.logspace(0.5, 2.5, 25), 0.01, seed=2)
        first = tmp_path / "a.csv"
        second = tmp_path / "b.csv"
        write_dataset(ds, first)
        write_dataset(parse_dataset(first), second)
        assert first.read_bytes() == second.read_bytes()


class TestGridParsing:
    def test_linear_and_log(self):
        lin = parse_grid("2:10:5")
        assert np.allclose(lin, [2.0, 4.0, 6.0, 8.0, 10.0])
        log = parse_grid("1:100:3:log")
        assert np.allclose(log, [1.0, 10.0, 100.0])

    def test_rejects_malformed(self):
        from spindimer.cli import UsageError

        for text in ("5", "2:1:10", "0:10:5", "2:10:1", "2:10:5:geo", "a:b:c",
                     "1:inf:5", "nan:10:5", "1:nan:5:log"):
            with pytest.raises(UsageError):
                parse_grid(text)


class TestAnalyzeCommand:
    def test_model_report_row_at_300k(self, tmp_path, capsys):
        out = tmp_path / "report.csv"
        code = main(
            [
                "analyze",
                "--j-over-kb", "-693.15",
                "--g", "2.21",
                "--curie-c", "7.02e-5",
                "--grid", "2:350:175:lin",
                "--output", str(out),
            ]
        )
        assert code == 0
        header, rows = report_rows(out)
        assert header == [
            "temperature_K",
            "chi_muB_per_FU_Oe",
            "entanglement_witness",
            "concurrence",
            "bell_mean_abs",
        ]
        row = next(r for r in rows if r["temperature_K"] == 300.0)
        assert row["concurrence"] == pytest.approx(0.5412655747558088, abs=1e-4)
        assert row["bell_mean_abs"] == pytest.approx(1.963429197135841, abs=1e-4)
        assert row["entanglement_witness"] == pytest.approx(-0.2662219950813829, abs=1e-4)
        assert row["chi_muB_per_FU_Oe"] == pytest.approx(
            chi_total(PAPER_LIKE, 300.0), rel=1e-10
        )

    def test_threshold_header_lines(self, tmp_path):
        out = tmp_path / "report.csv"
        assert main(
            ["analyze", "--j-over-kb", "-693.15", "--g", "2.21", "--output", str(out)]
        ) == 0
        entries = parse_key_values(out)
        assert float(entries["T_e_K"]) == pytest.approx(630.9323199363922, abs=1e-6)
        assert float(entries["T_bell_K"]) == pytest.approx(292.9376384703577, abs=1e-6)
        assert float(entries["T_plateau_K"]) == pytest.approx(108.4416439862282, abs=1e-6)

    def test_rows_sorted_and_finite(self, tmp_path):
        out = tmp_path / "report.csv"
        assert main(
            ["analyze", "--j-over-kb", "-693.15", "--g", "2.21", "--output", str(out)]
        ) == 0
        _, rows = report_rows(out)
        temps = [r["temperature_K"] for r in rows]
        assert temps == sorted(temps)
        for row in rows:
            assert all(np.isfinite(v) for v in row.values())

    def test_ferromagnetic_reports_absent_thresholds_with_exit_zero(
        self, tmp_path, capsys
    ):
        out = tmp_path / "report.csv"
        code = main(
            ["analyze", "--j-over-kb", "100.0", "--g", "2.0", "--output", str(out)]
        )
        assert code == 0
        assert parse_key_values(out).get("thresholds") == "absent"
        assert "warning" in capsys.readouterr().err

    def test_analyze_with_measured_data(self, tmp_path):
        data = tmp_path / "data.csv"
        ds = synth_dataset(PAPER_LIKE, np.linspace(50.0, 350.0, 31), 0.0, seed=0)
        write_dataset(ds, data)
        out = tmp_path / "report.csv"
        code = main(
            [
                "analyze",
                "--j-over-kb", "-693.15",
                "--g", "2.21",
                "--curie-c", "7.02e-5",
                "--input", str(data),
                "--output", str(out),
            ]
        )
        assert code == 0
        header, rows = report_rows(out)
        assert "chi_data_muB_per_FU_Oe" in header
        assert len(rows) == 31
        row = next(r for r in rows if abs(r["temperature_K"] - 300.0) < 1e-9)
        # noiseless data equals the model, so data-derived curves match closed forms
        assert row["concurrence"] == pytest.approx(0.5412655747558088, rel=1e-9)
        entries = parse_key_values(out)
        assert entries["input_sha256"] == file_sha256(data)

    def test_dead_dimer_rows_flagged_suspicious(self, tmp_path, capsys):
        data = tmp_path / "data.csv"
        write_text(
            data,
            "temperature_K,chi_muB_per_FU_Oe\n"
            "200,3.51e-7\n"  # exactly C/T: no dimer signal
            "300,4.0121982727584575e-07\n",
        )
        out = tmp_path / "report.csv"
        code = main(
            [
                "analyze",
                "--j-over-kb", "-693.15",
                "--g", "2.21",
                "--curie-c", "7.02e-5",
                "--input", str(data),
                "--output", str(out),
            ]
        )
        assert code == 0
        entries = parse_key_values(out)
        assert int(entries["suspicious_rows"]) == 1
        assert "no dimer signal" in capsys.readouterr().err
        _, rows = report_rows(out)
        flagged = next(r for r in rows if r["temperature_K"] == 200.0)
        assert flagged["concurrence"] == 1.0  # algebraic limit, flagged above

    def test_witness_normalization_flags(self, tmp_path):
        # N=2, S=1/2 on the pure dimer makes EW = -concurrence where entangled
        out = tmp_path / "report.csv"
        code = main(
            [
                "analyze",
                "--j-over-kb", "-693.15",
                "--g", "2.21",
                "--n-spins", "2",
                "--grid", "100:300:3:lin",
                "--output", str(out),
            ]
        )
        assert code == 0
        _, rows = report_rows(out)
        for row in rows:
            assert row["entanglement_witness"] == pytest.approx(
                -row["concurrence"], abs=1e-10
            )

    def test_sigma_column_accepted_on_analyze_input(self, tmp_path):
        data = write_text(
            tmp_path / "data.csv",
            "temperature_K,chi_muB_per_FU_Oe,sigma\n300,4.0121982727584575e-07,1e-9\n",
        )
        out = tmp_path / "report.csv"
        code = main(
            [
                "analyze",
                "--j-over-kb", "-693.15",
                "--g", "2.21",
                "--curie-c", "7.02e-5",
                "--input", data,
                "--output", str(out),
            ]
        )
        assert code == 0
        _, rows = report_rows(out)
        assert rows[0]["concurrence"] == pytest.approx(0.5412655747558088, rel=1e-9)

    def test_missing_params_is_usage_error(self, capsys):
        assert main(["analyze", "--g", "2.21"]) == 1

    def test_missing_input_is_data_error(self, tmp_path, capsys):
        code = main(
            [
                "analyze",
                "--j-over-kb", "-693.15",
                "--g", "2.21",
                "--input", str(tmp_path / "absent.csv"),
            ]
        )
        assert code == 2

    def test_deterministic_output_bytes(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        flags = ["analyze", "--j-over-kb", "-693.15", "--g", "2.21", "--grid", "2:700:50:log"]
        assert main(flags + ["--output", str(a)]) == 0
        assert main(flags + ["--output", str(b)]) == 0
        assert a.read_bytes().replace(str(a).encode(), b"") == b.read_bytes().replace(
            str(b).encode(), b""
        )


class TestPipeline:
    def test_analyze_fit_analyze_round_trip(self, tmp_path):
        first = tmp_path / "model.csv"
        flags = [
            "--j-over-kb", "-693.15", "--g", "2.21", "--curie-c", "7.02e-5",
            "--grid", "5:350:60:log",
        ]
        assert main(["analyze"] + flags + ["--output", str(first)]) == 0

        fit_out = tmp_path / "fit.csv"
        assert main(["fit", "--input", str(first), "--output", str(fit_out)]) == 0
        entries = parse_key_values(fit_out)
        assert entries["converged"] == "true"
        assert float(entries["j_over_kb_K"]) == pytest.approx(-693.15, rel=1e-6)
        assert float(entries["g"]) == pytest.approx(2.21, rel=1e-6)
        assert float(entries["curie_c_K_muB_per_FU_Oe"]) == pytest.approx(
            7.02e-5, rel=1e-6
        )

        second = tmp_path / "model2.csv"
        assert main(
            ["analyze", "--params", str(fit_out), "--grid", "5:350:60:log",
             "--output", str(second)]
        ) == 0
        _, rows_a = report_rows(first)
        _, rows_b = report_rows(second)
        for row_a, row_b in zip(rows_a, rows_b):
            for key in row_a:
                assert row_a[key] == pytest.approx(row_b[key], rel=1e-6, abs=1e-9)

    def test_synth_fit_round_trip(self, tmp_path):
        data = tmp_path / "synthetic.csv"
        assert main(
            ["synth", "--grid", "5:350:60:log", "--seed", "42", "--noise-rel", "0.01",
             "--output", str(data)]
        ) == 0
        fit_out = tmp_path / "fit.csv"
        assert main(["fit", "--input", str(data), "--output", str(fit_out)]) == 0
        entries = parse_key_values(fit_out)
        assert float(entries["j_over_kb_K"]) == pytest.approx(-693.15, rel=0.03)
        assert float(entries["g"]) == pytest.approx(2.21, rel=0.03)
        assert float(entries["curie_c_K_muB_per_FU_Oe"]) == pytest.approx(7.02e-5, rel=0.03)

    def test_synth_deterministic(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        flags = ["synth", "--grid", "5:350:20:log", "--seed", "7", "--noise-rel", "0.02"]
        assert main(flags + ["--output", str(a)]) == 0
        assert main(flags + ["--output", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_fit_output_reparses_as_dataset(self, tmp_path):
        data = tmp_path / "synthetic.csv"
        assert main(["synth", "--grid", "5:350:30:log", "--output", str(data)]) == 0
        fit_out = tmp_path / "fit.csv"
        assert main(["fit", "--input", str(data), "--output", str(fit_out)]) == 0
        back = parse_dataset(fit_out)  # column 2 is the measured chi
        original = parse_dataset(data)
        assert np.array_equal(np.sort(back.chi), np.sort(original.chi))


class TestThresholdsCommand:
    def test_prints_entanglement_temperature(self, capsys):
        assert main(["thresholds", "--j-over-kb", "-693.15"]) == 0
        out = capsys.readouterr().out
        assert "T_e_K=630.9" in out
        values = dict(line.split("=", 1) for line in out.strip().splitlines())
        assert float(values["T_e_K"]) == pytest.approx(630.9323199363922, abs=1e-9)
        assert float(values["T_bell_K"]) == pytest.approx(292.9376384703577, abs=1e-9)
        assert float(values["T_plateau_K"]) == pytest.approx(108.4416439862282, abs=1e-9)

    def test_epsilon_flag(self, capsys):
        assert main(["thresholds", "--j-over-kb", "-693.15", "--epsilon", "0.1"]) == 0
        values = dict(
            line.split("=", 1) for line in capsys.readouterr().out.strip().splitlines()
        )
        assert float(values["T_plateau_K"]) == pytest.approx(693.15 / np.log(57.0), rel=1e-12)

    def test_ferromagnetic_absent(self, capsys):
        assert main(["thresholds", "--j-over-kb", "5.0"]) == 0
        captured = capsys.readouterr()
        assert "thresholds=absent" in captured.out
        assert "warning" in captured.err

    @pytest.mark.parametrize(
        "command", [["thresholds"], ["analyze", "--g", "2.21", "--grid", "2:700:20:log"]]
    )
    def test_negative_value_in_scientific_notation(self, command, capsys):
        assert main(command + ["--j-over-kb=-6.9315e2"]) == 0
        joined = capsys.readouterr()
        assert main(command + ["--j-over-kb", "-6.9315e2"]) == 0
        separate = capsys.readouterr()
        assert separate.err == joined.err == ""
        assert separate.out == joined.out
        assert "j_over_kb_K=-693.15" in separate.out

    def test_missing_j_is_usage_error(self, capsys):
        assert main(["thresholds"]) == 1


class TestValidateCommand:
    def test_default_run_passes(self, capsys):
        assert main(["validate"]) == 0
        out = capsys.readouterr().out
        assert out.count("status=PASS") == 7
        assert "status=FAIL" not in out
        table = [line for line in out.splitlines() if line and line[0].isdigit()]
        assert len(table) == 5  # J' sweep rows
        assert all(len(line.split(",")) == 5 for line in table)

    def test_injected_fault_fails_with_exit_3(self, capsys):
        assert main(["validate", "--inject-fault", "1e-6"]) == 3
        assert "status=FAIL" in capsys.readouterr().out


class TestExitCodes:
    def test_usage_error_unknown_flag(self):
        assert main(["analyze", "--bogus"]) == 1

    def test_usage_error_bad_grid(self):
        assert main(["analyze", "--j-over-kb", "-1", "--g", "2", "--grid", "10:2:5"]) == 1

    def test_usage_error_bad_epsilon(self):
        assert main(["analyze", "--j-over-kb", "-1", "--g", "2", "--epsilon", "0"]) == 1
        assert main(["thresholds", "--j-over-kb", "-1", "--epsilon", "1.5"]) == 1

    @pytest.mark.parametrize(
        "argv",
        [
            ["thresholds", "--j-over-kb", "nan"],
            ["analyze", "--j-over-kb", "nan", "--g", "2.2"],
            ["analyze", "--j-over-kb", "-693", "--g", "inf"],
            ["synth", "--curie-c", "nan"],
            ["analyze", "--j-over-kb", "-693", "--g", "2.2", "--grid", "1:inf:5"],
            ["synth", "--grid", "1:inf:5"],
            ["synth", "--noise-rel", "nan"],
            ["synth", "--noise-rel", "inf"],
            ["synth", "--field-oe", "nan"],
            ["synth", "--field-oe", "inf"],
        ],
    )
    def test_usage_error_non_finite_params(self, argv, capsys):
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("usage error:")
        assert len(err.strip().splitlines()) == 1

    def test_usage_error_non_finite_fit_start(self, tmp_path, capsys):
        data = tmp_path / "data.csv"
        write_dataset(synth_dataset(PAPER_LIKE, np.linspace(10.0, 300.0, 8), 0.0, 0), str(data))
        assert main(["fit", "--input", str(data), "--g", "nan"]) == 1
        assert capsys.readouterr().err.startswith("usage error: g must be finite")

    def test_data_error_malformed_file(self, tmp_path, capsys):
        bad = write_text(tmp_path / "bad.csv", "temperature_K,chi_muB_per_FU_Oe\nabc,1\n")
        assert main(["fit", "--input", bad]) == 2

    def test_data_error_too_few_points(self, tmp_path, capsys):
        small = write_text(
            tmp_path / "small.csv",
            "temperature_K,chi_muB_per_FU_Oe\n10,1e-6\n20,1e-6\n",
        )
        assert main(["fit", "--input", small]) == 2

    def test_module_entry_point(self):
        # The child imports the same package as this process, installed or not.
        package_root = str(Path(spindimer.__file__).resolve().parent.parent)
        pythonpath = os.pathsep.join(filter(None, (package_root, os.environ.get("PYTHONPATH"))))
        proc = subprocess.run(
            [sys.executable, "-m", "spindimer", "thresholds", "--j-over-kb", "-693.15"],
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONPATH": pythonpath},
        )
        assert proc.returncode == 0
        assert "T_e_K=630.9" in proc.stdout


# Numeric flag values as a shell passes them: any float as repr() prints it
# (nan, inf, -inf, 1e-300, -0.0, ...) and negatives in scientific notation.
NUMBERS = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True).map(repr),
    st.floats(-1e6, -1e-6).map(lambda value: f"{value:.4e}"),
)
NUMERIC_FLAGS = {
    "thresholds": ("--j-over-kb", "--g", "--curie-c", "--epsilon"),
    "synth": ("--j-over-kb", "--g", "--curie-c", "--noise-rel", "--field-oe"),
    "analyze": ("--j-over-kb", "--g", "--curie-c", "--epsilon", "--spin"),
}


@st.composite
def numeric_argv(draw):
    command = draw(st.sampled_from(sorted(NUMERIC_FLAGS)))
    values = draw(st.dictionaries(st.sampled_from(NUMERIC_FLAGS[command]), NUMBERS))
    argv = [command]
    for flag, value in values.items():
        argv += [f"{flag}={value}"] if draw(st.booleans()) else [flag, value]
    return argv


class TestExitCodeProperty:
    @settings(max_examples=150, deadline=None)
    @example(argv=["synth", "--field-oe", "nan"])
    @example(argv=["analyze", "--j-over-kb", "0.0", "--g", "1.3407807929942597e+154"])
    @given(argv=numeric_argv())
    def test_no_traceback_and_contract_exit_code(self, argv):
        if argv[0] != "thresholds":
            argv = argv + ["--grid", "5:350:8:log"]
        with tempfile.TemporaryDirectory() as workdir:
            output = os.path.join(workdir, "out.csv")
            with contextlib.redirect_stdout(io.StringIO()), \
                    contextlib.redirect_stderr(io.StringIO()):
                code = main(argv + ["--output", output])
            assert code in (0, 1, 2, 3), argv
            if argv[0] == "synth" and code == 0:
                assert parse_dataset(output).n_points == 8, argv
