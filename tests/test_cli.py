import json
import math
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from oscilab.cli import main
from oscilab.coherent import CoherentLabel
from oscilab.fock import OscillatorParams
from oscilab.observables import averages_closedform

SRC = str(Path(__file__).resolve().parents[1] / "src")


def read_csv(path: Path):
    header, rows, footers, config = None, [], [], {}
    for line in path.read_text().splitlines():
        if line.startswith("# footer: "):
            footers.append(
                dict(kv.split("=", 1) for kv in line[len("# footer: "):].split())
            )
        elif line.startswith("# config: "):
            config = dict(
                kv.split("=", 1) for kv in line[len("# config: "):].split()
            )
        elif line.startswith("#"):
            continue
        elif header is None:
            header = line.split(",")
        else:
            rows.append(line.split(","))
    return header, rows, footers, config


def column(header, rows, name):
    idx = header.index(name)
    return np.array([float(r[idx]) for r in rows])


def test_spectrum_vacuum(tmp_path):
    out = tmp_path / "spectrum.csv"
    rc = main(
        ["spectrum", "--chi-re", "0", "--chi-im", "0", "--n-max", "0",
         "--output", str(out)]
    )
    assert rc == 0
    header, rows, footers, _ = read_csv(out)
    assert rows == [["0", "1", "1", "0"]]
    assert float(footers[0]["truncation_tail"]) == 0.0


def test_spectrum_partition_of_unity(tmp_path):
    out = tmp_path / "spectrum.csv"
    assert main(["spectrum", "--output", str(out)]) == 0
    header, rows, footers, config = read_csv(out)
    total = column(header, rows, "prob_coeff").sum()
    tail = float(footers[0]["truncation_tail"])
    assert total + tail == pytest.approx(1.0, abs=1e-12)
    assert config["n_max_source"] == "auto"
    # Poisson column should be indistinguishable from the amplitudes
    assert column(header, rows, "abs_diff").max() < 1e-14
    # |chi|^2 = 1 puts weight exp(-1) on the n = 1 level
    assert column(header, rows, "prob_poisson")[1] == pytest.approx(
        math.exp(-1), rel=1e-14
    )


def test_trajectory_ground_state(tmp_path):
    out = tmp_path / "traj.csv"
    rc = main(
        ["trajectory", "--chi-re", "0", "--chi-im", "0",
         "--t-end", "1.0", "--dt", "0.25", "--output", str(out)]
    )
    assert rc == 0
    header, rows, _, _ = read_csv(out)
    assert len(rows) == 5
    for name in ("mean_x_closed", "mean_x_brute", "mean_p_closed", "mean_p_brute"):
        assert np.all(column(header, rows, name) == 0.0)
    np.testing.assert_allclose(column(header, rows, "uncertainty_brute"), 0.5, atol=1e-12)
    np.testing.assert_allclose(column(header, rows, "uncertainty_closed"), 0.5, atol=0)


def test_trajectory_period_return_and_constant_energy(tmp_path):
    out = tmp_path / "traj.csv"
    period = 2 * math.pi
    rc = main(
        ["trajectory", "--t-end", repr(period), "--dt", repr(period / 32),
         "--output", str(out)]
    )
    assert rc == 0
    header, rows, _, _ = read_csv(out)
    assert len(rows) == 33
    mean_x = column(header, rows, "mean_x_brute")
    assert mean_x[0] == pytest.approx(math.sqrt(2), abs=1e-9)
    assert mean_x[-1] == pytest.approx(math.sqrt(2), abs=1e-9)
    energy = column(header, rows, "energy_brute")
    assert energy.max() - energy.min() < 1e-10
    assert column(header, rows, "energy_diff").max() < 1e-9


def test_wavefunction_footer_and_agreement(tmp_path):
    out = tmp_path / "wave.csv"
    assert main(["wavefunction", "--output", str(out)]) == 0
    header, rows, footers, _ = read_csv(out)
    assert column(header, rows, "abs_diff").max() < 1e-8
    assert len(footers) == 1
    assert float(footers[0]["quadrature_norm"]) == pytest.approx(1.0, abs=1e-8)
    assert float(footers[0]["packet_variance"]) == pytest.approx(0.5, abs=1e-8)


def test_identical_configs_are_byte_identical(tmp_path):
    args = ["spectrum", "--chi-re", "1.5", "--chi-im", "-0.25", "--seed", "3"]
    first, second = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(args + ["--output", str(first)]) == 0
    assert main(args + ["--output", str(second)]) == 0
    assert first.read_bytes() == second.read_bytes()
    jfirst, jsecond = tmp_path / "a.json", tmp_path / "b.json"
    assert main(args + ["--format", "json", "--output", str(jfirst)]) == 0
    assert main(args + ["--format", "json", "--output", str(jsecond)]) == 0
    assert jfirst.read_bytes() == jsecond.read_bytes()


def test_cells_round_trip_to_exact_doubles(tmp_path):
    out = tmp_path / "traj.csv"
    assert main(["trajectory", "--t-end", "0.5", "--dt", "0.25",
                 "--output", str(out)]) == 0
    header, rows, _, _ = read_csv(out)
    params = OscillatorParams()
    label = CoherentLabel(1)
    for row in rows:
        t = float(row[header.index("time")])
        expected = averages_closedform(label, t, params).mean_x
        assert float(row[header.index("mean_x_closed")]) == expected


def test_json_output_structure(tmp_path):
    out = tmp_path / "spectrum.json"
    assert main(["spectrum", "--n-max", "6", "--format", "json",
                 "--output", str(out)]) == 0
    payload = json.loads(out.read_text())
    assert set(payload) == {"schema", "config", "rows", "footer"}
    assert payload["config"]["n_max"] == 6
    assert payload["config"]["n_max_source"] == "explicit"
    assert len(payload["rows"]) == 7
    assert set(payload["rows"][0]) == {"n", "prob_coeff", "prob_poisson", "abs_diff"}
    assert payload["footer"][0]["truncation_tail"] >= 0.0


@pytest.mark.parametrize(
    "args",
    [
        ["trajectory", "--dt", "-0.1"],
        ["wavefunction", "--grid-points", "100"],  # even
        ["wavefunction", "--grid-points", "1"],
        ["trajectory", "--t-start", "1.0", "--t-end", "0.0"],
        ["trajectory", "--omega", "0"],
        ["spectrum", "--n-max", "junk"],
        ["no-such-command"],
    ],
)
def test_invalid_configuration_exits_1(args, capsys):
    assert main(args) == 1
    capsys.readouterr()


@pytest.mark.parametrize(
    ("dt", "requested"), [("1e-300", "6.28e+300"), ("5e-324", "inf")]
)
def test_oversized_sample_count_exits_1_naming_the_cause(dt, requested, capsys):
    assert main(["trajectory", "--dt", dt]) == 1
    err = capsys.readouterr().err
    assert f"asks for {requested} time samples" in err
    assert "the limit is 10000000" in err
    assert "Traceback" not in err


def test_unwritable_output_exits_2(tmp_path, capsys):
    missing = tmp_path / "no" / "such" / "dir" / "out.csv"
    assert main(["spectrum", "--output", str(missing)]) == 2
    capsys.readouterr()


def test_verify_default_passes(capsys):
    assert main(["verify"]) == 0
    out = capsys.readouterr().out
    assert "10/10 criteria passed" in out
    assert "FAIL" not in out


def test_verify_under_truncated_names_the_culprit(capsys):
    rc = main(["verify", "--chi-re", "3", "--n-max", "4"])
    captured = capsys.readouterr()
    assert rc == 3
    assert "annihilation-eigenstate" in captured.err
    assert "FAIL" in captured.out


def test_verify_table_written_to_files(tmp_path, capsys):
    csv_out = tmp_path / "verify.csv"
    json_out = tmp_path / "verify.json"
    assert main(["verify", "--output", str(csv_out)]) == 0
    assert main(["verify", "--format", "json", "--output", str(json_out)]) == 0
    capsys.readouterr()
    header, rows, footers, _ = read_csv(csv_out)
    assert header == ["criterion", "passed", "detail"]
    assert len(rows) == 10
    assert all(row[1] == "true" for row in rows)
    # detail cells contain commas and must come back quoted per RFC-4180
    assert any('"' in line for line in csv_out.read_text().splitlines())
    payload = json.loads(json_out.read_text())
    assert all(row["passed"] is True for row in payload["rows"])
    assert payload["footer"][0] == {"passed": 10, "total": 10}


def test_wavefunction_multiple_times(tmp_path):
    out = tmp_path / "wave.csv"
    rc = main(
        ["wavefunction", "--t-end", "1.0", "--dt", "0.5", "--grid-points", "101",
         "--grid-halfwidth", "8", "--output", str(out)]
    )
    assert rc == 0
    header, rows, footers, _ = read_csv(out)
    assert len(rows) == 3 * 101
    assert len(footers) == 3
    for footer in footers:
        assert float(footer["quadrature_norm"]) == pytest.approx(1.0, abs=1e-8)
        assert float(footer["packet_variance"]) == pytest.approx(0.5, abs=1e-8)
    assert sorted({row[header.index("t")] for row in rows}) == ["0", "0.5", "1"]


def test_symmetry_check_reports_clean_invariance(tmp_path):
    out = tmp_path / "sym.csv"
    assert main(["symmetry-check", "--output", str(out)]) == 0
    _, rows, footers, _ = read_csv(out)
    assert len(rows) == 17
    footer = footers[0]
    assert float(footer["max_h_drift"]) < 1e-10
    assert float(footer["max_n_drift"]) < 1e-10
    assert float(footer["max_a_rotation_error"]) < 1e-12
    assert float(footer["max_xp_energy_drift"]) < 1e-12


def test_uncertainty_command(tmp_path):
    out = tmp_path / "unc.csv"
    assert main(["uncertainty", "--n-max", "20", "--output", str(out)]) == 0
    header, rows, footers, _ = read_csv(out)
    assert len(rows) == 19  # rows stop two levels below the truncation
    assert column(header, rows, "abs_diff").max() < 1e-10
    exact = column(header, rows, "product_exact")
    np.testing.assert_array_equal(exact, np.arange(19) + 0.5)
    assert float(footers[0]["abs_diff"]) < 1e-9


def test_module_entry_point_runs():
    result = subprocess.run(
        [sys.executable, "-m", "oscilab", "spectrum", "--n-max", "4"],
        capture_output=True,
        text=True,
        env={"PYTHONPATH": SRC, "PATH": "/usr/bin:/bin"},
    )
    assert result.returncode == 0
    assert result.stdout.startswith("# schema: oscilab.spectrum.v1")
