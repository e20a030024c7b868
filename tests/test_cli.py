import json
import math
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oscilab import cli
from oscilab.cli import (
    AMPLITUDE_TAIL_TOL,
    PRODUCERS,
    RunConfig,
    _csv_cell,
    _fmt,
    _json_text,
    _render,
    main,
)
from oscilab.coherent import CoherentLabel, truncation_tail
from oscilab.fock import OscillatorParams
from oscilab.observables import averages_closedform
from oscilab.wavefunction import default_packet_grid, psi_closed_grid, psi_series_grid

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
    [  # (argv, the option the last stderr line must name)
        (["trajectory", "--dt", "-0.1"], "dt must be positive"),
        (["wavefunction", "--grid-points", "100"], "grid_points"),  # even
        (["wavefunction", "--grid-points", "1"], "grid_points"),
        (["trajectory", "--t-start", "1.0", "--t-end", "0.0"], "t_end"),
        (["trajectory", "--omega", "0"], "omega"),
        (["spectrum", "--n-max", "junk"], "--n-max"),
        (["no-such-command"], "command"),
        (["spectrum", "--format", "xml"], "--format"),
        (["spectrum", "--n-max", "-3"], "--n-max"),
        (["verify", "--seed", "-1"], "seed must be nonnegative"),
    ],
)
def test_invalid_configuration_exits_1(args, capsys):
    argv, named = args
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert named in err.splitlines()[-1]
    assert "Traceback" not in err


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


def test_verify_passes_at_a_forty_digit_seed(capsys):
    assert main(["verify", "--seed", "3141592653589793238462643383279502884197"]) == 0
    captured = capsys.readouterr()
    assert "10/10 criteria passed" in captured.out
    assert captured.err == ""


def test_verify_under_truncated_names_the_culprit(capsys):
    rc = main(["verify", "--chi-re", "3", "--n-max", "4"])
    captured = capsys.readouterr()
    assert rc == 3
    assert "annihilation-eigenstate" in captured.err
    assert "FAIL" in captured.out
    # every sweeping criterion runs at the given n_max, so these two fail too
    assert "ehrenfest-mean-motion" in captured.err
    assert "wave-packet-nondiffusion" in captured.err
    assert "4/10 criteria passed" in captured.out


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


@pytest.mark.parametrize(
    "argv, needed",
    [
        (["spectrum", "--chi-re", "30"], "at least n_max = 1121 "),
        (["wavefunction", "--chi-re", "30"], "at least n_max = 1177 "),
        (["trajectory", "--chi-re", "1e100"], "at least n_max = 9007199254740994 "),
    ],
)
def test_capped_auto_truncation_exits_1(argv, needed, capsys):
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert needed in captured.err
    assert "capped at n_max = 1024" in captured.err
    assert "--n-max" in captured.err
    assert "Traceback" not in captured.err


def test_explicit_n_max_past_the_auto_cap_still_runs(tmp_path):
    out = tmp_path / "spectrum.csv"
    argv = ["spectrum", "--chi-re", "30", "--n-max", "1121", "--output", str(out)]
    assert main(argv) == 0
    _, rows, footers, _ = read_csv(out)
    assert len(rows) == 1122
    assert float(footers[0]["truncation_tail"]) < 1e-12


TRAJECTORY_QUANTITIES = (
    "mean_x", "mean_p", "mean_x2", "mean_p2", "n_avg", "a_avg_re", "a_avg_im",
    "a2_avg_re", "a2_avg_im", "uncertainty", "energy",
)
CONFIG_DEFAULTS = (
    "format={fmt} grid_halfwidth=10 grid_points=2001 hbar=1 mass=1 "
    "n_max={n_max} n_max_source={source} omega=1 seed=0"
)

# The README examples: argv, the echoed config, the column header, the row
# count and the footer keys. Numeric cells are left out on purpose.
README_RUNS = [
    (
        ["trajectory", "--chi-re", "1", "--t-end", "6.283185307179586", "--dt", "0.01"],
        "chi_im=0 chi_re=1 command=trajectory dt=0.01 {defaults} "
        "t_end=6.2831853071795862 t_start=0",
        (16, "auto"),
        ["time"] + [f"{q}_{kind}" for q in TRAJECTORY_QUANTITIES
                    for kind in ("closed", "brute", "diff")],
        629,
        [],
    ),
    (
        ["spectrum", "--chi-re", "1.5", "--chi-im", "-0.25"],
        "chi_im=-0.25 chi_re=1.5 command=spectrum dt=0.01 {defaults} t_end=0 t_start=0",
        (21, "auto"),
        ["n", "prob_coeff", "prob_poisson", "abs_diff"],
        22,
        [["truncation_tail"]],
    ),
    (
        ["uncertainty", "--n-max", "40"],
        "chi_im=0 chi_re=1 command=uncertainty dt=0.01 {defaults} t_end=0 t_start=0",
        (40, "explicit"),
        ["n", "product_exact", "product_bruteforce", "abs_diff"],
        39,
        [["coherent_uncertainty_bruteforce", "coherent_uncertainty_exact", "abs_diff"]],
    ),
    (
        ["wavefunction", "--chi-re", "2", "--t-end", "3.14", "--dt", "1.57"],
        "chi_im=0 chi_re=2 command=wavefunction dt=1.5700000000000001 {defaults} "
        "t_end=3.1400000000000001 t_start=0",
        (34, "auto"),
        ["t", "x", "series_re", "series_im", "closed_re", "closed_im", "abs_diff"],
        3 * 2001,
        [["t", "quadrature_norm", "packet_variance"]] * 3,
    ),
    (
        ["symmetry-check", "--chi-re", "1"],
        "chi_im=0 chi_re=1 command=symmetry-check dt=0.01 {defaults} t_end=0 t_start=0",
        (16, "auto"),
        ["alpha", "h_drift", "n_drift", "a_rotation_error", "a_modulus_drift",
         "xp_energy_drift"],
        17,
        [["max_h_drift", "max_n_drift", "max_a_rotation_error", "max_a_modulus_drift",
          "max_xp_energy_drift"]],
    ),
    (
        ["verify"],
        "chi_im=0 chi_re=0 command=verify dt=0.01 {defaults} t_end=0 t_start=0",
        (0, "auto"),
        ["criterion", "passed", "detail"],
        10,
        [["passed", "total"]],
    ),
]


def _cell(value) -> str:
    return format(value, ".17g") if isinstance(value, float) else str(value)


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize(
    "argv, echo, resolved, columns, count, footer_keys",
    README_RUNS,
    ids=[run[0][0] for run in README_RUNS],
)
def test_readme_command_layout(
    argv, echo, resolved, columns, count, footer_keys, fmt, tmp_path, capsys
):
    out = tmp_path / f"out.{fmt}"
    assert main(argv + ["--format", fmt, "--output", str(out)]) == 0
    capsys.readouterr()
    n_max, source = resolved
    defaults = CONFIG_DEFAULTS.format(fmt=fmt, n_max=n_max, source=source)
    expected_echo = echo.format(defaults=defaults)
    schema = f"oscilab.{argv[0]}.v1"
    if fmt == "csv":
        lines = out.read_text().splitlines()
        assert lines[0] == f"# schema: {schema}"
        assert lines[1] == f"# config: {expected_echo}"
        header, rows, footers, _ = read_csv(out)
        assert header == columns
        assert len(rows) == count
        assert [list(f) for f in footers] == footer_keys
        return
    payload = json.loads(out.read_text())
    assert payload["schema"] == schema
    config = " ".join(f"{k}={_cell(v)}" for k, v in payload["config"].items())
    assert config == expected_echo
    assert len(payload["rows"]) == count
    assert all(list(row) == columns for row in payload["rows"])
    assert [list(f) for f in payload["footer"]] == footer_keys


def test_wavefunction_bytes_do_not_depend_on_the_blas_thread_count():
    def run(threads):
        return subprocess.run(
            [sys.executable, "-m", "oscilab", "wavefunction", "--chi-re", "2",
             "--t-end", "3.14", "--dt", "1.57"],
            capture_output=True,
            text=True,
            env={"PYTHONPATH": SRC, "PATH": "/usr/bin:/bin",
                 "OPENBLAS_NUM_THREADS": threads},
        )

    one, two = run("1"), run("2")
    assert one.returncode == two.returncode == 0, one.stderr + two.stderr
    assert one.stdout.startswith("# schema: oscilab.wavefunction.v1")
    assert one.stdout == two.stdout


def test_verify_refuses_a_capped_auto_truncation():
    result = subprocess.run(
        [sys.executable, "-m", "oscilab", "verify", "--chi-re", "40"],
        capture_output=True,
        text=True,
        env={"PYTHONPATH": SRC, "PATH": "/usr/bin:/bin"},
    )
    assert result.returncode == 1
    assert result.stdout == ""
    assert "at least n_max = 1891 " in result.stderr
    assert "capped at n_max = 1024" in result.stderr
    assert "Traceback" not in result.stderr
    assert "RuntimeWarning" not in result.stderr


def test_overflowing_label_exits_1(capsys):
    assert main(["trajectory", "--chi-re", "1e200"]) == 1
    err = capsys.readouterr().err
    assert "1e+200" in err
    assert "overflows" in err
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "argv, norm",
    [
        (["wavefunction", "--chi-re", "20", "--grid-points", "5"], "2.82095"),
        (["wavefunction", "--grid-halfwidth", "2"], "0.995322"),
    ],
)
def test_wavefunction_refuses_an_unresolved_grid(argv, norm, capsys):
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"quadrature norm {norm} " in captured.err
    assert "--grid-points" in captured.err
    assert "--grid-halfwidth" in captured.err
    assert "Traceback" not in captured.err


def test_wavefunction_accepts_an_honest_under_truncation(tmp_path, capsys):
    # n_max = 4 keeps only 5.5% of the chi = 3 state, and the quadrature says so
    out = tmp_path / "wave.csv"
    assert main(["wavefunction", "--chi-re", "3", "--n-max", "4",
                 "--output", str(out)]) == 0
    _, _, footers, _ = read_csv(out)
    kept = 1.0 - truncation_tail(CoherentLabel(3), 4)
    assert kept < 0.06
    assert float(footers[0]["quadrature_norm"]) == pytest.approx(kept, abs=1e-8)


def test_importing_the_cli_loads_no_scipy():
    code = (
        "import sys, oscilab.cli; "
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    )
    result = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        env={"PYTHONPATH": SRC, "PATH": "/usr/bin:/bin"},
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "[]"


def test_underflowing_amplitudes_exit_1_naming_the_cause(capsys):
    assert main(["wavefunction", "--chi-re", "38", "--n-max", "1200"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "label (38+0j) is too large: its amplitudes underflow" in captured.err
    assert "zero-norm" not in captured.err
    assert "Traceback" not in captured.err


def test_verify_with_underflowing_amplitudes_passes_nothing_on_a_zero_state():
    result = subprocess.run(
        [sys.executable, "-m", "oscilab", "verify", "--chi-re", "40", "--n-max", "10"],
        capture_output=True,
        text=True,
        env={"PYTHONPATH": SRC, "PATH": "/usr/bin:/bin"},
    )
    assert result.returncode == 3
    assert "RuntimeWarning" not in result.stderr
    lines = {line.split()[1]: line for line in result.stdout.splitlines()[:-1]}
    for name in ("annihilation-eigenstate", "propagator-vs-rk4"):
        assert lines[name].startswith("FAIL")
        assert "amplitudes underflow" in lines[name]


def test_wavefunction_rows_match_the_per_scalar_form():
    # the packet-large label: np.abs(series - closed) differs from the scalar
    # abs in 1,367 of these 6,003 cells, np.hypot in none
    config = RunConfig("wavefunction", chi_re=20.0, t_end=0.8, dt=0.4)
    params, label = config.params(), config.label()
    n_max, _ = config.resolve_n_max(AMPLITUDE_TAIL_TOL)
    _, rows, _ = PRODUCERS["wavefunction"][0](config, params, label, n_max)
    expected = []
    for t in (0.0, 0.4, 0.8):
        center = averages_closedform(label, t, params).mean_x
        points = default_packet_grid(params, center=center).points
        series = psi_series_grid(label, points, t, params, n_max)
        closed = psi_closed_grid(label, points, t, params, "complex_center")
        for x, s, c in zip(points, series, closed):
            expected.append(
                (t, float(x), s.real, s.imag, c.real, c.imag, float(abs(s - c)))
            )
    assert len(rows) == len(expected) == 3 * 2001
    assert [tuple(map(_csv_cell, r)) for r in rows] == [
        tuple(map(_fmt, r)) for r in expected
    ]


@pytest.mark.parametrize(
    "value", [0.1, -0.0, 5e-324, 1e300, float("inf"), np.float64(0.1), 7, True, "a,b"]
)
def test_csv_cell_matches_the_general_formatter(value):
    text = _fmt(value)
    if any(ch in text for ch in ',"\n'):
        text = '"' + text.replace('"', '""') + '"'
    assert _csv_cell(value) == text


EDGE_FLOATS = [0.0, -0.0, math.inf, -math.inf, math.nan, 5e-324, -5e-324, 1e16,
               123456789012345678.0, 0.1, 1.0 / 3.0, 2.0**-1074, 1.7976931348623157e308]
CELLS = st.floats() | st.sampled_from(EDGE_FLOATS)


def _data_lines(rows, width):
    config = RunConfig("wavefunction")
    text = _render(config, "wavefunction", [], [f"c{i}" for i in range(width)], rows, [])
    return text.splitlines()[3:]


@settings(deadline=None, max_examples=60)
@given(width=st.integers(1, 8), data=st.data())
def test_all_float_rows_render_as_their_csv_cells(width, data):
    rows = data.draw(st.lists(st.tuples(*[CELLS] * width), max_size=12))
    assert _data_lines(rows, width) == [",".join(map(_csv_cell, row)) for row in rows]


NAMES = st.text(max_size=6) | st.sampled_from(
    ["50%", "%s", "%%", '"q"', "a\\b", "\u00e9"]
)


@settings(deadline=None, max_examples=60)
@given(names=st.lists(NAMES, min_size=1, max_size=6, unique=True), data=st.data())
def test_all_float_rows_render_as_their_json_text(names, data):
    rows = data.draw(st.lists(st.tuples(*[CELLS] * len(names)), max_size=12))
    echo, footer = [("chi_re", 1.5), ("n_max", 4)], [{"t": 0.25}]
    config = RunConfig("wavefunction", format="json")
    expected = _json_text({
        "schema": "oscilab.wavefunction.v1",
        "config": dict(echo),
        "rows": [dict(zip(names, row)) for row in rows],
        "footer": footer,
    }) + "\n"
    assert _render(config, "wavefunction", echo, names, rows, footer) == expected


def test_all_float_rows_skip_the_per_cell_formatter(monkeypatch):
    def refuse(value):
        raise AssertionError("an all-float table reached _csv_cell")

    monkeypatch.setattr(cli, "_csv_cell", refuse)
    rows = [tuple(EDGE_FLOATS), tuple(reversed(EDGE_FLOATS))]
    assert len(_data_lines(rows, len(EDGE_FLOATS))) == 2


@pytest.mark.parametrize(
    "row", [(1, 0.5), (0.5, np.float64(0.25)), (0.5, True), ("a,b", 0.5)]
)
def test_rows_with_a_non_float_cell_keep_the_per_cell_formatter(row):
    assert _data_lines([row, (0.5, 0.5)], 2) == [
        ",".join(map(_csv_cell, row)), "0.5,0.5"
    ]
