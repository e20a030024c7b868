import argparse
import ast
import contextlib
import ctypes
import importlib.util
import inspect
import io
import json
import math
import re
import resource
import shlex
import subprocess
import sys
import tracemalloc
import types
import warnings
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracle import (
    PhaseAngle,
    default_packet_grid,
    expectation,
    kernel_tables,
    make_hamiltonian,
    make_ladder,
    make_xp,
    rotate_xp,
    transform_state_phase,
)
from oscilab import cli, verify, wavefunction
from oscilab.cli import (
    AMPLITUDE_TAIL_TOL,
    MAX_CELLS,
    PRODUCERS,
    _csv_cell,
    _fmt,
    _json_text,
    _render,
    main,
)
from oscilab.coherent import (
    CoherentLabel,
    coherent_coefficients,
    occupation_probability,
    resolve_n_max,
    truncation_tail,
)
from oscilab.fock import OscillatorParams
from oscilab.observables import (
    averages_bruteforce_fock,
    averages_closedform_batch,
    uncertainty_fock,
)
from oscilab.wavefunction import (
    packet_sweep,
    psi_closed_grid,
    psi_series_grid,
)

SRC = str(Path(__file__).resolve().parents[1] / "src")


def _config(command, *options):
    """The config `main` hands a command, read from the option table."""
    config = cli._plain_args([command, *options])
    assert config is not None
    return config


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
    args = ["spectrum", "--chi-re", "1.5", "--chi-im", "-0.25"]
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
        expected = averages_closedform_batch(label, [t], params)["mean_x"][0]
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
        (["spectrum", "--n-max", "-3"], "n_max must be nonnegative"),
        (["verify", "--seed", "-1"], "seed must be nonnegative"),
        (["trajectory", "--chi-im", "--hbar", "2"], "--chi-im: expected one argument"),
        (["spectrum", "--chi-re", "-inf"], "label must be finite"),
        # an infinite dt would put every sample time at nan
        (["trajectory", "--dt", "inf"], "dt must be finite"),
        # the time order is checked before the phase that t_start would overflow
        (["wavefunction", "--t-start", "1e308", "--omega", "10"], "must not precede"),
        # an n_max past the float range, which the moment-scale and phase
        # products could not convert: the exact cell count refuses it first
        *[([command, "--n-max", "1" + "0" * 308], f"cells; the limit is {MAX_CELLS}")
          for command in cli.COMMANDS],
    ],
)
def test_invalid_configuration_exits_1(args, capsys):
    argv, named = args
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert named in err.splitlines()[-1]
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "argv, named",
    [  # (argv, what the refusal names; None for a run that must succeed)
        # var_x var_p overflows, or underflows below the normal floats, while
        # its root hbar/2 stays in range
        ("trajectory --hbar 1e300 --t-end 0.02", None),
        ("uncertainty --hbar 1e200 --n-max 40", None),
        ("symmetry-check --hbar 1e300", None),
        ("trajectory --hbar 1e-170 --t-end 0.02", None),
        # a moment scale passes the float range
        ("trajectory --hbar 1e300 --omega 1e10 --t-end 0.02", "M*hbar*omega/2 = inf"),
        ("uncertainty --hbar 1e300 --omega 1e10 --n-max 40", "M*hbar*omega/2 = inf"),
        ("trajectory --mass 1e-300 --hbar 1e10 --t-end 0.02", "hbar/(2*M*omega) = inf"),
        # ... or falls below the normal floats, where <x^2> keeps few digits
        ("trajectory --hbar 1e-300 --mass 1e10 --omega 1e10 --t-end 0.02",
         "hbar/(2*M*omega) = 5e-321"),
        # (2 n_max + 1) hbar/(2 M omega) is 1.78e308, in range, but <x^2> at
        # t = 0 is (2 |chi|^2 + 1 + 2 Re chi^2) = 401 times hbar/(2 M omega)
        ("symmetry-check --chi-re 10 --hbar 9.859923565172812e+305",
         "hbar/(2*M*omega) = 4.93e+305 and (4*n_max + 2) times it, inf"),
    ],
)
def test_extreme_units_end_finite_or_refused_by_name(argv, named, tmp_path, capsys):
    out = tmp_path / "out.csv"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main(argv.split() + ["--output", str(out)])
    err = capsys.readouterr().err
    if named is None:
        assert (code, err) == (0, "")
        header, rows, footers, _ = read_csv(out)
        cells = [float(v) for row in rows for v in row]
        cells += [float(v) for footer in footers for v in footer.values()]
        assert len(cells) > len(header) and all(map(math.isfinite, cells))
    else:
        assert code == 1 and not out.exists()
        assert err.startswith("oscilab: error: the moment scale ") and named in err
        assert "Traceback" not in err and "Warning" not in err


def test_symmetry_check_refuses_an_energy_scale_past_the_float_range(capsys):
    # every moment scale is a normal float, but M*omega^2 = 2.5e-111 * 4e420
    # is not; only symmetry-check forms it, for its xp energy drift
    units = "--hbar 1e-200 --mass 2.5e-111 --omega 2e210"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(f"symmetry-check {units}".split()) == 1
        err = capsys.readouterr().err
        assert err == (
            "oscilab: error: the energy scale M*omega^2 = inf must be a finite float "
            "(hbar 1e-200, mass 2.5e-111, omega 2e+210)\n"
        )
        assert main(f"trajectory {units} --t-end 0".split()) == 0
    assert capsys.readouterr().err == ""


def test_a_truncation_warning_is_one_line_on_stderr(capsys):
    # the top two of n_max = 13's levels hold 8.3e-10 of |chi| = 1's weight
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = main("trajectory --chi-re 1 --n-max 13 --t-end 0.02".split())
    out, err = capsys.readouterr()
    assert (code, caught) == (0, [])
    assert len(out.splitlines()) == 6
    assert err == (
        "oscilab: warning: top two levels carry probability up to 8.271e-10; second "
        "moments near the truncation edge are unreliable\n"
    )


def test_any_other_warning_reaches_the_caller_as_python_shows_it(monkeypatch, capsys):
    def producer(config, params, label, n_max):
        warnings.warn("not a truncation", RuntimeWarning)
        return ["n"], np.zeros((1, 1)), []

    monkeypatch.setitem(PRODUCERS, "spectrum", (producer, 1e-12))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(["spectrum"]) == 0
    assert [(w.category, str(w.message)) for w in caught] == [
        (RuntimeWarning, "not a truncation")
    ]
    assert capsys.readouterr().err == ""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(RuntimeWarning):
            main(["spectrum"])


@pytest.mark.parametrize(
    "value",
    ["-1e-5", "-1E-5", "-2.5e+1", "-.5e1", "-1e5", "-1.8e-190", "-0.0", "-7", "-inf"],
)
def test_negative_float_literals_are_option_values(value):
    namespace = cli.build_parser().parse_args(["spectrum", "--chi-im", value])
    assert namespace.chi_im == float(value)


def test_the_parser_reads_its_negative_number_matcher(monkeypatch):
    # the fix rides on argparse's private `_negative_number_matcher`: if
    # argparse stops reading it, this fails instead of the fix going quiet
    seen, pattern = [], cli._NEGATIVE_NUMBER

    class Spy:
        @staticmethod
        def match(text):
            seen.append(text)
            return pattern.match(text)

    monkeypatch.setattr(cli, "_NEGATIVE_NUMBER", Spy)
    cli.build_parser().parse_args(["trajectory", "--t-start", "-1e-3"])
    assert "-1e-3" in seen


def test_negative_exponent_values_match_the_equals_spelling(tmp_path):
    spaced, joined = tmp_path / "spaced.csv", tmp_path / "joined.csv"
    times = ["--t-end", "1e-3", "--dt", "1e-3"]
    assert main([
        "trajectory", "--chi-im", "-1e-5", "--t-start", "-1e-3", *times,
        "--output", str(spaced),
    ]) == 0
    assert main([
        "trajectory", "--chi-im=-1e-5", "--t-start=-1e-3", *times,
        "--output", str(joined),
    ]) == 0
    assert spaced.read_bytes() == joined.read_bytes()
    _, rows, _, config = read_csv(spaced)
    assert config["chi_im"] == "-1.0000000000000001e-05"
    assert config["t_start"] == "-0.001" and len(rows) == 3


@pytest.mark.parametrize("command", sorted(PRODUCERS))
def test_table_commands_take_no_seed(command, capsys):
    # no table is drawn at random; only verify has a --seed
    assert main([command, "--seed", "3"]) == 1
    err = capsys.readouterr().err
    assert "unrecognized arguments: --seed 3" in err.splitlines()[-1]


def _subparser(parser, command):
    """The subparser `parser` dispatches `command` to."""
    (action,) = (a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    return action.choices[command]


def _parsed(parser, argv):
    """The namespace, or the exit code, stdout and stderr of a refusal."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            return vars(parser.parse_args(argv))
        except SystemExit as exc:
            return exc.code, out.getvalue(), err.getvalue()


PARSER_ARGVS = [
    ["trajectory", "--chi-re", "-1e-5", "--t-end", "1", "--dt=0.5", "--format", "json"],
    ["spectrum", "--chi-im", "2", "--n-max", "12", "--output", "out.csv"],
    ["uncertainty", "--hbar", "2", "--t-start", "1"],
    ["wavefunction", "--grid-points", "11", "--grid-halfwidth", "4", "--mass", "3"],
    ["symmetry-check", "--omega", "0.5", "--n-max", "auto"],
    ["verify", "--seed", "7", "--chi-re", "2"],
    ["trajectory", "--dt", "0.5"],  # t_end: the command's own default
    ["verify", "--output", "-"],  # chi_re and chi_im: verify's None
    ["spectrum", "--chi-re", "1", "--chi-re", "2"],  # the last one counts
    ["spectrum", "--output", "-a b"],  # a dash value argparse reads as a value
    ["wavefunction", "--chi-re"],  # a missing value
    ["spectrum", "--bogus", "1"],  # an unknown option
    ["spectrum", "--dt", "1"],  # another command's option
    ["spectrum", "--chi", "1"],  # an abbreviation
    ["spectrum", "--output", "--format"],  # an option where a value belongs
    ["verify", "--n-max", "-3"],  # a bad value
    ["trajectory", "--format", "xml"],  # a bad --format choice
    ["uncertainty", "--n-max", "4", "stray"],  # a stray positional after the options
    ["symmetry-check", "-h"],
    ["verify", "--help"],
    ["-h"],
    ["--", "verify"],
    ["verif"],
    [],
]


def _corpus_argvs():
    spec = importlib.util.spec_from_file_location(
        "golden_regenerate", Path(__file__).parent / "golden" / "regenerate.py"
    )
    regenerate = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(regenerate)
    return [shlex.split(case)[1:] for case in regenerate.read_cases()]


def _perfbench_argvs():
    """perfbench's workload argvs at seeds 0-9, as its run.py builds them."""
    perfbench = Path(__file__).resolve().parents[1] / "perfbench"
    sys.path.insert(0, str(perfbench))  # run.py imports its sibling modules
    try:
        spec = importlib.util.spec_from_file_location("perfbench_run", perfbench / "run.py")
        run = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(run)
    finally:
        sys.path.remove(str(perfbench))
        for name in ("checks", "child", "tracer"):  # the siblings it imported by bare name
            sys.modules.pop(name, None)
    return [workload(seed) for workload in run.WORKLOADS.values() for seed in range(10)]


def _assert_plain_is_argparse(argv):
    """Wherever `_plain_args` gives a config, it is argparse's namespace, to
    the repr of each value; wherever argparse exits, it gave None."""
    plain = cli._plain_args(argv)
    if plain is not None:
        parsed = _parsed(cli.build_parser(), argv)
        assert isinstance(parsed, dict), parsed
        assert sorted((k, repr(v)) for k, v in vars(plain).items()) == sorted(
            (k, repr(v)) for k, v in parsed.items()
        )


@pytest.mark.parametrize(
    "argv", PARSER_ARGVS + _corpus_argvs() + _perfbench_argvs(),
    ids=lambda argv: shlex.join(argv) or "(none)",
)
def test_the_plain_path_parses_as_argparse(argv):
    _assert_plain_is_argparse(argv)


def test_every_corpus_and_perfbench_argv_argparse_accepts_takes_the_plain_path():
    for argv in _corpus_argvs() + _perfbench_argvs():
        accepted = isinstance(_parsed(cli.build_parser(), argv), dict)
        assert (cli._plain_args(argv) is not None) == accepted, argv


_FLAGS = sorted(cli.OPTIONS) + ["-h", "--help", "--out", "--chi-re=1", "--"]
_VALUES = ["-", "", "-1e-5", "-inf", "nan", "1_0", "auto", "junk", "csv", "json", "xml",
           "-a b", "1" * 5000]


@settings(deadline=None, max_examples=300)
@given(
    command=st.sampled_from([*cli.COMMANDS, "junk", "-h", "--", ""]),
    pairs=st.lists(
        st.tuples(st.sampled_from(_FLAGS), st.sampled_from(_VALUES + _FLAGS)), max_size=4
    ),
    cut=st.booleans(),
)
def test_the_plain_path_parses_drawn_argvs_as_argparse(command, pairs, cut):
    words = [word for pair in pairs for word in pair]
    _assert_plain_is_argparse([command, *words[:len(words) - cut]])


@pytest.mark.parametrize("command", list(cli.COMMANDS))
def test_the_echo_of_a_field_the_command_does_not_register_is_its_default(
    command, tmp_path, capsys
):
    # the config gives every field its default from cli.DEFAULTS, and a
    # table command's echo lists every field, registered by the command or
    # not; verify's lists only the fields it reads, every one registered
    registered = {a.dest for a in _subparser(cli.build_parser(), command)._actions}
    expected = {k: _fmt(v) for k, v in cli.DEFAULTS.items() if k not in registered}
    out = tmp_path / "out.csv"
    assert main([command, "--output", str(out)]) == 0
    capsys.readouterr()
    echo = read_csv(out)[3]
    if command == "verify":
        assert sorted(echo) == [
            "chi_im", "chi_re", "command", "format", "n_max", "n_max_source", "seed"
        ]
        assert set(echo) - {"command", "n_max_source"} <= registered
        return
    assert {k: echo[k] for k in expected} == expected
    if command == "spectrum":
        assert echo.items() >= {
            "dt": "0.01", "grid_points": "2001", "seed": "0", "t_end": "0", "t_start": "0"
        }.items()


def test_main_reads_sys_argv_when_given_no_argv(monkeypatch, capsys):
    monkeypatch.setattr(sys, "argv", ["oscilab", "spectrum", "--bogus", "1"])
    assert main() == 1
    usage = "{trajectory,spectrum,uncertainty,wavefunction,symmetry-check,verify}"
    assert usage in capsys.readouterr().err
    monkeypatch.setattr(sys, "argv", ["oscilab", "spectrum", "--n-max", "3"])
    assert main() == 0
    assert capsys.readouterr().out.splitlines()[-2].startswith("3,")  # level 3, then the footer


@pytest.mark.parametrize(
    "argv, message",
    [
        (["--dt", "5e-324"],
         "dt=5e-324 over [0.0, 6.283185307179586] asks for inf time samples"),
        (["--dt", "1e-300"],
         "6.28e+300 time samples x 34 columns is 2.14e+302 table cells"),
        (["--t-end", "1", "--dt", "1e-7"],
         "10000001 time samples x 34 columns is 340000034 table cells"),
    ],
)
def test_oversized_sample_count_exits_1_naming_the_cause(argv, message, capsys):
    assert main(["trajectory", *argv]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"oscilab: error: {message}")
    assert err.count("\n") == 1


def test_unwritable_output_exits_2(tmp_path, capsys):
    missing = tmp_path / "no" / "such" / "dir" / "out.csv"
    assert main(["spectrum", "--output", str(missing)]) == 2
    capsys.readouterr()


# the benchmark's packet-large argv: 9 slices of 2001 points, 2.7 MiB of CSV
PACKET_LARGE = ["wavefunction", "--chi-re", "20", "--t-end", "6.283185307179586",
                "--dt", "0.7853981633974483"]


def _one_io_error_line(err):
    assert err.startswith("oscilab: I/O error: ") and err.count("\n") == 1
    assert "Traceback" not in err


@pytest.mark.skipif(not Path("/dev/full").exists(), reason="no /dev/full")
@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_an_output_file_that_fills_mid_stream_exits_2(fmt, capsys):
    # /dev/full opens, then refuses the first write that reaches it
    assert main([*PACKET_LARGE, "--format", fmt, "--output", "/dev/full"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    _one_io_error_line(err)


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_a_stdout_that_fails_after_the_first_piece_exits_2(fmt, monkeypatch, capsys):
    class FailingAfterOneWrite(io.StringIO):
        def write(self, text):
            if self.tell():
                raise OSError("the stream is closed")
            return super().write(text)

    stdout = FailingAfterOneWrite()
    monkeypatch.setattr(sys, "stdout", stdout)
    assert main([*PACKET_LARGE, "--format", fmt]) == 2
    _one_io_error_line(capsys.readouterr().err)
    # each piece is written as it comes, so the head alone got out
    head = stdout.getvalue()
    assert head.startswith("# schema:" if fmt == "csv" else '{"schema":')
    assert head.endswith("abs_diff\n" if fmt == "csv" else '[{"t": ')


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


@pytest.mark.parametrize(
    "args, chi_re, chi_im, n_max, source",
    [
        ([], None, None, "auto", "auto"),
        (["--chi-re", "5"], 5, None, "auto", "auto"),
        (["--chi-im", "-2", "--n-max", "60"], None, -2, 60, "explicit"),
    ],
    ids=["probe-set", "chi-re-5", "chi-im-explicit-n-max"],
)
def test_verify_echoes_its_options_as_given(tmp_path, capsys, args, chi_re, chi_im,
                                            n_max, source):
    # verify runs each label at its own truncation, so it echoes --n-max as
    # given, and a chi part that was not given as null rather than as 0
    csv_out = tmp_path / "verify.csv"
    json_out = tmp_path / "verify.json"
    assert main(["verify", *args, "--output", str(csv_out)]) == 0
    assert main(["verify", *args, "--format", "json", "--output", str(json_out)]) == 0
    capsys.readouterr()
    config = json.loads(json_out.read_text())["config"]
    want = {"chi_re": chi_re, "chi_im": chi_im, "n_max": n_max, "n_max_source": source}
    assert {name: config[name] for name in want} == want
    echoed = read_csv(csv_out)[3]
    assert {name: echoed[name] for name in want} == {
        name: "null" if value is None else str(value) for name, value in want.items()
    }


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


def dense_symmetry_rows(label, n_max, params):
    """The symmetry-check table from the oracle's dense `expectation` products."""
    state = coherent_coefficients(label, n_max)
    a, ad = make_ladder(n_max)
    number = ad @ a
    hamiltonian = make_hamiltonian(params, n_max)
    x_op, p_op = make_xp(params, n_max)

    def energy(x, p):
        return 0.5 * params.mass * params.omega**2 * x**2 + p**2 / (2.0 * params.mass)

    h_ref = expectation(hamiltonian, state).real
    n_ref = expectation(number, state).real
    a_ref = expectation(a, state)
    x_ref = expectation(x_op, state).real
    p_ref = expectation(p_op, state).real
    rows = []
    for alpha in np.linspace(0.0, 2.0 * math.pi, 17).tolist():
        angle = PhaseAngle(alpha)
        rotated = transform_state_phase(state, angle)
        a_rot = expectation(a, rotated)
        x_rot, p_rot = rotate_xp(x_ref, p_ref, angle, params)
        rows.append([
            alpha,
            abs(expectation(hamiltonian, rotated).real - h_ref),
            abs(expectation(number, rotated).real - n_ref),
            abs(a_rot - complex(np.exp(-1j * alpha)) * a_ref),
            abs(abs(a_rot) - abs(a_ref)),
            abs(energy(x_rot, p_rot) - energy(x_ref, p_ref)),
        ])
    return np.array(rows)


@settings(deadline=None, max_examples=80)
@given(
    modulus=st.floats(0.0, 4.0),
    phase=st.floats(0.0, 2.0 * math.pi),
    n_max=st.integers(0, 40),
    params=st.tuples(*[st.floats(0.5, 2.0)] * 3),
)
def test_symmetry_check_cells_match_dense_expectations(modulus, phase, n_max, params):
    chi = modulus * complex(math.cos(phase), math.sin(phase))
    params = OscillatorParams(*params)
    # "--name=value": argparse takes "-1e-05" after a space for an option
    argv = [
        "symmetry-check", f"--chi-re={chi.real!r}", f"--chi-im={chi.imag!r}",
        f"--n-max={n_max}", f"--hbar={params.hbar!r}", f"--mass={params.mass!r}",
        f"--omega={params.omega!r}", "--format=json",
    ]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    label = CoherentLabel(chi)
    norm = np.linalg.norm(coherent_coefficients(label, n_max).coeffs)
    if abs(norm - 1.0) > 1e-10:  # an under-truncated state is refused
        assert code == 1
        assert "state norm" in err.getvalue()
        return
    assert code == 0, err.getvalue()
    payload = json.loads(out.getvalue())
    columns = list(payload["rows"][0])
    got = np.array([[row[name] for name in columns] for row in payload["rows"]])
    want = dense_symmetry_rows(label, n_max, params)
    assert got.shape == want.shape
    assert np.all(np.abs(got - want) <= 1e-13 * np.maximum(1.0, np.abs(want)))
    assert payload["footer"] == [
        {f"max_{name}": max(got[:, k]) for k, name in enumerate(columns) if k}
    ]


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
    "argv, code, said",
    [
        (["spectrum", "--chi-re", "30"], 0, ""),
        # its grid reaches |xi| = 52.4, past the series seed's underflow
        (["wavefunction", "--chi-re", "30"], 1, "the seed exp(-xi^2/2) underflows to 0"),
        (["trajectory", "--chi-re", "1e100"], 1, "its amplitudes underflow"),
        # the series criteria now run at n_max 1088; the packet's is the known
        # seed-underflow failure
        (["verify", "--chi-re", "28"], 3, "verification failed: wave-packet-nondiffusion"),
    ],
)
def test_auto_truncations_past_1024_answer_or_name_the_cause(argv, code, said, capsys):
    assert main(argv) == code
    captured = capsys.readouterr()
    assert said in captured.err
    assert "capped" not in captured.err
    assert "Traceback" not in captured.err
    if code == 1:
        assert captured.out == ""
        assert len(captured.err.splitlines()) == 1


def test_auto_truncation_past_1024_equals_its_explicit_n_max(tmp_path):
    out = tmp_path / "spectrum.csv"
    argv = ["spectrum", "--chi-re", "30", "--n-max", "1121", "--output", str(out)]
    assert main(argv) == 0
    _, rows, footers, _ = read_csv(out)
    assert len(rows) == 1122
    assert float(footers[0]["truncation_tail"]) < 1e-12
    auto = tmp_path / "auto.csv"
    assert main(["spectrum", "--chi-re", "30", "--output", str(auto)]) == 0
    explicit, automatic = out.read_text().splitlines(), auto.read_text().splitlines()
    assert automatic[1] == explicit[1].replace("n_max_source=explicit", "n_max_source=auto")
    assert automatic[2:] == explicit[2:]


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
        # verify echoes only the fields it reads
        "chi_im=null chi_re=null command=verify format={fmt} n_max=auto n_max_source=auto seed=0",
        ("auto", "auto"),
        ["criterion", "passed", "detail"],
        10,
        [["passed", "total"]],
    ),
]


def _cell(value) -> str:
    if value is None:
        return "null"
    return format(value, ".17g") if isinstance(value, float) else str(value)


def test_the_readme_python_blocks_run_in_order(capsys):
    # the library examples, each block in the namespace the earlier ones left
    import readme_examples

    assert readme_examples.run() == 4
    printed = capsys.readouterr().out.splitlines()
    assert len(printed) == 8
    assert abs(float(printed[1]) - 0.5) < 1e-9  # the uncertainty floor hbar/2


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
    expected_echo = echo.format(defaults=defaults, fmt=fmt)
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


def test_verify_refuses_an_underflowing_auto_label():
    # before any tail walk: the search has no label past this bound to end on
    result = subprocess.run(
        [sys.executable, "-m", "oscilab", "verify", "--chi-re", "40"],
        capture_output=True,
        text=True,
        env={"PYTHONPATH": SRC, "PATH": "/usr/bin:/bin"},
    )
    assert result.returncode == 1
    assert result.stdout == ""
    assert "label (40+0j) is too large: its amplitudes underflow" in result.stderr
    assert len(result.stderr.splitlines()) == 1
    assert "Traceback" not in result.stderr
    assert "RuntimeWarning" not in result.stderr


@pytest.mark.parametrize("argv", [
    ["wavefunction", "--chi-re", "37.64", "--n-max", "1761"],
    ["wavefunction", "--chi-re", "36"],
])
def test_a_grid_wholly_past_the_seed_underflow_names_it(argv, capsys):
    # no grid point survives, so every slice's series is 0: the cause is
    # named, not a zero-norm refusal of the moments
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "its quadrature norm 0 is off the state's norm 1" in captured.err
    assert "the seed exp(-xi^2/2) underflows to 0 at |xi| = " in captured.err
    assert "zero-norm" not in captured.err
    assert len(captured.err.splitlines()) == 1


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
        # the seed underflows past |xi| 38.6, where the packet holds no norm
        (["wavefunction", "--grid-halfwidth", "45", "--grid-points", "5"], "12.6943"),
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


def test_wavefunction_names_an_underflowing_eigenfunction_seed(capsys):
    # past |xi| = 38.6 the seed phi_0 of the recurrence is 0, and the packet
    # centred at xi = 35.36 loses 1.3e-6 of its norm there; at --chi-re 20
    # --grid-points 5 (|xi| up to 38.28) the usual advice stands
    assert main(["wavefunction", "--chi-re", "25"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("oscilab: error: the grid cannot resolve the packet at t = 0: ")
    assert err.endswith("; the seed exp(-xi^2/2) underflows to 0 at |xi| = 45.36\n")


@pytest.mark.parametrize(
    "argv, message",
    [
        (["--grid-halfwidth", "inf"], "halfwidth must be finite and positive, got inf"),
        (["--grid-halfwidth", "nan"], "halfwidth must be finite and positive, got nan"),
        (["--grid-halfwidth", "-inf"], "halfwidth must be finite and positive, got -inf"),
        (["--grid-halfwidth", "-1"], "halfwidth must be finite and positive, got -1.0"),
        (["--chi-re", "20", "--grid-halfwidth", "1e-20"],
         "the grid of halfwidth 1e-20 around centre 28.284271247461902 is not "
         "strictly increasing"),
        (["--grid-halfwidth", "1e300", "--hbar", "1e10"],
         "the grid of halfwidth 1e+300 around centre 141421.35623730952 is too wide"),
        # the t = 0 grid reaches |xi| = 48.18, where the series' seed underflows
        (["--chi-re", "27", "--t-end", "1.6", "--dt", "1.6"],
         "the grid cannot resolve the packet at t = 0: "),
    ],
)
def test_wavefunction_refuses_a_bad_grid_by_name(argv, message, capsys):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["wavefunction", *argv]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert message in captured.err
    assert captured.err.count("\n") == 1


@pytest.mark.parametrize(
    "argv",
    [
        "--chi-im 27",
        # |Im chi(t)| = 26.7 at t = 0, between two slices below it
        "--chi-im 26.7 --t-start -0.3 --t-end 0.3 --dt 0.3",
    ],
)
def test_wavefunction_past_im_chi_26_6_writes_only_finite_cells(argv, capsys):
    # past |Im chi(t)| = 26.6 the textbook closed form's Gaussian factor overflows
    code, out, err = _run_strict(f"wavefunction {argv}", capsys)
    assert (code, err) == (0, "")
    rows = [line.split(",") for line in out.splitlines() if not line.startswith("#")]
    cells = np.array(rows[1:], dtype=float)
    assert cells.shape[1] == 7 and np.isfinite(cells).all()


# Run in a child under a 2 GiB address-space limit, so that a lost bound fails
# on a MemoryError instead of exhausting the machine; prints the child's VmHWM
# growth over the imported CLI, in KiB.
_PEAK_CHILD = """
import sys, oscilab.cli
def hwm():
    return next(int(line.split()[1]) for line in open("/proc/self/status")
                if line.startswith("VmHWM:"))
before = hwm()
code = oscilab.cli.main(sys.argv[1:])
print(hwm() - before)
sys.exit(code)
"""


@pytest.mark.parametrize(
    "argv, message",
    [
        (["wavefunction", "--grid-points", "1000000001"],
         "1000000001 grid points x 7 columns is 7000000007 table cells"),
        # 6,280,001 slices: the parent built every sample time, 97 MiB, first
        (["wavefunction", "--t-end", "6.28", "--dt", "1e-6"],
         "12566282001 grid points x 7 columns is 87963974007 table cells"),
        (["trajectory", "--t-end", "6.28", "--dt", "1e-6"],
         "6280001 time samples x 34 columns is 213520034 table cells"),
        (["trajectory", "--n-max", "1000000000"],
         "1 state x 1000000001 levels is 1000000001 coefficient cells"),
        (["wavefunction", "--n-max", "1000000000"],
         "1 slice x 1000000001 levels is 1000000001 coefficient cells"),
        (["spectrum", "--n-max", "1000000000"],
         "1000000001 levels x 4 columns is 4000000004 table cells"),
        (["uncertainty", "--n-max", "1000000000"],
         "999999999 number states x 4 columns is 3999999996 table cells"),
        (["symmetry-check", "--n-max", "1000000"],
         "17 angles x 1000001 levels is 17000017 coefficient cells"),
        (["verify", "--n-max", "1000000000"],
         "5 slices x 1000000001 levels is 5000000005 coefficient cells"),
    ],
)
def test_oversized_runs_are_refused_before_any_array_exists(argv, message):
    _assert_refused_before_any_array(argv, f"{message}; the limit is {MAX_CELLS}")


@pytest.mark.parametrize(
    "argv, message",
    [  # library refusals of runs that `_admit` lets through at these sizes
        (["wavefunction", "--grid-halfwidth", "0", "--grid-points", "599185"],
         "halfwidth must be finite and positive, got 0.0"),
        (["wavefunction", "--grid-halfwidth", "nan", "--t-end", "298", "--dt", "1"],
         "halfwidth must be finite and positive, got nan"),
        (["trajectory", "--chi-re", "inf", "--t-end", "123360", "--dt", "1"],
         "label must be finite, got (inf+0j)"),
        (["trajectory", "--dt", "-0.1", "--n-max", "4000000"], "dt must be positive, got -0.1"),
        (["spectrum", "--n-max", "-3"], "n_max must be nonnegative, got -3"),
        (["uncertainty", "--t-start", "1e308", "--omega", "10", "--n-max", "1000000"],
         "the phase omega*|t|*(n_max + 1/2) overflows at t = 1e+308 "
         "(omega 10.0, n_max 1000000)"),
    ],
)
def test_library_refusals_come_before_any_array_exists(argv, message):
    _assert_refused_before_any_array(argv, message)


def _assert_refused_before_any_array(argv: list[str], message: str) -> None:
    limit = 2 * 1024**3
    result = subprocess.run(
        [sys.executable, "-c", _PEAK_CHILD, *argv],
        capture_output=True,
        text=True,
        env={"PYTHONPATH": SRC, "PATH": "/usr/bin:/bin", "OPENBLAS_NUM_THREADS": "1"},
        preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (limit, limit)),
        timeout=120,
    )
    assert result.returncode == 1
    assert result.stderr == f"oscilab: error: {message}\n"
    assert int(result.stdout) < 4 * 1024  # KiB above the imported CLI


@pytest.mark.parametrize(
    "argv, step",
    [
        (["trajectory", "--t-end", "0.02", "--dt", "0.01"], ["--t-end", "0.03"]),
        (["trajectory", "--t-end", "0", "--n-max", "99"], ["--n-max", "100"]),
        (["wavefunction", "--t-end", "0.5", "--dt", "0.5", "--grid-points", "201"],
         ["--grid-points", "203"]),
        (["wavefunction", "--grid-points", "201", "--n-max", "2000"], ["--n-max", "2001"]),
        (["spectrum", "--n-max", "9"], ["--n-max", "10"]),
        (["uncertainty", "--chi-re", "0", "--n-max", "9"], ["--n-max", "10"]),
        (["symmetry-check", "--chi-re", "0", "--n-max", "9"], ["--n-max", "10"]),
    ],
)
def test_a_run_at_max_cells_passes_and_one_step_more_is_refused(
    argv, step, monkeypatch, capsys
):
    # at a limit of 0 the admission names the run's largest term
    monkeypatch.setattr(cli, "MAX_CELLS", 0)
    assert main(argv) == 1
    predicted = re.fullmatch(
        r"oscilab: error: (\d+) [a-z ]+ x (\d+) [a-z ]+ is (\d+) (table|coefficient) "
        r"cells; the limit is 0\n",
        capsys.readouterr().err,
    )
    (rows, columns, cells), term = map(int, predicted.groups()[:3]), predicted[4]
    assert rows * columns == cells
    monkeypatch.setattr(cli, "MAX_CELLS", cells)
    assert main([*argv, "--format", "json"]) == 0
    table = json.loads(capsys.readouterr().out)["rows"]
    shape = (len(table), len(table[0]))
    assert shape == (rows, columns) if term == "table" else shape[0] * shape[1] <= cells
    assert main([*argv, *step]) == 1
    err = capsys.readouterr().err
    assert err.endswith(f" {term} cells; the limit is {cells}\n")
    assert err.count("\n") == 1


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


def test_importing_the_cli_loads_neither_dataclasses_nor_json_nor_sets_malloc():
    # libc is reached through ctypes.CDLL, which fails here once numpy is in
    code = (
        "import sys, ctypes, numpy; "
        "ctypes.CDLL = lambda *args: sys.exit('the import opened libc'); "
        "import oscilab.cli; "
        "print(sorted({'argparse', 'dataclasses', 'gettext', 'json'} & set(sys.modules)))"
    )
    result = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        env={"PYTHONPATH": SRC, "PATH": "/usr/bin:/bin"},
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "[]"


def test_a_plain_argv_loads_no_parser_and_a_refusal_still_gets_argparse(tmp_path):
    # a command and exact --flag value pairs are read from the option table;
    # argparse, and the gettext and locale it imports, load for a refusal only
    out = str(tmp_path / "out.csv")
    code = (
        "import sys; from oscilab.cli import main; "
        f"code = main(['spectrum', '--chi-re', '0', '--output', {out!r}]); "
        "print(code, sorted({'argparse', 'gettext', 'locale'} & set(sys.modules))); "
        "print(main(['spectrum', '--bogus', '1']))"
    )
    result = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        env={"PYTHONPATH": SRC, "PATH": "/usr/bin:/bin", "COLUMNS": "80"},
    )
    assert result.stdout.splitlines() == ["0 []", "1"], result.stderr
    assert result.stderr == (
        "usage: oscilab [-h]\n"
        "               {trajectory,spectrum,uncertainty,wavefunction,symmetry-check,verify}\n"
        "               ...\n"
        "oscilab: error: unrecognized arguments: --bogus 1\n"
    )
    assert read_csv(Path(out))[1][0] == ["0", "1", "1", "0"]  # the vacuum


def _fake_libc(monkeypatch, libc):
    opened = []

    def cdll(name):
        opened.append(name)
        if isinstance(libc, Exception):
            raise libc
        return libc

    monkeypatch.setattr(ctypes, "CDLL", cdll)
    return opened


def test_main_sets_the_mmap_and_trim_thresholds_through_mallopt(monkeypatch, capsys):
    calls = []

    def mallopt(param, value):
        calls.append((param, value))
        return 1

    opened = _fake_libc(monkeypatch, types.SimpleNamespace(mallopt=mallopt))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        cli._keep_freed_memory()
    assert opened == [None]
    assert calls == [(-3, 64 * 2**20), (-1, 256 * 2**20)]  # M_MMAP_, M_TRIM_THRESHOLD
    assert mallopt.argtypes == (ctypes.c_int, ctypes.c_int)
    assert mallopt.restype is ctypes.c_int
    calls.clear()
    assert main(["spectrum", "--chi-re", "0"]) == 0
    capsys.readouterr()
    assert calls == [(-3, 64 * 2**20), (-1, 256 * 2**20)]


@pytest.mark.parametrize(
    "libc", [types.SimpleNamespace(), OSError("no libc")], ids=["no-mallopt", "no-libc"]
)
def test_the_allocator_setting_is_skipped_quietly_without_mallopt(monkeypatch, libc):
    opened = _fake_libc(monkeypatch, libc)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        cli._keep_freed_memory()
    assert opened == [None]


def test_underflowing_amplitudes_exit_1_naming_the_cause(capsys):
    assert main(["wavefunction", "--chi-re", "38", "--n-max", "1200"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "label (38+0j) is too large: its amplitudes underflow" in captured.err
    assert "zero-norm" not in captured.err
    assert "Traceback" not in captured.err


def test_verify_refuses_underflowing_amplitudes_before_the_battery():
    # run_all's label plan builds the amplitudes before any criterion runs
    result = subprocess.run(
        [sys.executable, "-m", "oscilab", "verify", "--chi-re", "40", "--n-max", "10"],
        capture_output=True,
        text=True,
        env={"PYTHONPATH": SRC, "PATH": "/usr/bin:/bin"},
    )
    assert result.returncode == 1
    assert result.stdout == ""
    assert result.stderr == (
        "oscilab: error: label (40+0j) is too large: its amplitudes underflow "
        "(exp(-|chi|^2/2) = 0 is below the smallest normal float)\n"
    )


def test_wavefunction_rows_match_the_per_scalar_form():
    # the packet-large label: np.abs(series - closed) differs from the scalar
    # abs in 1,367 of these 6,003 cells, np.hypot in none
    config = _config("wavefunction", "--chi-re", "20", "--t-end", "0.8", "--dt", "0.4")
    params, label = cli._params(config), cli._label(config)
    state = coherent_coefficients(label, resolve_n_max(label, None, AMPLITUDE_TAIL_TOL))
    _, rows, _ = PRODUCERS["wavefunction"][0](config, params, label, state)
    expected = []
    for t in (0.0, 0.4, 0.8):
        center = averages_closedform_batch(label, [t], params)["mean_x"][0]
        points = default_packet_grid(params, center=center).points
        series = psi_series_grid(state, points[np.newaxis], [t], params)[0]
        closed = psi_closed_grid(label, points[np.newaxis], [t], params)[0]
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


def _rendered(*args) -> str:
    """The text of `_render`'s byte pieces."""
    return b"".join(_render(*args)).decode()


def _data_lines(rows, width):
    config = _config("wavefunction")
    text = _rendered(config, [], [f"c{i}" for i in range(width)], rows, [])
    return text.splitlines()[3:]


def _matrix(rows, width):
    return np.array(rows, dtype=float).reshape(len(rows), width)


@settings(deadline=None, max_examples=60)
@given(width=st.integers(1, 8), data=st.data())
def test_all_float_rows_render_as_their_csv_cells(width, data):
    rows = data.draw(st.lists(st.tuples(*[CELLS] * width), max_size=12))
    matrix = _matrix(rows, width)
    assert _data_lines(matrix, width) == [",".join(map(_csv_cell, row)) for row in rows]


NAMES = st.text(max_size=6) | st.sampled_from(
    ["50%", "%s", "%%", '"q"', "a\\b", "\u00e9"]
)


@settings(deadline=None, max_examples=60)
@given(names=st.lists(NAMES, min_size=1, max_size=6, unique=True), data=st.data())
def test_all_float_rows_render_as_their_json_text(names, data):
    rows = data.draw(st.lists(st.tuples(*[CELLS] * len(names)), max_size=12))
    echo, footer = [("chi_re", 1.5), ("n_max", 4)], [{"t": 0.25}]
    config = _config("wavefunction", "--format", "json")
    expected = _json_text({
        "schema": "oscilab.wavefunction.v1",
        "config": dict(echo),
        "rows": [dict(zip(names, row)) for row in rows],
        "footer": footer,
    }) + "\n"
    matrix = _matrix(rows, len(names))
    assert _rendered(config, echo, names, matrix, footer) == expected


def test_json_column_names_with_the_delete_and_marker_bytes_render_as_today():
    # json.dumps escapes both bytes, so the kernel's separators hold neither
    names = ["\x00\x01", "\x01"]
    matrix = np.array([[0.5, -1e-300], [math.nan, -0.0], [1 / 3, 2.0**-1074]])
    config = _config("wavefunction", "--format", "json")
    expected = _json_text({
        "schema": "oscilab.wavefunction.v1",
        "config": {},
        "rows": [dict(zip(names, row)) for row in matrix.tolist()],
        "footer": [],
    }) + "\n"
    assert _rendered(config, [], names, matrix, []) == expected


@pytest.mark.parametrize("sep", ["\x00", "a\x01", ",\x00\n", "\x01"])
def test_a_separator_holding_the_delete_or_marker_byte_is_refused(sep):
    # the delete pass would drop such a byte, and the fallback split cut on
    # it; the pieces are yielded, so the refusal comes with the first one
    with pytest.raises(ValueError, match="delete or marker byte"):
        next(cli._float_cells(np.zeros((2, 2)), [",", sep]))


def test_all_float_rows_skip_the_per_cell_formatter(monkeypatch):
    def refuse(value):
        raise AssertionError("an all-float table reached _csv_cell")

    monkeypatch.setattr(cli, "_csv_cell", refuse)
    rows = np.array([EDGE_FLOATS, EDGE_FLOATS[::-1]])
    assert len(_data_lines(rows, len(EDGE_FLOATS))) == 2


@pytest.mark.parametrize(
    "row", [(1, 0.5), (0.5, np.float64(0.25)), (0.5, True), ("a,b", 0.5)]
)
def test_rows_with_a_non_float_cell_keep_the_per_cell_formatter(row):
    assert _data_lines([row, (0.5, 0.5)], 2) == [
        ",".join(map(_csv_cell, row)), "0.5,0.5"
    ]


def _float_kernel_module():
    path = Path(__file__).resolve().parent / "float_kernel.py"
    spec = importlib.util.spec_from_file_location("float_kernel", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


FLOAT_KERNEL = _float_kernel_module()


def test_float_kernel_writes_every_edge_value_as_percent_17g():
    assert FLOAT_KERNEL.mismatches(FLOAT_KERNEL.edge_floats()) == []


@settings(deadline=None, max_examples=200)
@given(st.lists(st.integers(0, 2**64 - 1), min_size=1, max_size=64))
def test_float_kernel_writes_any_bit_pattern_as_percent_17g(patterns):
    values = np.array(patterns, dtype=np.uint64).view(np.float64)
    assert FLOAT_KERNEL.mismatches(values) == []


def test_float_kernel_random_bit_patterns_match():
    assert FLOAT_KERNEL.mismatches(FLOAT_KERNEL.random_floats(20000, seed=1)) == []


def test_edge_list_holds_ties_and_decade_round_ups():
    edges = FLOAT_KERNEL.edge_floats()
    ties = FLOAT_KERNEL.exact_ties()
    assert set(ties) <= set(edges)
    for tie in ties:
        exponent = int(("%.16e" % tie).split("e")[1])
        scaled = Fraction(tie) * Fraction(10) ** (16 - exponent)
        assert scaled.denominator == 2
    round_ups = [
        v for v in edges
        if v > 0 and math.isfinite(v) and ("%.17g" % v).startswith("1e")
        and Fraction(v) < Fraction(10) ** int(("%.17g" % v)[2:])
    ]
    assert len(round_ups) >= 10


def test_kernel_tables_are_the_loop_built_tables_exactly():
    for got, want in zip(cli._kernel_tables.__wrapped__(), kernel_tables(), strict=True):
        assert (got.dtype, got.shape) == (want.dtype, want.shape)
        np.testing.assert_array_equal(got, want)


def test_decimal_digits_are_exact_wherever_they_can_be():
    """`_decimal` marks exact every cell of its range but the exact ties and
    the values whose 17 digits round up a decade, and its digits are those
    of "%.16e"; the ties go to the fallback, since a half unit cannot be
    told from a near one in general."""
    values = FLOAT_KERNEL.edge_floats()
    values += FLOAT_KERNEL.random_floats(5000, seed=2).tolist()
    digits, exp10, exact = cli._decimal(np.abs(np.array(values)))
    for value, d, x, ok in zip(values, digits.tolist(), exp10.tolist(), exact.tolist()):
        value = abs(value)
        if not (1e-280 <= value < 1e16):
            assert not ok, value
            continue
        mantissa, exponent = ("%.16e" % value).split("e")
        rounds_up = Fraction(value) < Fraction(10) ** int(exponent)
        scaled = Fraction(value) * Fraction(10) ** (16 - int(exponent) + rounds_up)
        assert ok == (scaled.denominator != 2 and not rounds_up), value
        if ok:
            assert (d, x) == (int(mantissa.replace(".", "")), int(exponent)), value


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("shape", [(0, 1), (0, 3), (1, 1), (5, 1), (2, 3)])
def test_float_matrices_of_any_shape_render_as_their_row_tuples(shape, fmt):
    matrix = np.arange(math.prod(shape), dtype=float).reshape(shape) / 7 - 0.5
    columns = [f"c{i}" for i in range(shape[1])]
    config = _config("wavefunction", "--format", fmt)
    rows = [tuple(row) for row in matrix.tolist()]
    assert _rendered(config, [("a", 1)], columns, matrix, []) == _rendered(
        config, [("a", 1)], columns, rows, []
    )


# integers at the edges of "%.17g": one digit, the decades to 10^16 (it writes
# fixed point below 10^17), 2^22 (the admission's table rows) and the end of
# the doubles' run of consecutive integers, 2^53 - 1
INTEGER_EDGES = sorted(
    {0, 1, 9, 10, 99, 100, 2**22, 2**53 - 1}
    | {10**k for k in range(17)} | {10**k - 1 for k in range(1, 16)}
)


def test_the_float_kernel_writes_integer_cells_as_the_ints():
    column = np.array(INTEGER_EDGES, dtype=float)[:, np.newaxis]
    text = b"".join(cli._float_cells(column, ["\n"])).decode()
    assert text.splitlines() == [str(n) for n in INTEGER_EDGES]


def per_level_rows(command, label, n_max, params):
    """The spectrum or uncertainty rows from the per-level scalar formulas,
    n an int, as row tuples."""
    if command == "spectrum":
        coeffs = coherent_coefficients(label, n_max).coeffs
        rows = []
        for n in range(n_max + 1):
            from_coeff = float(abs(coeffs[n]) ** 2)
            from_poisson = occupation_probability(label, n)
            rows.append((n, from_coeff, from_poisson, abs(from_coeff - from_poisson)))
        return rows
    levels = range(max(0, n_max - 1))
    products = averages_bruteforce_fock(levels, n_max, params)["uncertainty"].tolist()
    rows = []
    for n, brute in zip(levels, products):
        exact = uncertainty_fock(n, params)
        rows.append((n, exact, brute, abs(exact - brute)))
    return rows


# the vacuum below n_max 2 warns that its top two levels hold all its weight
@pytest.mark.filterwarnings("ignore:top two levels")
@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize(
    "command, chi, n_max",
    [
        ("spectrum", "0", 0), ("spectrum", "1.5", 30), ("spectrum", "7", 600),
        ("uncertainty", "0", 0), ("uncertainty", "0", 1),  # no rows
        ("uncertainty", "0", 2), ("uncertainty", "1.5", 40),
    ],
)
def test_spectrum_and_uncertainty_write_their_row_tuples_bytes(
    tmp_path, command, chi, n_max, fmt
):
    out = tmp_path / "table"
    chi_im = "-0.25" if chi != "0" else "0"
    units = {"hbar": 1.5} if command == "uncertainty" else {}  # spectrum takes none
    argv = [command, "--chi-re", chi, "--chi-im", chi_im, "--n-max", str(n_max),
            "--format", fmt, *[f"--{k}={v}" for k, v in units.items()]]
    assert main(argv + ["--output", str(out)]) == 0
    config = cli.build_parser().parse_args(argv)
    params, label = cli._params(config), cli._label(config)
    state = coherent_coefficients(label, n_max)
    columns, matrix, footer = PRODUCERS[command][0](config, params, label, state)
    rows = per_level_rows(command, label, n_max, params)
    assert isinstance(matrix, np.ndarray) and len(matrix) == len(rows)
    echo = cli._config_echo(config, n_max)
    pieces = _render(config, echo, columns, rows, footer)
    assert out.read_bytes() == b"".join(pieces)


def _packet_sized_matrix():
    """An 18,009 x 7 float matrix, the packet-large table's shape."""
    rng = np.random.default_rng(0)
    return rng.standard_normal((18009, 7)) * 10.0 ** rng.integers(-20, 5, (18009, 7))


def _render_packet_sized_matrix(fmt, copies=1):
    """The byte count of the packet-sized matrix, stacked `copies` times, and
    the tracemalloc peak of rendering it, every piece taken and dropped
    inside the traced window as `_emit` takes them."""
    matrix = np.concatenate([_packet_sized_matrix()] * copies)
    config = _config("wavefunction", "--format", fmt)
    columns = [f"c{i}" for i in range(7)]
    _rendered(config, [], columns, matrix[:2], [])  # builds the tables
    tracemalloc.start()
    try:
        size = sum(map(len, _render(config, [], columns, matrix, [])))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return size, peak


def test_rendering_a_packet_sized_matrix_stays_in_its_memory_bound():
    # 2.7 MiB of CSV. Measured peak: 1.32 MiB, the temporaries of one
    # 8,192-cell digit plan and one 4,096-cell byte chunk; the bound leaves
    # 0.18 MiB of margin, well under the output's size
    size, peak = _render_packet_sized_matrix("csv")
    assert size > 2.5 * 2**20
    assert peak < 1.5 * 2**20


def test_rendering_a_packet_sized_matrix_as_json_stays_in_its_memory_bound():
    # 3.6 MiB of JSON. Measured peak: 1.33 MiB, as for CSV; the bound leaves
    # 0.17 MiB of margin
    size, peak = _render_packet_sized_matrix("json")
    assert size > 3.5 * 2**20
    assert peak < 1.5 * 2**20


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_the_render_peak_does_not_grow_with_the_table(fmt):
    # four times the rows, 10.8 MiB of CSV or 14.3 MiB of JSON, peak within
    # one chunk's temporaries of the one-table peak (a 4,096-cell chunk's
    # slot block alone is 192 or 224 KiB); a render that held its output
    # would grow by 8-11 MiB
    size, peak = _render_packet_sized_matrix(fmt)
    size4, peak4 = _render_packet_sized_matrix(fmt, copies=4)
    assert size4 > 3.9 * size
    assert peak4 - peak < 2**18


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_float_cells_do_not_depend_on_the_chunk_size(fmt, monkeypatch):
    # the digits are planned over passes of two chunks and the bytes written
    # a chunk at a time, both sized by _CHUNK_CELLS: chunks of one row (7
    # cells) in passes of two rows, the kernel's size, the old size 16,384,
    # the whole table in one pass of two chunks, and the whole table as one
    # chunk; a zero and a fallback cell ("%.17g" itself, split out on its
    # marker) in every 1000th row
    matrix = _packet_sized_matrix()
    matrix[::1000, 2], matrix[::1000, 5] = 0.0, 1e300
    config = _config("wavefunction", "--format", fmt)
    columns = [f"c{i}" for i in range(7)]
    plan, chunk = cli._digit_plan, cli._float_chunk
    planned, written = [], []

    def planning(x):
        planned.append(x.size)
        return plan(x)

    def writing(x, tails, plan):
        written.append(x.size)
        return chunk(x, tails, plan)

    monkeypatch.setattr(cli, "_digit_plan", planning)
    monkeypatch.setattr(cli, "_float_chunk", writing)
    texts = set()
    for cells in (7, cli._CHUNK_CELLS, 1 << 14, (matrix.size + 13) // 2, matrix.size):
        monkeypatch.setattr(cli, "_CHUNK_CELLS", cells)
        planned.clear()
        written.clear()
        texts.add(_rendered(config, [], columns, matrix, []))
        # JSON writes its last row in a call of its own, closed by "}]"
        rows, body = cells // 7, len(matrix) - (fmt == "json")
        assert max(written) == 7 * min(rows, body)
        assert max(planned) == 7 * min(2 * rows, body)
        assert sum(planned) == sum(written) == matrix.size
    assert len(texts) == 1


def test_float_kernel_matches_across_columns_chunks_and_passes(monkeypatch):
    # random bit patterns in a 7-column CSV table, with chunks of 2, 3 and
    # 585 rows: every separator is written at the end of a chunk and of a
    # pass somewhere
    values = FLOAT_KERNEL.random_floats(20000, seed=3)
    for cells in (14, 21, cli._CHUNK_CELLS):
        monkeypatch.setattr(cli, "_CHUNK_CELLS", cells)
        assert FLOAT_KERNEL.mismatches(values, columns=7) == []


@pytest.mark.parametrize("command", ["wavefunction", "trajectory"])
def test_an_overflowing_phase_exits_1_naming_the_time(command):
    result = subprocess.run(
        [sys.executable, "-m", "oscilab", command,
         "--t-start", "1e308", "--t-end", "1e308", "--omega", "10"],
        capture_output=True,
        text=True,
        env={"PYTHONPATH": SRC, "PATH": "/usr/bin:/bin"},
    )
    assert result.returncode == 1
    assert result.stdout == ""
    assert "the phase omega*|t|*(n_max + 1/2) overflows at t = 1e+308" in result.stderr
    assert "RuntimeWarning" not in result.stderr


def test_a_phase_without_digits_exits_1_naming_the_time():
    # at omega t ~ 1e300 one ulp of the level phase is 2.4e285 rad
    result = subprocess.run(
        [sys.executable, "-m", "oscilab", "trajectory",
         "--t-start", "1e300", "--t-end", "1e300"],
        capture_output=True,
        text=True,
        env={"PYTHONPATH": SRC, "PATH": "/usr/bin:/bin"},
    )
    assert result.returncode == 1
    assert result.stdout == ""
    assert "keeps too few digits at t = 1e+300" in result.stderr
    assert "RuntimeWarning" not in result.stderr


def test_the_phase_bound_refuses_from_2_to_the_35_radians():
    # one ulp is 2^-18 rad just below 2^35 and 2^-17 at it; 2 pi 2^-20 lies between
    config = _config("trajectory", "--omega", "2")
    cli._check_phase(config, 2.7e10 / (2.0 * 16.5), 16)
    cli._check_phase(config, math.nextafter(2.0**35, 0.0), 0)  # omega t (0 + 1/2)
    with pytest.raises(ValueError, match="too few digits at t = -34359738368.0"):
        cli._check_phase(config, -(2.0**35), 0)


def test_uncertainty_reads_only_t_start_for_its_phase(capsys):
    assert main(["uncertainty", "--t-end", "1e308", "--omega", "10"]) == 1
    assert "unrecognized arguments: --t-end 1e308" in capsys.readouterr().err
    assert main(["uncertainty", "--t-start", "1e308", "--omega", "10"]) == 1
    assert "overflows at t = 1e+308" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [
        ["spectrum", "--hbar", "2"],
        ["spectrum", "--mass", "2"],
        ["spectrum", "--omega", "2"],
        ["uncertainty", "--t-end", "1"],
        ["uncertainty", "--dt", "0.1"],
    ],
)
def test_commands_refuse_the_options_they_do_not_read(argv, capsys):
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert f"unrecognized arguments: {' '.join(argv[1:])}" in err.splitlines()[-1]


def test_uncertainty_runs_from_a_later_t_start(tmp_path, capsys):
    # uncertainty reads no t_end, so a t_start past the t_end default runs
    out = tmp_path / "unc.csv"
    assert main(["uncertainty", "--t-start", "1", "--n-max", "16",
                 "--output", str(out)]) == 0
    _, rows, footers, config = read_csv(out)
    assert len(rows) == 15
    assert (config["t_start"], config["t_end"], config["dt"]) == ("1", "0", "0.01")
    assert float(footers[0]["abs_diff"]) < 1e-9


def test_packet_callers_import_only_packet_sweep():
    package = Path(SRC) / "oscilab"
    imported = {}
    for module in ("cli", "verify", "wavefunction"):
        tree = ast.parse((package / f"{module}.py").read_text())
        imported[module] = {
            (node.module, alias.name)
            for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
            for alias in node.names
        }
    packet_parts = {"psi_closed_grid", "default_packet_grid"}
    for module in ("cli", "verify"):
        assert ("wavefunction", "packet_sweep") in imported[module]
        assert not {name for _, name in imported[module]} & packet_parts
    assert not {name for _, name in imported["cli"]} & {
        "propagate_fock", "averages_bruteforce"
    }
    assert not [name for _, name in imported["wavefunction"] if name.startswith("_")]
    # the series is that of the state its caller built
    assert ("coherent", "coherent_coefficients") not in imported["wavefunction"]
    for function in (wavefunction.psi_series_grid, wavefunction.packet_sweep):
        assert "n_max" not in inspect.signature(function).parameters


def test_verify_and_wavefunction_sweep_each_label_once(monkeypatch, capsys):
    calls = []

    def spy(label, *args, **kwargs):
        calls.append(label.chi)
        return packet_sweep(label, *args, **kwargs)

    monkeypatch.setattr(verify, "packet_sweep", spy)
    monkeypatch.setattr(cli, "packet_sweep", spy)
    assert all(result.passed for result in verify.run_all())
    assert calls == list(verify.DEFAULT_CHI_SET)
    calls.clear()
    assert main(["wavefunction", "--chi-re", "2", "--t-end", "3.14", "--dt", "1.57"]) == 0
    assert calls == [2 + 0j]
    assert capsys.readouterr().out.count("\n") == 3 + 3 * 2001 + 3


@pytest.mark.parametrize(
    "argv, builds",
    [
        (["trajectory", "--t-end", "0.5", "--dt", "0.25"], [(1 + 0j, 16)]),
        (["spectrum", "--chi-re", "1.5"], [(1.5 + 0j, 21)]),
        (["uncertainty", "--n-max", "12"], [(1 + 0j, 12)]),
        (["wavefunction", "--chi-re", "20", "--t-end", "0.4", "--dt", "0.4"], [(20 + 0j, 589)]),
        (["symmetry-check", "--chi-im", "2"], [(1 + 2j, 29)]),
        (["verify"], [(chi, n) for chi, n in zip(verify.DEFAULT_CHI_SET, (2, 25, 40, 31, 34))]
         + [(3 + 0j, 12)]),
    ],
)
def test_a_run_builds_each_label_once(monkeypatch, capsys, argv, builds):
    # every module of the package that binds coherent_coefficients records
    # its calls; the packet series takes the state it is given
    built = []
    build = cli.coherent_coefficients

    def recording_build(label, n_max):
        built.append((label.chi, n_max))
        return build(label, n_max)

    sites = [module for name, module in sorted(sys.modules.items())
             if name.split(".")[0] == "oscilab"
             and getattr(module, "coherent_coefficients", None) is build]
    assert {module.__name__ for module in sites} == {
        "oscilab", "oscilab.cli", "oscilab.coherent", "oscilab.verify"
    }
    for module in sites:
        monkeypatch.setattr(module, "coherent_coefficients", recording_build)
    assert main(argv) == 0
    assert built == builds


def _run_strict(argv: str, capsys) -> tuple[int, str, str]:
    """`main` on the argv with every warning an error: exit code, stdout, stderr."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main(argv.split())
    out, err = capsys.readouterr()
    return code, out, err


def test_the_float_kernel_corrects_a_log10_exponent_that_misses_by_one(capsys):
    t = 0.09999999999999999  # log10 rounds to -1.0, its decimal exponent is -2
    assert math.floor(math.log10(t)) == -1 and "%.17g" % t == "0.099999999999999992"
    code, out, err = _run_strict(f"trajectory --t-end {t!r} --dt {t!r}", capsys)
    assert (code, err) == (0, "")
    rows = [line.split(",") for line in out.splitlines() if not line.startswith("#")]
    assert [row[0] for row in rows] == ["time", "0", "%.17g" % t]


def test_a_one_level_spectrum_leaves_a_tail_of_one_minus_e_to_the_minus_nine(capsys):
    code, out, err = _run_strict("spectrum --chi-re 3 --n-max 0", capsys)
    assert (code, err) == (0, "")
    footer = out.splitlines()[-1]
    assert footer.startswith("# footer: truncation_tail=")
    assert float(footer.split("=")[1]) == pytest.approx(-math.expm1(-9.0), rel=1e-15)


def test_verify_of_the_vacuum_has_no_halving_ratio_to_report(capsys):
    code, out, err = _run_strict("verify --chi-re 0", capsys)
    assert (code, err) == (0, "")
    row = next(line for line in out.splitlines() if "ehrenfest-mean-motion" in line)
    assert row.startswith("PASS") and row.endswith("halving ratios = n/a")


def test_verify_at_im_chi_27_fails_on_the_underflowing_hermite_seed(capsys):
    # a finite closed form at every slice; the series at t = 4.2 is not
    code, out, err = _run_strict("verify --chi-im 27", capsys)
    assert code == 3
    assert err == "verification failed: wave-packet-nondiffusion\n"
    row = next(line for line in out.splitlines() if "wave-packet-nondiffusion" in line)
    assert row.startswith("FAIL") and row.endswith(
        "max |series - closed| = 7.009e-07 (tol 1e-08), "
        "max width drift = 5.929e-14 (tol 1e-08)"
    )


def test_a_label_whose_modulus_overflows_is_refused_by_name(capsys):
    chi = complex(1.5e308, 1.5e308)
    with pytest.raises(OverflowError):
        abs(chi)  # |chi| past the float range raises rather than giving inf
    code, out, err = _run_strict("spectrum --chi-re 1.5e308 --chi-im 1.5e308", capsys)
    assert (code, out) == (1, "")
    assert err == (
        "oscilab: error: label (1.5e+308+1.5e+308j) is too large: |chi|^2 overflows\n"
    )
