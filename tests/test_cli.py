"""Config parsing, record output, and command-line behavior."""

import io
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from pqsim import cli
from pqsim import experiments as exp
from pqsim.devices import DEVICE_KINDS, DeviceSpec
from pqsim.cli import (
    ConfigError,
    DEFAULT_SEED,
    _device_spec,
    _outcome_fields,
    build_state,
    format_record,
    format_value,
    list_devices,
    main,
    parse_complex,
    parse_config,
    run,
    run_experiment,
)
from pqsim.qcore import FactorSpace, HermitianObservable, PureState, RandomStream

from . import oracles

MINIMAL = """
# minimal Bell-state entropy meter
space.dims = [2, 2]
state.kind = "bell"
action.type = "device"
action.device.kind = "EntropyMeter"
action.device.alpha = 1
action.target = [0]
"""


class TestConfigParsing:
    def test_minimal_entropy_meter(self):
        config = parse_config(MINIMAL)
        assert config.dims == (2, 2)
        assert config.state_kind == "bell"
        assert config.name == "EntropyMeter"
        params = dict(config.params)
        assert params.get("alpha") == 1
        assert params.get("precision") is None  # m absent: infinite precision
        assert config.seed == DEFAULT_SEED
        assert config.repetitions == 1

    def test_amplitude_length_mismatch_names_key(self):
        text = """
space.dims = [2, 2]
state.kind = "explicit"
state.amplitudes = [1, 0, 0, 0, 0]
action.type = "device"
action.device.kind = "Readout"
action.target = [0]
"""
        with pytest.raises(ConfigError) as err:
            parse_config(text)
        assert "state.amplitudes" in str(err.value)
        assert "5" in str(err.value) and "4" in str(err.value)

    def test_certifier_threshold_range_cites_limit(self):
        text = """
space.dims = [2, 2]
state.kind = "bell"
action.type = "device"
action.device.kind = "EntropyCertifier"
action.device.entropy_threshold = 1.5
action.target = [0]
"""
        with pytest.raises(ConfigError) as err:
            parse_config(text)
        message = str(err.value)
        assert "0 < E < 1" in message
        assert "entropy_threshold" in message

    def test_unknown_key_fatal(self):
        with pytest.raises(ConfigError) as err:
            parse_config(MINIMAL + "\nspace.volume = 3\n")
        assert "space.volume" in str(err.value)

    def test_unknown_device_param_fatal(self):
        with pytest.raises(ConfigError) as err:
            parse_config(MINIMAL + "\naction.device.threshold = 0.2\n")
        assert "threshold" in str(err.value)

    def test_missing_required_key(self):
        with pytest.raises(ConfigError) as err:
            parse_config('state.kind = "bell"\naction.type = "device"\n')
        assert "space.dims" in str(err.value)

    def test_duplicate_key_fatal(self):
        with pytest.raises(ConfigError):
            parse_config(MINIMAL + "\nstate.kind = \"ghz\"\n")

    def test_malformed_line_reports_number(self):
        with pytest.raises(ConfigError) as err:
            parse_config("space.dims [2, 2]\n")
        assert "line 1" in str(err.value)

    def test_bell_needs_two_equal_factors(self):
        with pytest.raises(ConfigError):
            parse_config(MINIMAL.replace("[2, 2]", "[2, 3]"))

    def test_product_labels_validated(self):
        text = """
space.dims = [2, 3]
state.kind = "product"
state.labels = [1]
action.type = "device"
action.device.kind = "Readout"
action.target = [0]
"""
        with pytest.raises(ConfigError) as err:
            parse_config(text)
        assert "state.labels" in str(err.value)

    def test_target_range_checked(self):
        with pytest.raises(ConfigError) as err:
            parse_config(MINIMAL.replace("action.target = [0]", "action.target = [5]"))
        assert "action.target" in str(err.value)

    @pytest.mark.parametrize("action,name_line,name", [
        ("device", 'action.device.kind = "EntropyMeter"\naction.target = [0]', "EntropyMeter"),
        ("experiment", 'action.experiment.id = "spod-update"', "spod-update"),
        ("check", 'action.check.kind = "product_form"', "product_form"),
    ])
    def test_name_round_trips_through_to_text(self, action, name_line, name):
        text = f'space.dims = [2, 2]\nstate.kind = "bell"\naction.type = "{action}"\n{name_line}\n'
        config = parse_config(text)
        assert config.name == name


class TestStateConstruction:
    def test_bell(self):
        config = parse_config(MINIMAL)
        state = build_state(config)
        np.testing.assert_allclose(state.amplitudes,
                                   np.array([1, 0, 0, 1]) / math.sqrt(2), atol=1e-12)

    def test_ghz(self):
        text = MINIMAL.replace('"bell"', '"ghz"').replace("[2, 2]", "[2, 2, 2]")
        state = build_state(parse_config(text))
        want = np.zeros(8)
        want[0] = want[7] = 1 / math.sqrt(2)
        np.testing.assert_allclose(state.amplitudes, want, atol=1e-12)

    def test_product_labels(self):
        text = """
space.dims = [2, 3]
state.kind = "product"
state.labels = [1, 2]
action.type = "device"
action.device.kind = "Readout"
action.target = [0]
"""
        state = build_state(parse_config(text))
        assert state.amplitudes[5] == pytest.approx(1.0)

    def test_random_is_seed_deterministic(self):
        text = "seed = 4\n" + MINIMAL.replace('"bell"', '"random"')
        a = build_state(parse_config(text))
        b = build_state(parse_config(text))
        np.testing.assert_array_equal(a.amplitudes, b.amplitudes)

    def test_explicit_renormalized_with_warning(self, capsys):
        text = """
space.dims = [2]
state.kind = "explicit"
state.amplitudes = [1.0000004, 0]
action.type = "device"
action.device.kind = "Readout"
action.target = [0]
"""
        state = build_state(parse_config(text))
        assert np.linalg.norm(state.amplitudes) == pytest.approx(1.0, abs=1e-15)
        assert "renormalizing" in capsys.readouterr().err


class TestRecordFormat:
    def test_keys_sorted_lexicographically(self):
        line = format_record({"zeta": 1, "alpha": 2, "mid": 3})
        assert line == "alpha=2 mid=3 zeta=1"

    def test_complex_rendering(self):
        assert format_value(complex(0.5, -0.25)) == "0.5-0.25i"
        assert format_value(complex(1, 0)) == "1+0i"
        assert format_value(1 / 3) == "0.33333333333333331"

    def test_bool_and_list(self):
        assert format_value(True) == "true"
        assert format_value([1, 2.5, "x"]) == "[1,2.5,x]"

    def test_matrix_flattens_row_major(self):
        mat = np.array([[1, 2j], [0, 1]], dtype=complex)
        assert format_value(mat) == "[1+0i,0+2i,0+0i,1+0i]"

    def test_parse_complex_round_trip(self):
        for z in (complex(0.5, 0.25), complex(-1.5, -2.0), complex(0, 1),
                  complex(1e-17, -3e5)):
            assert parse_complex(format_value(z)) == pytest.approx(z)

    def test_parse_complex_plain_real(self):
        assert parse_complex("0.25") == 0.25 + 0j


class TestRunAction:
    def test_device_run_writes_repetitions_and_summary(self, tmp_path):
        path = tmp_path / "out.records"
        config = parse_config(MINIMAL + f'\noutput.path = "{path}"\n'
                              + "action.repetitions = 3\n")
        assert run(config) == 0
        lines = path.read_text().strip().splitlines()
        assert len(lines) == 4
        assert sum("record=repetition" in line for line in lines) == 3
        assert lines[-1].startswith("action=device")
        assert "value=0.99999999999999989" in lines[0]

    def test_byte_identical_reruns(self, tmp_path):
        p1, p2 = tmp_path / "a.rec", tmp_path / "b.rec"
        base = MINIMAL + "action.repetitions = 5\n"
        run(parse_config(base + f'output.path = "{p1}"\n'))
        run(parse_config(base + f'output.path = "{p2}"\n'))
        assert p1.read_bytes() == p2.read_bytes()

    def test_experiment_action_exit_zero_on_violation(self, capsys):
        text = """
space.dims = [2, 2]
state.kind = "bell"
action.type = "experiment"
action.experiment.id = "no-signalling"
"""
        assert run(parse_config(text)) == 0
        out = capsys.readouterr().out
        assert "verdict=VIOLATION_CERTIFIED" in out
        assert "entropy_before=1" in out or "entropy_before=0.9999" in out

    def test_check_action(self, capsys):
        text = """
space.dims = [2]
state.kind = "random"
action.type = "check"
action.check.kind = "estimation_assumption"
action.check.family = "entropy_meter"
"""
        assert run(parse_config(text)) == 0
        assert "verdict=SATISFIED-TRIVIALLY" in capsys.readouterr().out

    def test_stochastic_device_run(self, capsys):
        text = """
seed = 11
space.dims = [2, 2]
state.kind = "bell"
action.type = "device"
action.device.kind = "EigenvalueSampler"
action.device.observable = "pauli_z"
action.target = [0]
action.repetitions = 20
"""
        assert run(parse_config(text)) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        values = {line.split("value=")[1].split()[0]
                  for line in lines if "record=repetition" in line}
        assert values == {"1", "-1"}  # both Born branches appear over 20 draws

    @pytest.mark.parametrize("kind,lines,target", [
        ("EigenvalueSampler", ['observable = "pauli_x"'], "[1]"),
        ("BasisSelect", ["sharpness = 3.0"], "[0]"),
        ("EntropyMeter", [], "[0]"),
    ])
    def test_device_run_equals_per_repetition_loop(self, kind, lines, target, capsys):
        text = ('seed = 13\nspace.dims = [2, 2]\nstate.kind = "random"\n'
                f'action.type = "device"\naction.device.kind = "{kind}"\n'
                + "".join(f"action.device.{line}\n" for line in lines)
                + f"action.target = {target}\naction.repetitions = 300\n")
        config = parse_config(text)
        assert run(config) == 0
        records = capsys.readouterr().out.splitlines()[:-1]
        spec = _device_spec(kind, dict(config.params), 2)
        outcomes = oracles.device_run_outcomes(spec, build_state(config), config.target,
                                               13, 300)
        assert records == [format_record({"record": "repetition", "repetition": rep,
                                          **_outcome_fields(outcome)})
                           for rep, outcome in enumerate(outcomes)]

    def test_deterministic_device_builds_no_stream(self, capsys, monkeypatch):
        built = []
        init = RandomStream.__init__

        def counting_init(self, *args, **kwargs):
            built.append(args)
            init(self, *args, **kwargs)

        monkeypatch.setattr(RandomStream, "__init__", counting_init)
        assert run(parse_config(MINIMAL + "action.repetitions = 300\n")) == 0
        assert built == []
        assert capsys.readouterr().out.count("record=repetition") == 300

    def test_text_format(self, capsys):
        text = MINIMAL + 'output.format = "text"\n'
        run(parse_config(text))
        out = capsys.readouterr().out
        assert out.startswith("repetition:")


class TestDemos:
    def test_all_demo_names_dispatch(self):
        quick = {
            "fpvnem": {"samples": 50}, "spod-update": {}, "no-signalling": {},
            "cloning": {"trials": 10}, "tomography": {"n": 1000},
            "ensemble-readout": {"n": 500}, "ensemble-overlap": {"n": 200},
        }
        for name, params in quick.items():
            result = run_experiment(name, params, seed=3)
            fields = result.record_fields()
            assert fields["seed"] == 3

    def test_main_demo_no_signalling(self, capsys):
        assert main(["demo", "no-signalling"]) == 0
        out = capsys.readouterr().out
        assert "entropy_before=" in out and "entropy_after=0" in out
        assert "verdict=VIOLATION_CERTIFIED" in out

    def test_main_demo_fpvnem_flags(self, capsys):
        assert main(["demo", "fpvnem", "--d", "2", "--m", "3", "--seed", "5"]) == 0
        out = capsys.readouterr().out
        assert "verdict=VIOLATION_CERTIFIED" in out
        assert "outcome_bound=9" in out
        assert "seed=5" in out

    def test_seed_precedence_flag_over_env(self, capsys, monkeypatch):
        monkeypatch.setenv("PQSIM_SEED", "111")
        main(["demo", "spod-update"])
        assert "seed=111" in capsys.readouterr().out
        main(["demo", "spod-update", "--seed", "222"])
        assert "seed=222" in capsys.readouterr().out

    def test_env_seed_reaches_config(self, monkeypatch):
        monkeypatch.setenv("PQSIM_SEED", "333")
        assert parse_config(MINIMAL).seed == 333
        assert parse_config("seed = 1\n" + MINIMAL).seed == 1  # config wins over env


class TestMainEntry:
    def test_malformed_config_exits_two(self, tmp_path, capsys):
        bad = tmp_path / "bad.pq"
        bad.write_text("space.dims = [2, 2]\nstate.kind = `bell`\n")
        assert main(["run", str(bad)]) == 2
        assert "configuration error" in capsys.readouterr().err

    def test_missing_file_exits_two(self, capsys):
        assert main(["run", "/nonexistent/config.pq"]) == 2

    def test_run_file_round_trip(self, tmp_path, capsys):
        cfg = tmp_path / "run.pq"
        cfg.write_text(MINIMAL)
        assert main(["run", str(cfg)]) == 0
        assert "outcome_type=real" in capsys.readouterr().out

    def test_check_commands(self, capsys):
        assert main(["check", "estimation", "--family", "readout"]) == 0
        assert "verdict=FAILS" in capsys.readouterr().out
        assert main(["check", "product-form", "--family", "fpvnem"]) == 0
        assert "verdict=VIOLATION" in capsys.readouterr().out
        assert main(["check", "closure", "--family", "quantum_povm",
                     "--samples", "30"]) == 0
        assert "passed=true" in capsys.readouterr().out


class TestConfigurationExitCodes:
    """Out-of-range inputs exit 2 with a configuration error, never a traceback."""

    @pytest.mark.parametrize("argv", [
        ["demo", "fpvnem", "--d", "7"],
        ["demo", "fpvnem", "--m", "9"],
        ["demo", "cloning", "--d", "9"],
        ["demo", "cloning", "--m", "0"],
        ["demo", "ensemble-readout", "--m", "0"],
        ["check", "product-form", "--d", "5"],
        ["check", "product-form", "--m", "0"],
        ["check", "closure", "--samples", "0"],
        ["check", "closure", "--family", "entropy_meter", "--m", "0"],
        ["check", "closure", "--family", "nope"],
        ["check", "estimation", "--family", "nope"],
        ["check", "estimation", "--d", "9"],
    ])
    def test_out_of_range_argument_exits_two(self, argv, capsys):
        assert main(argv) == 2
        assert "configuration error" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["demo", "no-signalling"],
        ["check", "closure", "--samples", "5"],
    ])
    def test_malformed_env_seed_exits_two(self, argv, capsys, monkeypatch):
        monkeypatch.setenv("PQSIM_SEED", "abc")
        assert main(argv) == 2
        assert "PQSIM_SEED" in capsys.readouterr().err

    def test_malformed_env_seed_in_config_is_a_config_error(self, monkeypatch):
        monkeypatch.setenv("PQSIM_SEED", "abc")
        with pytest.raises(ConfigError) as err:
            parse_config(MINIMAL)
        assert "PQSIM_SEED" in str(err.value)
        assert parse_config("seed = 1\n" + MINIMAL).seed == 1  # config wins, env unread

    @pytest.mark.parametrize("experiment,line", [
        ("fpvnem", 'action.experiment.d = "x"'),
        ("ensemble-readout", "action.experiment.precisions = []"),
    ])
    def test_malformed_experiment_parameter_exits_two(self, experiment, line, tmp_path,
                                                      capsys):
        cfg = tmp_path / "bad.pq"
        cfg.write_text('space.dims = [2]\nstate.kind = "random"\n'
                       f'action.type = "experiment"\naction.experiment.id = "{experiment}"\n'
                       f"{line}\n")
        assert main(["run", str(cfg)]) == 2
        assert "configuration error" in capsys.readouterr().err

    @pytest.mark.parametrize("experiment,name", [
        (None, "samples"),  # check closure --samples
        ("fpvnem", "samples"),
        ("cloning", "trials"),
        ("ensemble-readout", "n"),
        ("ensemble-overlap", "n"),
    ])
    def test_huge_count_exits_two_naming_its_key(self, experiment, name, tmp_path, capsys):
        # 2^64 overflows numpy's sizes and draws; a count has a bound instead
        if experiment is None:
            status, key = main(["check", "closure", "--samples", str(2 ** 64)]), name
        else:
            cfg = tmp_path / "huge.pq"
            cfg.write_text('space.dims = [2]\nstate.kind = "random"\n'
                           f'action.type = "experiment"\naction.experiment.id = "{experiment}"\n'
                           f"action.experiment.{name} = {2 ** 64}\n")
            status, key = main(["run", str(cfg)]), f"action.experiment.{name}"
        assert status == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "configuration error" in captured.err and f"(key '{key}'" in captured.err

    def test_non_finite_amplitude_exits_two(self, tmp_path, capsys):
        cfg = tmp_path / "nan.pq"
        cfg.write_text('space.dims = [2, 2]\nstate.kind = "explicit"\n'
                       'state.amplitudes = ["nan", 0, 0, 0]\naction.type = "device"\n'
                       'action.device.kind = "EntropyMeter"\naction.target = [0]\n')
        assert main(["run", str(cfg)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "configuration error" in captured.err and "state.amplitudes" in captured.err

    @pytest.mark.parametrize("key,value,kind", [
        ("observable", "[1, 2, 0, 1]", "ExpectationReadout"),
        ("observable", '["nan", 0, 0, 1]', "EigenvalueSampler"),
        ("target_state", '["nan", 1]', "OverlapTest"),
        ("target_state", "[0, 0]", "OverlapTest"),
    ])
    def test_unphysical_device_parameter_exits_two(self, key, value, kind, tmp_path, capsys):
        extra = "action.device.threshold = 0.5\n" if kind == "OverlapTest" else ""
        cfg = tmp_path / "device.pq"
        cfg.write_text(f'space.dims = [2, 2]\nstate.kind = "bell"\naction.type = "device"\n'
                       f'action.device.kind = "{kind}"\naction.target = [0]\n'
                       f"action.device.{key} = {value}\n{extra}")
        assert main(["run", str(cfg)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "configuration error" in captured.err
        assert f"action.device.{key}" in captured.err

    @pytest.mark.parametrize("line", [
        "action.device.precision = nan",
        "action.device.precision = inf",
        "action.repetitions = [1, -inf]",
    ])
    def test_non_finite_number_is_a_config_error(self, line):
        with pytest.raises(ConfigError) as err:
            parse_config(MINIMAL + line + "\n")
        assert "non-finite value" in str(err.value)
        assert line.split(" = ")[0] in str(err.value)

    @pytest.mark.parametrize("seed", [-1, 2 ** 64, 2 ** 65 - 1])
    def test_seed_outside_64_bits_exits_two(self, seed, tmp_path, capsys, monkeypatch):
        assert main(["demo", "cloning", "--m", "6", "--seed", str(seed)]) == 2
        assert "--seed must be an integer in [0, 2^64)" in capsys.readouterr().err
        assert _run_config(tmp_path, f"seed = {seed}\n" + MINIMAL) == 2
        err = capsys.readouterr().err
        assert "seed must be an integer in [0, 2^64)" in err
        assert "(key 'seed', line 1)" in err  # a config's seed names its key
        monkeypatch.setenv("PQSIM_SEED", str(seed))
        assert main(["demo", "cloning", "--m", "6"]) == 2
        assert _run_config(tmp_path, MINIMAL) == 2
        assert capsys.readouterr().err.count("PQSIM_SEED must be an integer") == 2

    def test_largest_seed_is_accepted(self, capsys):
        assert main(["demo", "cloning", "--m", "6", "--seed", str(2 ** 64 - 1)]) == 0
        assert f"seed={2 ** 64 - 1} " in capsys.readouterr().out

    def test_unused_argument_is_not_validated(self, capsys):
        assert main(["check", "closure", "--family", "quantum_povm", "--m", "0",
                     "--samples", "5"]) == 0

    @pytest.mark.parametrize("argv", [
        ["check", "closure", "--family", "entropy_meter", "--m", "9"],
        ["check", "closure", "--family", "fpvnem", "--m", "9"],
        ["check", "product-form", "--family", "fpvnem", "--m", "9"],
    ])
    def test_meter_precision_is_bounded_before_the_meter_is_built(self, argv, capsys,
                                                                 monkeypatch):
        # the meter has 2^m log2(d) + 1 outcomes, so an unbounded m exhausts memory
        def refuse(*args, **kwargs):
            raise AssertionError("the meter was built")

        monkeypatch.setattr(cli, "entropy_meter_measurement", refuse)
        assert main(argv) == 2
        assert "m must lie in [1, 8], got 9 (key 'm')" in capsys.readouterr().err

    @pytest.mark.parametrize("make", [
        lambda path: path.mkdir(),
        lambda path: path.write_bytes(b"\xff\xfe" + MINIMAL.encode()),
    ], ids=["directory", "not-utf8"])
    def test_unreadable_config_exits_two_naming_its_path(self, make, tmp_path, capsys):
        path = tmp_path / "run.pq"
        make(path)
        assert main(["run", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "configuration error" in captured.err and repr(str(path)) in captured.err

    def test_output_path_that_is_a_directory_exits_two(self, tmp_path, capsys):
        out = tmp_path / "out"
        out.mkdir()
        assert _run_config(tmp_path, MINIMAL + f'output.path = "{out}"\n') == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert repr(str(out)) in captured.err and "(key 'output.path')" in captured.err

    @pytest.mark.parametrize("text,key", [
        # a 40-qubit GHZ state has 2^40 amplitudes, 16 TiB
        (f'space.dims = [{", ".join(["2"] * 40)}]\nstate.kind = "ghz"\naction.type = "device"\n'
         'action.device.kind = "EntropyMeter"\naction.target = [0]\n', "space.dims"),
        (f'space.dims = [{", ".join(["2"] * 40)}]\nstate.kind = "ghz"\n'
         'action.type = "experiment"\naction.experiment.id = "spod-update"\n', "space.dims"),
        (f'space.dims = [{", ".join(["2"] * 40)}]\nstate.kind = "product"\n'
         f'state.labels = [{", ".join(["0"] * 40)}]\n'
         'action.type = "experiment"\naction.experiment.id = "spod-update"\n', "space.dims"),
        # 2^24 amplitudes are allowed, but a (2^24, 2^24) density is 4 PiB
        ('space.dims = [4096, 4096]\nstate.kind = "bell"\naction.type = "device"\n'
         'action.device.kind = "Readout"\naction.target = [0, 1]\n', "action.target"),
    ], ids=["ghz-device", "ghz-experiment", "product-experiment", "readout-on-both"])
    def test_oversized_space_exits_two_naming_its_key(self, text, key, tmp_path, capsys):
        assert _run_config(tmp_path, text) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "configuration error" in captured.err and f"(key '{key}'" in captured.err


@pytest.mark.parametrize("verdict,status", [
    (exp.VIOLATION_CERTIFIED, 0), (exp.CONSISTENT, 0), (exp.FAIL, 1)])
def test_certificate_passed_gives_the_exit_status(verdict, status):
    cert = exp.Certificate("demo", verdict, {"evidence": 1.5}, 7)
    assert cert.passed is (status == 0)
    action = cli.Action("demo", "demo", 99, {}, lambda read, rng: cert)
    assert cli._action_record(action, {}, 7) == (cert.record_fields(), status)


def test_default_ensemble_equals_its_per_state_construction():
    qubit = FactorSpace((2,))
    want = [(PureState.basis_state(qubit, 0), 0.5), (PureState.basis_state(qubit, 1), 0.3),
            (PureState(qubit, np.array([1, 1]) / math.sqrt(2.0)), 0.2)]
    got = cli._default_ensemble().members
    assert [(s.space, s.amplitudes.tobytes(), w) for s, w in got] == [
        (s.space, s.amplitudes.tobytes(), w) for s, w in want]


def test_cli_import_does_not_load_scipy():
    code = "import sys, pqsim.cli; print('scipy' in sys.modules)"
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parent.parent / "src"))
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env=env, check=True)
    assert out.stdout.strip() == "False"


def test_cli_import_does_not_load_numpy_random():
    """numpy.random loads when the first stream is made, so list-devices and
    deterministic runs never pay for its import."""
    code = "import sys, pqsim.cli; print('numpy.random' in sys.modules)"
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parent.parent / "src"))
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env=env, check=True)
    assert out.stdout.strip() == "False"


class TestListDevices:
    def test_catalog_has_eleven_kinds(self):
        text = list_devices()
        payload = json.loads(list_devices(as_json=True))
        assert len(payload) == 11
        for kind in payload:
            assert kind in text

    def test_json_fields(self):
        payload = json.loads(list_devices(as_json=True))
        entry = payload["EigenvalueSampler"]
        assert "SEVRD" in entry["aliases"]
        assert entry["stochastic"] is True

    def test_filter_substring(self):
        payload = json.loads(list_devices(as_json=True, pattern="entropy"))
        assert sorted(payload) == ["EntropyCertifier", "EntropyMeter"]

    def test_main_list(self, capsys):
        assert main(["list-devices", "--json", "entropy"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert sorted(payload) == ["EntropyCertifier", "EntropyMeter"]


def _run_config(tmp_path, text):
    cfg = tmp_path / "run.pq"
    cfg.write_text(text)
    return main(["run", str(cfg)])


@pytest.mark.parametrize("amplitudes", ["[1e308, 1e308]", "[1e200, 0]", '["0+1e308i", 0]'])
def test_huge_explicit_amplitudes_exit_two_without_a_warning(amplitudes, tmp_path, capsys):
    text = ('space.dims = [2]\nstate.kind = "explicit"\n'
            f'state.amplitudes = {amplitudes}\naction.type = "device"\n'
            'action.device.kind = "EntropyMeter"\naction.target = [0]\n')
    assert _run_config(tmp_path, text) == 2
    err = capsys.readouterr().err
    assert "amplitudes norm inf deviates from 1 beyond 1e-6" in err
    assert "state.amplitudes" in err


def _device_config(kind, target, lines):
    return ('space.dims = [2, 2]\nstate.kind = "bell"\naction.type = "device"\n'
            f'action.device.kind = "{kind}"\naction.target = {target}\n'
            + "".join(f"action.device.{line}\n" for line in lines))


class TestDeviceParameterExitCodes:
    """Malformed device parameters exit 2 and name the offending key."""

    @pytest.mark.parametrize("kind,lines,key", [
        ("EigenvalueSampler", ['observable = "pauli_z"', 'variant = "nope"'], "variant"),
        ("EigenvalueSampler", ['observable = "pauli_z"', 'variant = "finite"'], "max_label"),
        ("EntropyMeter", ["alpha = -1"], "alpha"),
        ("EntropyCertifier", ["alpha = -1", "entropy_threshold = 0.5"], "alpha"),
        ("Readout", ['precision = "x"'], "precision"),
        ("Readout", ["precision = -3"], "precision"),
        ("FunctionReadout", ["exponent = 0"], "exponent"),
        ("BasisSelect", ["sharpness = -1"], "sharpness"),
        ("OverlapTest", ["target_state = [1, 0]", "threshold = 0.5", "sharpness = 0"],
         "sharpness"),
        ("Readout", ["basis = [1, 1, 0, 1]"], "basis"),
        ("EntropyCertifier", ['entropy_threshold = "x"'], "entropy_threshold"),
        ("OverlapTest", ["target_state = [1, 0]", 'threshold = "x"'], "threshold"),
        ("PovmSampler", ['povm = "computational"', 'max_label = "x"'], "max_label"),
        ("EigenvalueSampler", ['observable = "pauli_x"', 'variant = "bit"'], "variant"),
    ])
    def test_malformed_parameter_exits_two(self, kind, lines, key, tmp_path, capsys):
        assert _run_config(tmp_path, _device_config(kind, "[0]", lines)) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "configuration error" in captured.err
        assert f"action.device.{key}" in captured.err

    @pytest.mark.parametrize("old,new,key", [
        ("action.target = [0]", "action.target = [0, 0]", "action.target"),
        ('state.kind = "bell"', 'state.kind = "product"\nstate.labels = 3', "state.labels"),
        ('state.kind = "bell"', 'state.kind = "explicit"\nstate.amplitudes = 3',
         "state.amplitudes"),
        ('"EntropyMeter"', '"ExpectationReadout"\naction.device.observable = 3',
         "action.device.observable"),
    ])
    def test_malformed_value_exits_two(self, old, new, key, tmp_path, capsys):
        assert _run_config(tmp_path, MINIMAL.replace("action.device.alpha = 1\n", "")
                           .replace(old, new)) == 2
        assert key in capsys.readouterr().err

    @pytest.mark.parametrize("dims,kind,lines,key", [
        ("[2, 2]", "Readout", ['basis = ["nan", 0, 0, 1]'], "action.device.basis"),
        ("[2]", "EntanglementAnalyse", [], "action.device.kind"),
        ("[3, 2]", "ExpectationReadout", ['observable = "pauli_x"'],
         "action.device.observable"),
        ("[2, 2]", "OverlapTest", ["target_state = [1, 0, 0]", "threshold = 0.5"],
         "action.device.target_state"),
    ])
    def test_library_rejects_parameters_at_parse_time(self, dims, kind, lines, key,
                                                      tmp_path, capsys):
        text = (f'space.dims = {dims}\nstate.kind = "random"\naction.type = "device"\n'
                f'action.device.kind = "{kind}"\naction.target = [0]\n'
                + "".join(f"action.device.{line}\n" for line in lines))
        assert _run_config(tmp_path, text) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "configuration error" in captured.err and key in captured.err

    def test_product_labels_out_of_range_exit_two(self, tmp_path, capsys):
        text = MINIMAL.replace('state.kind = "bell"', 'state.kind = "product"\n'
                               "state.labels = [5, 0]")
        assert _run_config(tmp_path, text) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "state.labels" in captured.err and "out of range" in captured.err

    def test_entanglement_analyse_needs_a_single_factor(self, tmp_path, capsys):
        assert _run_config(tmp_path, _device_config("EntanglementAnalyse", "[0, 1]", [])) == 2
        assert "action.target" in capsys.readouterr().err

    def test_function_readout_requires_exponent(self, tmp_path, capsys):
        assert _run_config(tmp_path, _device_config("FunctionReadout", "[0]", [])) == 2
        assert "action.device.exponent" in capsys.readouterr().err
        assert _run_config(tmp_path, _device_config("FunctionReadout", "[0]",
                                                    ["exponent = 2"])) == 0


def _experiment_config(experiment, line):
    return ('space.dims = [2]\nstate.kind = "random"\naction.type = "experiment"\n'
            f'action.experiment.id = "{experiment}"\naction.experiment.{line}\n')


# configs with a bool, float or string where an integer or number belongs
_NON_INTEGERS = [
    ("seed = true\n" + MINIMAL, "seed"),
    (_experiment_config("cloning", "d = 2.7"), "action.experiment.d"),
    (_experiment_config("cloning", 'trials = "5"'), "action.experiment.trials"),
    (_experiment_config("cloning", "precision = true"), "action.experiment.precision"),
    (_device_config("EigenvalueSampler", "[0]", [
        'observable = "pauli_z"', 'variant = "finite"', "max_label = 0.5"]),
     "action.device.max_label"),
    (_device_config("Readout", "[0]", ["precision = true"]), "action.device.precision"),
    (MINIMAL.replace("alpha = 1", "alpha = true"), "action.device.alpha"),
    (MINIMAL.replace("action.target = [0]", "action.target = [true]"), "action.target"),
    (MINIMAL + "action.repetitions = true\n", "action.repetitions"),
    (MINIMAL.replace("space.dims = [2, 2]", "space.dims = [2, 2.0]"), "space.dims"),
    (MINIMAL.replace('state.kind = "bell"',
                     'state.kind = "product"\nstate.labels = [true, false]'),
     "state.labels"),
    (MINIMAL.replace('state.kind = "bell"',
                     'state.kind = "explicit"\nstate.amplitudes = [true, 0, 0, 0]'),
     "state.amplitudes"),
]


class TestStrictIntegers:
    """A config integer is an int that is not a bool; a number is an int or a
    float.  Booleans, floats and strings in their place exit 2 naming the key."""

    @pytest.mark.parametrize("text,key", _NON_INTEGERS, ids=[k for _, k in _NON_INTEGERS])
    def test_non_integer_exits_two_naming_key(self, text, key, tmp_path, capsys):
        assert _run_config(tmp_path, text) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "configuration error" in captured.err and key in captured.err

    @pytest.mark.parametrize("line", ["trials = 1" + "0" * 400, "d = -1" + "0" * 400],
                             ids=["trials", "d"])
    def test_integer_beyond_float_range_exits_two(self, line, tmp_path, capsys):
        assert _run_config(tmp_path, _experiment_config("cloning", line)) == 2
        key = "action.experiment." + line.split(" = ")[0]
        assert key in capsys.readouterr().err

    def test_number_parameter_takes_an_integer_as_a_float(self):
        report = run_experiment("tomography", {"n": 1000, "threshold": 1}, seed=3)
        assert type(report.threshold) is float and report.threshold == 1.0


@pytest.mark.parametrize("kind", ["EigenvalueSampler", "ExpectationReadout",
                                  "UncertaintySampler"])
def test_config_run_diagonalises_the_observable_once(kind, capsys, monkeypatch):
    """The observable is resolved once per DeviceSpec, not once per repetition."""
    built = []
    init = HermitianObservable.__init__

    def counting(self, entries):
        built.append(1)
        init(self, entries)

    monkeypatch.setattr(HermitianObservable, "__init__", counting)
    config = parse_config(_device_config(kind, "[1]", ['observable = "pauli_x"'])
                          + "action.repetitions = 300\n")
    assert run(config) == 0
    assert len(capsys.readouterr().out.splitlines()) == 301
    assert len(built) <= 2


@pytest.mark.parametrize("kind", ["EigenvalueSampler", "ExpectationReadout",
                                  "UncertaintySampler"])
def test_config_run_resolves_the_device_once(kind, capsys, monkeypatch):
    """run uses the device parse_config built and checked: one resolution of
    the parameters, one observable."""
    resolved, built = [], []
    device_spec, init = cli._device_spec, HermitianObservable.__init__

    def counting_spec(*args, **kwargs):
        resolved.append(1)
        return device_spec(*args, **kwargs)

    def counting_init(self, entries):
        built.append(1)
        init(self, entries)

    monkeypatch.setattr(cli, "_device_spec", counting_spec)
    monkeypatch.setattr(HermitianObservable, "__init__", counting_init)
    config = parse_config(_device_config(kind, "[1]", ['observable = "pauli_x"'])
                          + "action.repetitions = 300\n")
    assert run(config) == 0
    assert len(capsys.readouterr().out.splitlines()) == 301
    assert (len(resolved), len(built)) == (1, 1)


@pytest.mark.parametrize("fmt", ["records", "text"])
def test_device_records_are_written_as_made(fmt, tmp_path, monkeypatch):
    """Each repetition's record is written before the next repetition runs,
    and stdout and file outputs are the bytes the runner wrote when it
    joined all records at the end."""
    text = ('seed = 13\nspace.dims = [2, 2]\nstate.kind = "random"\naction.type = "device"\n'
            'action.device.kind = "EigenvalueSampler"\naction.device.observable = "pauli_x"\n'
            f'action.target = [1]\naction.repetitions = 300\noutput.format = "{fmt}"\n')
    config = parse_config(text)
    want = oracles.device_run_output(config, build_state(config))

    out = io.StringIO()
    lines_before_draw = []
    apply = DeviceSpec.apply

    def spy(self, *args):
        lines_before_draw.append(out.getvalue().count("\n"))
        return apply(self, *args)

    monkeypatch.setattr(sys, "stdout", out)
    monkeypatch.setattr(DeviceSpec, "apply", spy)
    assert run(config) == 0
    assert lines_before_draw == list(range(300))
    assert out.getvalue() == want

    path = tmp_path / "records.out"
    assert run(parse_config(text + f'output.path = "{path}"\n')) == 0
    assert path.read_text(encoding="utf-8") == want
    assert out.getvalue() == want  # nothing more went to stdout

# a valid value of every required device parameter, on a qubit target
REQUIRED_VALUES = {
    "observable": '"pauli_z"', "povm": '"computational"', "target_state": "[1, 0]",
    "threshold": "0.5", "entropy_threshold": "0.5", "exponent": "2",
}


@pytest.mark.parametrize("kind,missing", [
    (kind, name) for kind, record in DEVICE_KINDS.items() for name in record.required])
def test_missing_required_device_parameter_exits_two(kind, missing, tmp_path, capsys):
    lines = [f"{name} = {REQUIRED_VALUES[name]}"
             for name in DEVICE_KINDS[kind].required if name != missing]
    assert _run_config(tmp_path, _device_config(kind, "[0]", lines)) == 2
    captured = capsys.readouterr()
    assert "configuration error" in captured.err
    assert f"action.device.{missing}" in captured.err
    complete = lines + [f"{missing} = {REQUIRED_VALUES[missing]}"]
    assert _run_config(tmp_path, _device_config(kind, "[0]", complete)) == 0


class TestExperimentParameterExitCodes:
    @pytest.mark.parametrize("experiment,line", [
        ("fpvnem", "samples = 0"),
        ("fpvnem", 'samples = "x"'),
        ("ensemble-overlap", "n = 0"),
        ("spod-update", 'element = "nope"'),
        ("tomography", 'threshold = "x"'),
        ("ensemble-overlap", "epsilons = [2]"),
        ("ensemble-readout", "weights = [0.5, 0.5]"),
        ("ensemble-overlap", "weights = [0.5, 0.5]"),
        ("no-signalling", "weights = [0.7, 0.7]"),
        ("no-signalling", "weights = [0.2, 0.3, 0.5]"),
    ])
    def test_malformed_or_unread_parameter_exits_two(self, experiment, line, tmp_path,
                                                     capsys):
        text = ('space.dims = [2]\nstate.kind = "random"\naction.type = "experiment"\n'
                f'action.experiment.id = "{experiment}"\naction.experiment.{line}\n')
        assert _run_config(tmp_path, text) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"action.experiment.{line.split(' = ')[0]}" in captured.err

    @pytest.mark.parametrize("argv", [
        ["demo", "tomography", "--d", "3"],
        ["demo", "spod-update", "--d", "3"],
        ["demo", "no-signalling", "--m", "3"],
        ["check", "closure", "--d", "3"],
        ["check", "estimation", "--m", "3"],
    ])
    def test_flag_the_action_does_not_take_exits_two(self, argv, capsys):
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"takes no parameter '{argv[2][2:]}'" in captured.err

    def test_tomography_reads_confidence(self):
        report = run_experiment("tomography", {"n": 1000, "confidence": 0.9}, seed=3)
        assert report.record_fields()["confidence"] == 0.9
        default = run_experiment("tomography", {"n": 1000}, seed=3)
        assert default.record_fields()["confidence"] == 0.95

    def test_m_feeds_the_records_parameter(self, capsys):
        assert main(["demo", "ensemble-readout", "--m", "4", "--seed", "3"]) == 0
        expected = run_experiment("ensemble-readout", {"precisions": [4]}, seed=3)
        assert capsys.readouterr().out == format_record(expected.record_fields()) + "\n"
