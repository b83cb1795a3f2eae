"""Config parsing, serialization round-trips, and the command-line surface."""

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

from aircomp import cli
from aircomp.cli import ConfigError, main, parse_config
from aircomp.simulator import SCHEMES, UNREAD_FIELDS, SimConfig
from conftest import serialize_config

WORKLOADS = sorted((Path(__file__).resolve().parent.parent / "perfbench" / "workloads").glob("*.ini"))


def test_empty_config_yields_one_default_experiment():
    for text in ("", "\n\n", "# just a comment\n"):
        experiments = parse_config(text)
        assert list(experiments) == ["default"]
        assert experiments["default"] == SimConfig()


def test_parse_reads_sections_keys_and_comments():
    experiments = parse_config(
        """
        [low_snr]
        scheme = proposed
        trials = 500   # fast
        snr_db_grid = -10, -5, 0
        seed = 9
        """
    )
    config = experiments["low_snr"]
    assert config.trials == 500
    assert config.snr_db_grid == (-10.0, -5.0, 0.0)
    assert config.seed == 9


def test_parse_rejects_shrinking_power_ratio_with_line_number():
    with pytest.raises(ConfigError) as err:
        parse_config("[x]\npower_mode = geometric\nvarpi = 0.5\n")
    assert "line 3" in str(err.value)
    assert "varpi" in str(err.value)


def test_parse_rejects_unknown_key_with_line_number():
    with pytest.raises(ConfigError) as err:
        parse_config("[x]\ntrials = 10\nno_such_knob = 1\n")
    assert "line 3" in str(err.value)
    assert "no_such_knob" in str(err.value)


# one bad value per range or choice rule of SimConfig.validate:
# (key, bad value, lines the rule needs before the key, part of its message)
_BAD_VALUES = [
    ("num_devices", "0", "", "num_devices must be >= 1"),
    ("bit_depth", "0", "", "bit_depth must be >= 1"),
    ("num_devices", str(2**60), "", "2^bit_depth must not exceed 2^63"),
    ("num_taps", "0", "", "num_taps must be >= 1"),
    ("source", "laplace", "", "source must be one of"),
    ("bit_depth", "49", "", "bit_depth must be >= 1 and <= 48, got 49"),
    ("source_std", "0", "", "source_std must be > 0"),
    ("source_std", "inf", "", "source_std must be > 0 and finite, got inf"),
    ("source_std", "nan", "", "source_std must be > 0 and finite, got nan"),
    ("scheme", "digital", "", "scheme must be one of"),
    ("power_mode", "random", "", "power_mode must be one of"),
    ("varpi", "0.5", "power_mode = geometric\n", "varpi must be >= 1, got 0.5"),
    ("varpi", "nan", "power_mode = geometric\n", "varpi must be >= 1, got nan"),
    ("varpi", "inf", "power_mode = geometric\n", "must give finite, positive power budgets"),
    ("varpi", "1e300", "power_mode = geometric\n", "must give finite, positive power budgets"),
    ("varpi", "2", "", "varpi > 1 requires power_mode = geometric"),
    ("detector", "map", "", "detector must be one of"),
    ("detector", "lmmse", "scheme = binary_ml\n", "set detector = ml"),
    ("power_mode", "geometric", "scheme = analog\n", "never reads power_mode"),
    ("snr_db_grid", "", "", "snr_db_grid must be non-empty"),
    ("snr_db_grid", "0 nan", "", "snr_db_grid entry nan must be finite"),
    ("trials", "0", "", "trials must be >= 1"),
    ("csi_error_radius", "1", "", "csi_error_radius must lie in [0, 1)"),
    ("seed", "-1", "", "seed must be >= 0"),
    ("n_tx", "0", "", "n_tx and n_rx must be >= 1"),
    ("n_rx", "0", "", "n_tx and n_rx must be >= 1"),
    ("analog_threshold", "-1", "", "analog_threshold must be >= 0"),
    # scales whose sums, squares or fourth powers leave float64's normal range
    ("source_std", "1e200", "source = gaussian\n", "source_std = 1e+200 must lie in"),
    ("source_std", "1e-300", "source = gaussian\n", "source_std = 1e-300 must lie in"),
    # noise powers beyond float64's normal range, less the room for the gains
    ("snr_db_grid", "0 3070", "", "snr_db_grid entry 3070.0 must be finite and give a noise power"),
    ("snr_db_grid", "-3020", "", "entry -3020.0 must be finite and give a noise power 1 / ("),
]


@pytest.mark.parametrize("key, value, needs, rule", _BAD_VALUES)
def test_validation_errors_carry_the_key_and_its_line(key, value, needs, rule):
    # keys that no rule names sit on the lines before and after the bad one
    text = "# rules\n[x]\nreallocate = false\n" + needs
    line = text.count("\n") + 1
    text += f"{key} = {value}\nallow_empty = true\n"
    with pytest.raises(ConfigError) as err:
        parse_config(text)
    message = str(err.value)
    assert message.startswith(f"experiment [x] (line {line}): "), message
    assert rule in message and key in message.split(": ", 1)[1], message


@pytest.mark.parametrize(
    "first, second", [("bit_depth", "num_devices"), ("num_devices", "bit_depth")]
)
def test_a_rule_on_two_keys_reports_the_later_line(first, second):
    # the int64 decoders need num_devices * 2^bit_depth <= 2^63: the message
    # names both
    values = {"bit_depth": 48, "num_devices": 2**15 + 1}
    text = (
        f"[x]\nseed = 3\n{first} = {values[first]}\ntrials = 9\n"
        f"{second} = {values[second]}\nreallocate = true\n"
    )
    with pytest.raises(ConfigError) as err:
        parse_config(text)
    message = str(err.value)
    assert message.startswith("experiment [x] (line 5): "), message
    assert "num_devices * 2^bit_depth must not exceed 2^63" in message


def test_a_message_naming_no_key_reports_the_section_line(monkeypatch):
    validate = SimConfig.validate

    def strict(self):
        validate(self)
        if self.trials == 7:
            raise ValueError("seven is unlucky")

    monkeypatch.setattr(SimConfig, "validate", strict)
    with pytest.raises(ConfigError, match=r"^experiment \[y\] \(line 3\): seven is unlucky$"):
        parse_config("[x]\n\n[y]\nseed = 2\ntrials = 7\n")


def test_parse_rejects_empty_snr_grid():
    with pytest.raises(ConfigError) as err:
        parse_config("[x]\nsnr_db_grid =\n")
    assert "line 2" in str(err.value)


def test_a_global_section_is_an_ordinary_experiment():
    # the flags set the output options: a section named global holds
    # SimConfig fields like any other
    with pytest.raises(ConfigError) as err:
        parse_config("[global]\nout = a\n")
    assert str(err.value).startswith("line 2: unknown key 'out' in [global] (valid keys: ")
    assert parse_config("[global]\ntrials = 5\n") == {"global": SimConfig(trials=5)}


def test_parse_rejects_structural_mistakes():
    with pytest.raises(ConfigError, match="line 1"):
        parse_config("trials = 10\n")
    with pytest.raises(ConfigError, match="duplicate section"):
        parse_config("[x]\n[x]\n")
    with pytest.raises(ConfigError, match="duplicate key"):
        parse_config("[x]\ntrials = 1\ntrials = 2\n")
    with pytest.raises(ConfigError, match="line 2"):
        parse_config("[x]\nwhat is this\n")
    with pytest.raises(ConfigError, match="expected an integer"):
        parse_config("[x]\ntrials = soon\n")


def test_binary_ml_config_defaults_to_ml_detection():
    assert parse_config("[x]\nscheme = binary_ml\n")["x"].detector == "ml"
    with pytest.raises(ConfigError):
        parse_config("[x]\nscheme = binary_ml\ndetector = lmmse\n")


def test_serialize_parse_round_trip():
    experiments = {
        "a": SimConfig(trials=123, snr_db_grid=(0.0, 5.0)),
        "b": SimConfig(
            scheme="analog",
            analog_threshold=0.02,
            bit_depth=5,
            trials=50,
        ),
    }
    text = serialize_config(experiments)
    assert parse_config(text) == experiments


def test_round_trip_covers_optional_fields():
    experiments = {"g": SimConfig(source="gaussian", source_std=0.25)}
    again = parse_config(serialize_config(experiments))
    assert again["g"].source_std == 0.25
    assert again == experiments


def test_sweep_command_reports_missing_config(capsys):
    rc = main(["sweep", "/no/such/file.ini"])
    assert rc == 1
    assert "not found" in capsys.readouterr().err


def test_sweep_command_reports_config_errors(tmp_path, capsys):
    bad = tmp_path / "bad.ini"
    bad.write_text("[x]\nvarpi = 0.5\n")
    rc = main(["sweep", str(bad)])
    assert rc == 1
    err = capsys.readouterr().err
    assert "line 2" in err


@pytest.mark.parametrize("varpi", ["inf", "1e300"])
def test_sweep_command_rejects_budgets_beyond_float_range(tmp_path, capsys, varpi):
    # an infinite varpi gives NaN budgets and 1e300^8 overflows: both stop
    # before any sweep, with one error line and exit status 1
    cfg = tmp_path / "exp.ini"
    cfg.write_text(f"[g]\npower_mode = geometric\nvarpi = {varpi}\ntrials = 100\n")
    out = tmp_path / "out"
    assert main(["sweep", str(cfg), "--out", str(out)]) == 1
    captured = capsys.readouterr()
    assert captured.err.splitlines() == [
        f"error: experiment [g] (line 3): varpi = {float(varpi)} over 8 "
        "planes must give finite, positive power budgets"
    ]
    assert captured.out == ""
    assert not out.exists()


def test_sweep_command_writes_csv_per_experiment(tmp_path, capsys):
    cfg = tmp_path / "exp.ini"
    cfg.write_text(
        "[first]\ntrials = 300\nsnr_db_grid = 0\n"
        "[second]\ntrials = 300\nsnr_db_grid = 10\n"
    )
    rc = main(["sweep", str(cfg), "--out", str(tmp_path)])
    assert rc == 0
    out = capsys.readouterr().out
    assert (tmp_path / "first.csv").exists()
    assert (tmp_path / "second.csv").exists()
    assert "wrote" in out
    header = (tmp_path / "first.csv").read_text().splitlines()[1]
    assert header == "scheme,snr_db,nmse,stderr,mean_active,mean_p,trials,seed"


@pytest.mark.parametrize("workload", WORKLOADS, ids=[w.stem for w in WORKLOADS])
def test_sweep_runs_each_benchmark_workload(workload, tmp_path):
    # the benchmark's configs, read in place, at 64 trials per grid point
    proc = subprocess.run(
        [sys.executable, "-m", "aircomp", "sweep", str(workload), "--trials", "64",
         "--out", str(tmp_path)],
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    experiments = parse_config(workload.read_text(encoding="utf-8"))
    assert sorted(p.stem for p in tmp_path.glob("*.csv")) == sorted(experiments)
    for name, config in experiments.items():
        lines = (tmp_path / f"{name}.csv").read_text().splitlines()
        rows = [dict(zip(lines[1].split(","), line.split(","))) for line in lines[2:]]
        assert [float(row["snr_db"]) for row in rows] == list(config.snr_db_grid), name
        for row in rows:
            assert math.isfinite(float(row["nmse"])), (name, row)
            assert math.isfinite(float(row["stderr"])), (name, row)
            assert row["trials"] == "64", (name, row)


def test_sweep_command_is_reproducible(tmp_path):
    cfg = tmp_path / "exp.ini"
    cfg.write_text("[only]\ntrials = 400\nsnr_db_grid = 0 5\nseed = 2\n")
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    assert main(["sweep", str(cfg), "--out", str(a)]) == 0
    assert main(["sweep", str(cfg), "--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_sweep_flag_overrides_trials_and_seed(tmp_path):
    cfg = tmp_path / "exp.ini"
    cfg.write_text("[only]\ntrials = 400\nsnr_db_grid = 0\nseed = 2\n")
    out = tmp_path / "r.csv"
    assert main(["sweep", str(cfg), "--out", str(out), "--trials", "100", "--seed", "7"]) == 0
    meta = json.loads(out.read_text().splitlines()[0][2:])
    assert meta["trials"] == 100
    assert meta["seed"] == 7


def test_the_environment_sets_nothing(tmp_path, monkeypatch):
    # the config file and the flags are a run's only inputs
    cfg = tmp_path / "exp.ini"
    cfg.write_text("[only]\ntrials = 400\nsnr_db_grid = 0\n")
    plain, with_env, env_out = tmp_path / "plain.csv", tmp_path / "env.csv", tmp_path / "env_out"
    assert main(["sweep", str(cfg), "--out", str(plain)]) == 0
    env_out.mkdir()
    for key, value in (("SEED", "11"), ("TRIALS", "abc"), ("OUT", env_out), ("QUICK", "junk")):
        monkeypatch.setenv(f"AIRCOMP_{key}", str(value))
    assert main(["sweep", str(cfg), "--out", str(with_env)]) == 0
    assert with_env.read_bytes() == plain.read_bytes()
    assert list(env_out.iterdir()) == []
    seen = []
    monkeypatch.setattr(cli, "ORACLES", (("probe", lambda **kw: seen.append(kw) or (True, "")),))
    monkeypatch.setenv("AIRCOMP_SEED", "x1")
    assert main(["verify", "--quick"]) == 0
    assert seen == [{"seed": 1, "quick": True}]


def test_quick_flag_caps_trials(tmp_path):
    cfg = tmp_path / "exp.ini"
    cfg.write_text("[only]\ntrials = 100000\nsnr_db_grid = 0\n")
    out = tmp_path / "q.csv"
    assert main(["sweep", str(cfg), "--out", str(out), "--quick"]) == 0
    meta = json.loads(out.read_text().splitlines()[0][2:])
    assert meta["trials"] == 2000


def test_verify_quick_passes(capsys):
    rc = main(["verify", "--quick"])
    out = capsys.readouterr().out
    assert rc == 0
    assert out.count("PASS") == 3
    assert "FAIL" not in out


def test_the_lmmse_oracle_fails_a_detector_whose_offset_is_wrong(monkeypatch):
    # mu + 0.5 raises the MSE by exactly 1/4, so with the closed form raised
    # to match, only the perturbed detector at mu - 0.5 can tell
    coefficients, closed = cli.lmmse_coefficients, cli.mse_closed_form

    def shifted(*args):
        lam, mu = coefficients(*args)
        return lam, mu + 0.5

    monkeypatch.setattr(cli, "lmmse_coefficients", shifted)
    monkeypatch.setattr(cli, "mse_closed_form", lambda *args: closed(*args) + 0.25)
    ok, detail = cli.oracle_lmmse(quick=True)
    assert not ok and "perturbed-detector wins: 0" not in detail


def test_demo_prints_trace(capsys):
    rc = main(["demo", "--seed", "1", "--k", "3", "--b", "4"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "3 devices" in out
    assert "codewords" in out
    assert "decoded sum" in out
    # one row per subcarrier
    assert out.count("\n") > 8


def test_demo_analog_scheme(capsys):
    rc = main(["demo", "--scheme", "analog", "--k", "4", "--b", "4"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "estimate" in out


def test_demo_binary_ml_prints_offset_binary_codewords(capsys):
    b = 6
    rc = main(["demo", "--scheme", "binary_ml", "--k", "5", "--b", str(b), "--seed", "5"])
    out = capsys.readouterr().out
    assert rc == 0
    lines = out.splitlines()
    (lattice_line,) = [x for x in lines if x.startswith("lattice integers:")]
    (words_line,) = [x for x in lines if x.startswith("codewords (MSB first):")]
    lattice = [int(x) for x in lattice_line.split(":")[1].strip(" []").split()]
    words = words_line.split(":")[1].split()
    assert len(lattice) == len(words) == 5
    for v, word in zip(lattice, words):
        # offset binary is the two's-complement word with its MSB flipped
        twos = format(v & (2**b - 1), f"0{b}b")
        assert word == str(1 - int(twos[0])) + twos[1:], v
    # the r_true column holds each subcarrier's bit sum, LSB first
    rows = lines[lines.index(words_line) + 2 :][:b]
    bit_sums = [int(row.split()[4]) for row in rows]
    assert bit_sums == [sum(int(w[-1 - l]) for w in words) for l in range(b)]


# Every case names its own id, so inserting or deleting one renames no
# other.  The first four keep the ids they were first collected under, when
# the cases also took environment variables; later ones name the fault.  A
# case's files (None: a directory) are made in the working directory first.
@pytest.mark.parametrize(
    "argv, expected, files",
    [
        pytest.param(
            ["sweep", "--trials", "0"], "trials must be >= 1", {},
            id="argv0-env0-trials must be >= 1",
        ),
        pytest.param(
            ["verify", "--quick", "--seed", "-1"], "seed must be >= 0", {},
            id="argv3-env3-seed must be >= 0",
        ),
        pytest.param(
            ["demo", "--k", "0"], "num_devices must be >= 1", {},
            id="argv4-env4-num_devices must be >= 1",
        ),
        pytest.param(
            ["demo", "--snr-db", "nan"], "snr_db_grid", {},
            id="argv5-env5-snr_db_grid",
        ),
        # each of these three once ended in a traceback, the last after the
        # first sweep had run
        pytest.param(
            ["sweep", "configs"], "cannot read config file configs: Is a directory",
            {"configs": None}, id="config path is a directory",
        ),
        pytest.param(
            ["sweep", "latin1.ini"], "config file latin1.ini is not UTF-8 text (byte 6)",
            {"latin1.ini": "[x]\n# \xe9t\xe9\n".encode("latin-1")}, id="config not UTF-8",
        ),
        pytest.param(
            ["sweep", "--trials", "10", "--out", "afile/sub"],
            "cannot create output directory afile/sub: Not a directory",
            {"afile": b""}, id="out directory cannot be created",
        ),
        pytest.param(
            ["sweep", "--trials", "10", "--out", "taken.csv"],
            "output file taken.csv is a directory",
            {"taken.csv": None}, id="out file is a directory",
        ),
        # a section name that cannot be a file name: too long for the file
        # system, or holding a NUL byte, which no open() accepts
        pytest.param(
            ["sweep", "long.ini", "--trials", "10"],
            f"cannot write output file {'x' * 300}.csv: File name too long",
            {"long.ini": b"[" + b"x" * 300 + b"]\n"}, id="section name too long",
        ),
        pytest.param(
            ["sweep", "nul.ini", "--trials", "10"], "output file 'a\\x00b.csv' holds a NUL byte",
            {"nul.ini": b"[a\0b]\n"}, id="section name with a NUL byte",
        ),
        # a section name with a path separator: once written outside --out,
        # or, as one of two with --out naming a file, a traceback
        pytest.param(
            ["sweep", "esc.ini", "--trials", "10", "--out", "out"],
            "section name [../esc] holds a path separator",
            {"esc.ini": b"[../esc]\n"}, id="section name leaving the out directory",
        ),
        pytest.param(
            ["sweep", "two.ini", "--trials", "10", "--out", "r.csv"],
            "section name [a/b] holds a path separator",
            {"two.ini": b"[a/b]\n[c]\n"}, id="section name with a slash, out a file",
        ),
        pytest.param(
            ["sweep", "old.ini"], "line 2: unknown key 'clamp' in [x]",
            {"old.ini": b"[x]\nclamp = true\n"}, id="removed key clamp",
        ),
        pytest.param(
            ["sweep", "old.ini"], "line 2: unknown key 'p_max' in [x]",
            {"old.ini": b"[x]\np_max = 1.0\n"}, id="removed key p_max",
        ),
        pytest.param(
            ["sweep", "old.ini"], "line 3: unknown key 's_max' in [x]",
            {"old.ini": b"[x]\ntrials = 10\ns_max = 2.0\n"}, id="removed key s_max",
        ),
        pytest.param(
            ["sweep", "old.ini"], "line 3: unknown key 'num_subcarriers' in [x]",
            {"old.ini": b"[x]\nbit_depth = 6\nnum_subcarriers = 6\n"},
            id="removed key num_subcarriers",
        ),
        pytest.param(
            ["sweep", "old.ini"], "line 2: unknown key 'round_estimates' in [x]",
            {"old.ini": b"[x]\nround_estimates = false\n"}, id="removed key round_estimates",
        ),
        pytest.param(
            ["sweep", "old.ini"], "line 2: unknown key 'out' in [global]",
            {"old.ini": b"[global]\nout = a\n"}, id="global out is an unknown key",
        ),
        pytest.param(
            ["sweep", "none.ini"], "line 3: expected a number, got 'none'",
            {"none.ini": b"[x]\nsource = gaussian\nsource_std = none\n"}, id="source_std none",
        ),
        # the bit depth is also the subcarrier count, which must not take the blame
        pytest.param(["demo", "--b", "0"], "error: bit_depth must be >= 1", {}, id="demo b 0"),
        pytest.param(
            ["demo", "--b", "49"], "error: bit_depth must be >= 1 and <= 48, got 49", {},
            id="demo b 49",
        ),
    ],
)
def test_bad_input_is_one_error_line_and_status_1(
    argv, expected, files, tmp_path, monkeypatch, capsys
):
    monkeypatch.chdir(tmp_path)
    for name, data in files.items():
        if data is None:
            (tmp_path / name).mkdir()
        else:
            (tmp_path / name).write_bytes(data)
    assert main(argv) == 1
    captured = capsys.readouterr()
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ")
    assert expected in lines[0]
    # nothing was run or written
    assert captured.out == ""
    assert sorted(p.name for p in tmp_path.rglob("*")) == sorted(files)


@pytest.mark.parametrize(
    "keys, expected",
    [
        ("source = gaussian\nsource_std = inf\n", "(line 3): source_std must be > 0 and finite"),
        ("source = gaussian\nsource_std = 1e200\n", "(line 3): source_std = 1e+200 must lie in"),
    ],
)
def test_a_source_the_quantizer_cannot_take_is_one_error_line(keys, expected, tmp_path, capsys):
    # each once ended a sweep in a traceback from the quantizer or in a NaN row
    cfg = tmp_path / "exp.ini"
    cfg.write_text("[x]\n" + keys + "trials = 100\nsnr_db_grid = 0\n")
    out = tmp_path / "out"
    assert main(["sweep", str(cfg), "--out", str(out)]) == 1
    captured = capsys.readouterr()
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: experiment [x] ")
    assert expected in lines[0]
    assert captured.out == "" and not out.exists()


@pytest.mark.parametrize(
    "argv", [["verify", "--quick"], ["sweep", "--quick", "--out"]], ids=["verify", "sweep"]
)
def test_a_reader_that_closes_stdout_early_gets_status_1_and_no_traceback(
    argv, tmp_path, capsys
):
    # as `aircomp ... | head -1` does; unbuffered, so each line is its own write
    env = dict(os.environ, PYTHONUNBUFFERED="1")
    cfg = tmp_path / "two.ini"
    if argv[0] == "sweep":
        cfg.write_text("[a]\nsnr_db_grid = 0 10\n[b]\ndetector = ml\nsnr_db_grid = 5\n")
        argv = [*argv, str(tmp_path / "out"), str(cfg)]
    with subprocess.Popen(  # on leaving, closes both pipes and waits
        [sys.executable, "-m", "aircomp", *argv],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=env,
    ) as proc:
        assert proc.stdout.readline()
        proc.stdout.close()
        stderr = proc.stderr.read().decode()
        assert proc.wait(timeout=300) == 1
    assert "Traceback" not in stderr and "Error" not in stderr, stderr
    if cfg.exists():
        # the sweeps go on without a reader: both CSVs are those of a full run
        assert stderr == ""
        assert main(["sweep", "--quick", "--out", str(tmp_path / "full"), str(cfg)]) == 0
        assert "wrote" in capsys.readouterr().out
        for name in ("a.csv", "b.csv"):
            assert (tmp_path / "out" / name).read_bytes() == (tmp_path / "full" / name).read_bytes()


# per field of UNREAD_FIELDS: the other fields that a value away from its
# default needs, and that value
_UNREAD_VALUES = {
    "varpi": ({"power_mode": "geometric"}, 2.0),
    "power_mode": ({}, "geometric"),
    "detector": ({}, "ml"),
    "allow_empty": ({}, True),
    "reallocate": ({}, True),
    "analog_threshold": ({}, 0.3),
    "source_std": ({}, 0.5),
}
_UNREAD = [(owner, key) for owner, keys in UNREAD_FIELDS.items() for key in keys]


@pytest.mark.parametrize("owner, key", _UNREAD, ids=[f"{o}-{k}" for o, k in _UNREAD])
def test_a_field_its_scheme_or_source_never_reads_is_one_error(owner, key, tmp_path, capsys):
    # a run would ignore such a field, yet record it in the CSV's metadata line
    needs, value = _UNREAD_VALUES[key]
    fields = {"scheme" if owner in SCHEMES else "source": owner, "trials": 100}
    if owner == "binary_ml":
        fields["detector"] = "ml"
    fields |= {**needs, key: value, "seed": 2}
    scheme, source = fields.get("scheme", "proposed"), fields.get("source", "uniform")
    message = f"{scheme} on {source} sources never reads {key}"
    with pytest.raises(ValueError, match=f"^{message}$"):
        SimConfig(**fields)
    cfg, out = tmp_path / "exp.ini", tmp_path / "out"
    cfg.write_text("[x]\n" + "".join(f"{k} = {str(v).lower()}\n" for k, v in fields.items()))
    assert main(["sweep", str(cfg), "--out", str(out)]) == 1
    captured = capsys.readouterr()
    line = 2 + list(fields).index(key)
    assert captured.err.splitlines() == [f"error: experiment [x] (line {line}): {message}"]
    assert captured.out == "" and not out.exists()


def test_verbose_sweep_prints_each_section_time_before_the_rows_and_writes_the_same_csv(
    tmp_path, capsys
):
    cfg = tmp_path / "exp.ini"
    cfg.write_text(
        "[a]\ntrials = 300\nsnr_db_grid = 10 -5 0\n"
        "[b]\ndetector = ml\ntrials = 300\nsnr_db_grid = 20 5\n"
    )
    assert main(["sweep", str(cfg), "--out", str(tmp_path / "quiet")]) == 0
    quiet = capsys.readouterr().out.splitlines()
    assert main(["sweep", str(cfg), "--out", str(tmp_path / "loud"), "-v"]) == 0
    loud = capsys.readouterr().out.splitlines()
    timings = [line for line in loud if "done in" in line]
    # per section: its header, one timing line with its point count, then the
    # rows and the path that the quiet run prints
    for name, points in (("a", 3), ("b", 2)):
        start = loud.index(next(line for line in loud if line.startswith(f"[{name}]")))
        assert loud[start + 1].startswith(f"    grid of {points} done in "), loud[start + 1]
    assert len(timings) == 2
    assert [line for line in loud if line not in timings] == [
        line.replace("quiet", "loud") for line in quiet
    ]
    for name in ("a", "b"):
        csv = (tmp_path / "loud" / f"{name}.csv").read_bytes()
        assert csv == (tmp_path / "quiet" / f"{name}.csv").read_bytes()


@pytest.mark.parametrize(
    "value, expected",
    [("off", False), ("no", False), ("0", False), ("on", True), ("YES", True)],
)
def test_a_section_bool_takes_every_spelling(value, expected):
    assert parse_config(f"[x]\nreallocate = {value}\n")["x"].reallocate is expected
    with pytest.raises(ConfigError, match=r"^line 2: expected true or false, got 'maybe'$"):
        parse_config("[x]\nreallocate = maybe\n")


def test_verify_honours_seed_zero(monkeypatch):
    seeds = []

    def probe(seed, quick):
        seeds.append(seed)
        return True, "probe"

    monkeypatch.setattr(cli, "ORACLES", (("probe", probe),))
    assert main(["verify", "--seed", "0"]) == 0
    assert main(["verify"]) == 0
    assert seeds == [0, 1]


def test_bad_override_in_a_later_section_fails_before_any_sweep(tmp_path, monkeypatch, capsys):
    # no override is invalid for one section only under today's rules, so a
    # stricter rule for analog configs stands in for one
    validate = SimConfig.validate

    def strict(self):
        validate(self)
        if self.scheme == "analog" and self.seed == 7:
            raise ValueError("seed 7 is not allowed for analog")

    monkeypatch.setattr(SimConfig, "validate", strict)
    swept = []
    monkeypatch.setattr(cli, "sweep", lambda *a, **kw: swept.append(a))
    cfg = tmp_path / "exp.ini"
    cfg.write_text(
        "[coded]\ntrials = 100\nsnr_db_grid = 0\n"
        "[baseline]\nscheme = analog\ntrials = 100\nsnr_db_grid = 0\n"
    )
    out = tmp_path / "out"
    assert main(["sweep", str(cfg), "--out", str(out), "--seed", "7"]) == 1
    captured = capsys.readouterr()
    assert captured.err.splitlines() == [
        "error: [baseline] seed 7 is not allowed for analog"
    ]
    assert captured.out == ""
    assert swept == []
    assert not out.exists()
