import errno
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from ghzverify import analytics, cli
from ghzverify.cli import main

import oracles


def _run(*argv):
    return main(list(argv))


def test_importing_the_cli_loads_no_scipy():
    # in a fresh interpreter: this one has loaded scipy for other tests
    src = str(Path(cli.__file__).resolve().parent.parent)
    code = "import sys, ghzverify.cli; print([m for m in sys.modules if m.split('.')[0] == 'scipy'])"
    proc = subprocess.run([sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": src},
                          capture_output=True, text=True, check=True)
    assert proc.stdout.strip() == "[]"


def test_honest_runs_on_the_pure_families_check_the_exact_value_without_scipy(tmp_path):
    # in a fresh interpreter: this one has loaded scipy for other tests
    src = str(Path(cli.__file__).resolve().parent.parent)
    calls = [
        [command, "--parties", "5", "--rounds", "2000", "--seed", "4", "--source", source,
         "--protocol", kind, "--out", str(tmp_path / f"{command}-{i}-{kind}")]
        for command in ("verify", "session")
        for i, source in enumerate(("biseparable-ghz-plus", "rotated-bell-plus:theta=0.785"))
        for kind in ("theta", "xy")
    ]
    code = (
        "import sys\nfrom ghzverify.cli import main\n"
        f"for argv in {calls!r}:\n    main(argv)\n"
        "print([m for m in sys.modules if m.split('.')[0] == 'scipy'])"
    )
    proc = subprocess.run([sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": src},
                          capture_output=True, text=True, check=True)
    assert proc.stdout.strip() == "[]"
    lines = proc.stderr.splitlines()
    assert len(lines) == len(calls)
    for line in lines:
        assert " exact=" in line
        assert abs(float(line.rsplit(" z=", 1)[1])) < 4


def test_verify_ideal_state_exits_zero(tmp_path):
    out = tmp_path / "verdict.json"
    code = _run(
        "verify", "--rounds", "800", "--seed", "5", "--out", str(out)
    )
    assert code == 0
    doc = json.loads(out.read_text())
    assert doc["verdict"]["decision"] == "GME-VERIFIED"
    assert doc["stats"]["estimate"] == 1.0
    assert doc["bounds"]["honest_fidelity"] == 1.0


def test_verify_noisy_state_is_inconclusive(tmp_path):
    out = tmp_path / "verdict.json"
    code = _run(
        "verify",
        "--source", "depolarized-ghz:v=0.5",
        "--rounds", "600",
        "--seed", "5",
        "--out", str(out),
    )
    assert code == 2
    assert json.loads(out.read_text())["verdict"]["decision"] == "INCONCLUSIVE"


@pytest.mark.parametrize("flags", [
    ("--strategy", "theta-rotated-bell:lam=0.7"),
    ("--strategy", "theta-rotated-bell:lam=0.3"),
    ("--strategy", "projective-cheat:lam=0.2"),
    ("--protocol", "xy", "--strategy", "xy-perfect-loss50"),
    ("--protocol", "xy", "--strategy", "xy-mixed:lam=0.2"),
])
def test_declared_loss_sets_the_verdict_loss_rate(flags, tmp_path):
    # the coalition's losses abort rounds; the threshold is taken at the
    # aborted share, so a cheat that reaches the zero-loss threshold only by
    # declaring loss is not verified
    out = tmp_path / "verdict.json"
    assert _run("verify", *flags, "--out", str(out)) == 2
    doc = json.loads(out.read_text())
    aborted = 1.0 - doc["stats"]["valid_rounds"] / 6000
    if "xy" in flags:
        aborted = min(aborted, 0.5)
    kind = "xy" if "xy" in flags else "theta"
    assert doc["verdict"]["lambda"] == aborted > 0.15
    assert doc["verdict"]["threshold"] == analytics.gme_threshold(
        kind, "dishonest-allowed", aborted)
    assert doc["verdict"]["decision"] == "INCONCLUSIVE"
    assert doc["stats"]["estimate"] > analytics.gme_threshold(kind, "dishonest-allowed", 0.0)


def test_honest_loss_sets_the_verdict_loss_rate_unless_more_is_assumed(tmp_path):
    out = tmp_path / "verdict.json"
    source = ("--source", "dephased-ghz:p=0.2", "--honest-loss", "0.05")
    assert _run("verify", *source, "--out", str(out)) == 0
    doc = json.loads(out.read_text())
    aborted = 1.0 - doc["stats"]["valid_rounds"] / 6000
    assert doc["verdict"]["lambda"] == aborted > 0.0
    assert _run("verify", *source, "--assumed-loss", "0.3", "--out", str(out)) == 2
    assert json.loads(out.read_text())["verdict"]["lambda"] == 0.3
    assert _run("verify", "--source", "dephased-ghz:p=0.2", "--assumed-loss", "0.05",
                "--out", str(out)) == 0
    assert json.loads(out.read_text())["verdict"]["lambda"] == 0.05


@pytest.mark.parametrize("flags,expected", [
    (("--assumed-loss", "-0.1"), "--assumed-loss must lie in [0, 1), got -0.1"),
    (("--assumed-loss", "nan"), "--assumed-loss must lie in [0, 1), got nan"),
    (("--protocol", "xy", "--assumed-loss", "0.6"), "--assumed-loss must lie in [0, 1/2], got 0.6"),
    (("--trust", "all-honest", "--assumed-loss", "1"), "--assumed-loss must lie in [0, 1), got 1.0"),
], ids=["negative", "nan", "xy-above-half", "all-honest-one"])
def test_assumed_loss_out_of_range_is_named(flags, expected, capsys):
    assert _run("verify", "--honest-loss", "0.1", *flags) == 1
    assert capsys.readouterr().err == f"error: {expected}\n"


def test_verify_bad_source_key_exits_one(tmp_path):
    assert _run("verify", "--source", "nonsense-model") == 1


def test_verify_missing_source_parameter_is_named(capsys):
    for key, expected in (
        ("dephased-ghz", "source 'dephased-ghz' needs parameter p; "
         "key syntax: dephased-ghz:p=<0..1>"),
        ("calibrated:fidelity=0.8", "source 'calibrated' needs parameter family; "
         "key syntax: calibrated:fidelity=<0..1>,family=dephased|depolarized"),
    ):
        assert _run("verify", "--source", key, "--rounds", "10") == 1
        assert capsys.readouterr().err == f"error: {expected}\n"


def test_curves_csv_schema_and_domains(tmp_path):
    out = tmp_path / "curves.csv"
    code = _run(
        "curves",
        "--lambda-grid", "0,0.5,0.8",
        "--rounds", "500",
        "--seed", "9",
        "--out", str(out),
    )
    assert code == 0
    lines = out.read_text().strip().split("\n")
    header = lines[0].split(",")
    assert header == [
        "lambda",
        "theta_bound",
        "xy_bound",
        "simulated_theta_cheat",
        "simulated_theta_cheat_stderr",
        "simulated_xy_cheat",
        "simulated_xy_cheat_stderr",
    ]
    rows = [line.split(",") for line in lines[1:]]
    assert len(rows) == 3
    assert float(rows[0][1]) == pytest.approx(0.5 + 1 / np.pi, abs=1e-12)
    assert float(rows[0][2]) == pytest.approx(np.cos(np.pi / 8) ** 2, abs=1e-12)
    assert float(rows[1][2]) == pytest.approx(1.0, abs=1e-12)
    # xy columns out of domain above 50% loss
    assert rows[2][2] == "" and rows[2][5] == "" and rows[2][6] == ""


def test_curves_are_byte_deterministic(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    for path in (a, b):
        assert (
            _run(
                "curves",
                "--lambda-grid", "0,0.25",
                "--rounds", "400",
                "--seed", "33",
                "--out", str(path),
            )
            == 0
        )
    assert a.read_bytes() == b.read_bytes()


def test_profile_matches_cosine_law(tmp_path):
    out = tmp_path / "profile.csv"
    code = _run(
        "dishonest-angle-profile",
        "--angle-points", "8",
        "--rounds", "400",
        "--seed", "3",
        "--out", str(out),
    )
    assert code == 0
    lines = out.read_text().strip().split("\n")[1:]
    assert len(lines) == 8
    for line in lines:
        theta, optimal, simulated, stderr = (float(x) for x in line.split(","))
        assert optimal == pytest.approx(0.5 + 0.5 * abs(np.cos(theta)), abs=1e-12)
        assert abs(simulated - optimal) < max(4 * stderr, 1e-9)


@pytest.mark.parametrize("parties", [2, 3, 4])
@pytest.mark.parametrize("theta_prime", [0.0, 0.7])
def test_profile_matches_hand_drawn_oracle(parties, theta_prime, tmp_path):
    out = tmp_path / "profile.csv"
    code = _run(
        "dishonest-angle-profile",
        "--parties", str(parties),
        "--angle-points", "5",
        "--rounds", "300",
        "--seed", "11",
        "--theta-prime", repr(theta_prime),
        "--out", str(out),
    )
    assert code == 0
    lines = ["theta,optimal_pass,simulated_pass,simulated_stderr"]
    for theta in np.linspace(0.0, np.pi, 5, endpoint=False):
        optimal = 0.5 + 0.5 * abs(np.cos(theta_prime - theta))
        est, se = oracles.profile_point(float(theta), theta_prime, parties, 300, 11)
        lines.append(",".join(f"{x:.17g}" for x in (theta, optimal, est, se)))
    assert out.read_text() == "\n".join(lines) + "\n"


def test_profile_grid_average_near_theta_bound(tmp_path):
    out = tmp_path / "profile.csv"
    assert (
        _run(
            "dishonest-angle-profile",
            "--angle-points", "512",
            "--rounds", "1",
            "--seed", "3",
            "--out", str(out),
        )
        == 0
    )
    rows = [line.split(",") for line in out.read_text().strip().split("\n")[1:]]
    average = np.mean([float(r[1]) for r in rows])
    assert average == pytest.approx(0.5 + 1 / np.pi, abs=1e-3)


def test_session_writes_transcript_files(tmp_path):
    prefix = tmp_path / "run"
    code = _run(
        "session",
        "--protocol", "xy",
        "--strategy", "xy-naive-loss",
        "--source", "ideal-ghz",
        "--rounds", "1500",
        "--seed", "21",
        "--out", str(prefix),
    )
    assert code == 0
    summary = json.loads((tmp_path / "run.summary.json").read_text())
    assert summary["audits"]["2"]["status"] == "flagged"
    messages = (tmp_path / "run.messages.jsonl").read_text().strip().split("\n")
    assert json.loads(messages[0])["type"] == "angle"
    records = (tmp_path / "run.records.jsonl").read_text().strip().split("\n")
    assert len(records) == 1500


def test_config_file_defaults_with_flag_override(tmp_path):
    conf = tmp_path / "run.conf"
    conf.write_text("rounds = 300\nprotocol = xy\nseed = 8\n")
    out = tmp_path / "v.json"
    code = _run("verify", "--config", str(conf), "--seed", "9", "--out", str(out))
    assert code == 0
    doc = json.loads(out.read_text())
    assert doc["config"]["rounds"] == 300
    assert doc["config"]["protocol"] == "xy"
    assert doc["config"]["seed"] == 9  # flag wins over the file


def test_json_format_for_curves(tmp_path):
    out = tmp_path / "curves.json"
    code = _run(
        "curves",
        "--lambda-grid", "0",
        "--rounds", "200",
        "--seed", "2",
        "--format", "json",
        "--out", str(out),
    )
    assert code == 0
    rows = json.loads(out.read_text())
    assert rows[0]["lambda"] == 0.0
    assert "simulated_theta_cheat" in rows[0]


def test_bad_strategy_key_exits_one():
    assert _run("verify", "--strategy", "xy-mixed:lam=0.9") == 1


def test_bad_strategy_parameters_are_named(capsys):
    for key, expected in (
        ("product-guesser:lam=0.3", "strategy 'product-guesser' takes no parameter lam; "
         "key syntax: product-guesser[:theta-prime=<radians>]"),
        ("xy-perfect-loss50:theta-prime=1", "strategy 'xy-perfect-loss50' takes no parameter "
         "theta-prime; key syntax: xy-perfect-loss50"),
        ("xy-mixed:lam=abc", "strategy 'xy-mixed' parameter lam must be a finite number, "
         "got 'abc'; key syntax: xy-mixed:lam=<0..1/2>"),
        ("theta-rotated-bell:lamda=0.2", "strategy 'theta-rotated-bell' takes no parameter "
         "lamda; key syntax: theta-rotated-bell:lam=<0..1>[,theta-prime=<radians>]"),
        ("xy-mixed", "strategy 'xy-mixed' needs parameter lam; key syntax: xy-mixed:lam=<0..1/2>"),
    ):
        assert _run("verify", "--strategy", key, "--rounds", "10") == 1
        assert capsys.readouterr().err == f"error: bad strategy {key!r}: {expected}\n"


def test_bad_source_parameters_are_named(capsys):
    for key, expected in (
        ("ideal-ghz:p=0.3", "source 'ideal-ghz' takes no parameter p; key syntax: ideal-ghz"),
        ("depolarized-ghz:v=0.9,p=0.1", "source 'depolarized-ghz' takes no parameter p; "
         "key syntax: depolarized-ghz:v=<0..1>"),
        ("dephased-ghz:p=abc", "source 'dephased-ghz' parameter p must be a finite number, "
         "got 'abc'; key syntax: dephased-ghz:p=<0..1>"),
    ):
        assert _run("verify", "--source", key, "--rounds", "10") == 1
        assert capsys.readouterr().err == f"error: {expected}\n"


@pytest.mark.parametrize("command", ["verify", "session"])
def test_an_all_lost_session_is_an_error_and_writes_nothing(command, tmp_path, capsys):
    out = tmp_path / "out"
    argv = (command, "--rounds", "2", "--honest-loss", "0.9", "--seed", "1", "--out", out)
    assert _run(*map(str, argv)) == 1
    assert capsys.readouterr().err == "error: pass probability is undefined: every round had loss\n"
    assert list(tmp_path.iterdir()) == []


def test_bad_honest_loss_is_named(capsys):
    for value, shown in (("-0.5", "-0.5"), ("nan", "nan"), ("2", "2.0")):
        assert _run("verify", "--honest-loss", value, "--rounds", "10") == 1
        assert capsys.readouterr().err == f"error: --honest-loss must lie in [0, 1), got {shown}\n"


def test_bad_config_file_entries_are_named(tmp_path, capsys):
    conf = tmp_path / "run.conf"
    for text, expected in (
        ("rouns = 50\n", "key 'rouns' is not an option of any subcommand"),
        ("rounds = abc\n", "key 'rounds': invalid int value 'abc'"),
        ("lambda-max = x\n", "key 'lambda-max': invalid float value 'x'"),
        ("protocol = foo\n", "key 'protocol': invalid choice 'foo' (choose from theta, xy)"),
        ("angle-points = 4\nformat = xml\n",
         "key 'format': invalid choice 'xml' (choose from json, csv)"),
        ("seed = 3\nrounds  # the count\n",
         "malformed line 'rounds  # the count', expected key = value"),
    ):
        conf.write_text(text)
        assert _run("verify", "--config", str(conf), "--rounds", "10") == 1
        assert capsys.readouterr().err == f"error: config file {conf}: {expected}\n"


@pytest.mark.parametrize(
    "argv,flag",
    [
        (("curves", "--protocol", "xy"), "--protocol xy"),
        (("verify", "--format", "csv"), "--format csv"),
    ],
)
def test_flags_a_subcommand_does_not_read_are_rejected(argv, flag, capsys):
    assert _run(*argv, "--rounds", "10") == 1
    assert capsys.readouterr().err == f"error: unrecognized arguments: {flag}\n"


@pytest.mark.parametrize("grid", [",", " , ", ""])
def test_an_empty_lambda_grid_is_named(grid, capsys):
    assert _run("curves", "--lambda-grid", grid, "--rounds", "10") == 1
    assert capsys.readouterr().err == f"error: --lambda-grid {grid!r} has no entries\n"


def test_bad_lambda_grid_entry_is_named(capsys):
    for grid, expected in (("0,abc", "'abc' is not a number"), ("0.6,1.2", "1.2 must lie in [0, 1)")):
        assert _run("curves", "--lambda-grid", grid, "--rounds", "10") == 1
        assert capsys.readouterr().err == f"error: --lambda-grid entry {expected}\n"


def test_dishonest_count_with_an_honest_strategy_is_rejected(tmp_path, capsys):
    conf = tmp_path / "run.conf"
    conf.write_text("dishonest-count = 2\n")
    expected = "error: --dishonest-count needs a cheating --strategy; the strategy is honest\n"
    for argv in (
        ("session", "--dishonest-count", "3", "--out", str(tmp_path / "s")),
        ("verify", "--dishonest-count", "0"),
        ("verify", "--config", str(conf)),
    ):
        assert _run(*argv, "--rounds", "5") == 1
        assert capsys.readouterr().err == expected
    assert not list(tmp_path.glob("s.*"))


def test_verify_reports_the_exact_value_and_z_score_for_an_honest_source(capsys):
    base = ("verify", "--parties", "4", "--rounds", "400", "--seed", "3")
    assert _run(*base, "--source", "dephased-ghz:p=0.2") == 0
    out, err = capsys.readouterr()
    stats = json.loads(out)["stats"]
    z = (stats["estimate"] - 0.9) / stats["stderr"]
    assert err.endswith(f"-> GME-VERIFIED exact=0.900000 z={z:.2f}\n")
    # every round passes, so the stderr is 0 and no z-score is printed
    assert _run(*base, "--source", "ideal-ghz") == 0
    assert capsys.readouterr().err.endswith("-> GME-VERIFIED exact=1.000000\n")
    # a cheating strategy has no exact value to report
    assert _run(*base, "--strategy", "xy-rotated-bell", "--protocol", "xy") == 2
    assert capsys.readouterr().err.endswith("-> INCONCLUSIVE\n")


@pytest.mark.parametrize("parties", ["12", "40", "64"])
def test_record_sources_run_above_the_dense_cap(parties, capsys):
    argv = ("verify", "--parties", parties, "--source", "depolarized-ghz:v=0.9")
    assert _run(*argv, "--rounds", "2000", "--seed", "1") == 0
    err = capsys.readouterr().err
    assert " exact=0.950000 z=" in err
    assert abs(float(err.rsplit("z=", 1)[1])) < 4


def test_party_counts_beyond_a_cap_are_named(capsys):
    for argv, cap in (
        (("--parties", "21", "--source", "biseparable-ghz-plus"), 20),
        (("--parties", "64", "--source", "rotated-bell-plus:theta=0.3"), 20),
        (("--parties", "65"), 64),
    ):
        assert _run("verify", *argv, "--rounds", "10") == 1
        message = f"error: qubit count must be in [1, {cap}], got {argv[1]}\n"
        assert capsys.readouterr().err == message
    # a strategy without a source sizes its blocks by --parties too
    for command in ("curves", "dishonest-angle-profile"):
        assert _run(command, "--parties", "65", "--rounds", "10") == 1
        out, err = capsys.readouterr()
        assert (out, err) == ("", "error: qubit count must be in [1, 64], got 65\n")


def test_negative_seed_is_named(tmp_path, capsys):
    conf = tmp_path / "run.conf"
    conf.write_text("seed = -1\n")
    expected = "error: --seed must be a non-negative integer, got -1\n"
    for command in ("verify", "curves", "dishonest-angle-profile", "session"):
        out = str(tmp_path / command)
        for argv in ((command, "--seed", "-1"), (command, "--config", str(conf))):
            assert _run(*argv, "--rounds", "5", "--out", out) == 1
            assert capsys.readouterr().err == expected
    assert not list(tmp_path.glob("verify*")) and not list(tmp_path.glob("session*"))


def test_session_reports_the_exact_value_and_z_score_for_an_honest_source(tmp_path, capsys):
    prefix = tmp_path / "run"
    base = ("session", "--parties", "4", "--rounds", "400", "--seed", "3", "--out", str(prefix))
    assert _run(*base, "--source", "dephased-ghz:p=0.2") == 0
    stats = json.loads((tmp_path / "run.summary.json").read_text())["stats"]
    z = (stats["estimate"] - 0.9) / stats["stderr"]
    assert capsys.readouterr().err.endswith(f"audit_flags=[] exact=0.900000 z={z:.2f}\n")
    files = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
    assert all(b"exact" not in data for data in files.values())
    # every round passes, so the stderr is 0 and no z-score is printed
    assert _run(*base, "--source", "ideal-ghz") == 0
    assert capsys.readouterr().err.endswith("audit_flags=[] exact=1.000000\n")
    # a cheating strategy has no exact value to report
    assert _run(*base, "--strategy", "xy-rotated-bell", "--protocol", "xy") == 0
    assert capsys.readouterr().err.endswith("audit_flags=[]\n")


def test_config_defaults_do_not_leak_into_later_calls(tmp_path):
    conf = tmp_path / "run.conf"
    conf.write_text("rounds = 300\nprotocol = xy\n")
    first, second = tmp_path / "first.json", tmp_path / "second.json"
    assert _run("verify", "--config", str(conf), "--out", str(first)) == 0
    assert _run("verify", "--out", str(second)) == 0
    assert json.loads(first.read_text())["config"]["rounds"] == 300
    config = json.loads(second.read_text())["config"]
    assert config["rounds"] == 6000
    assert config["protocol"] == "theta"


def test_each_call_builds_one_parser_and_asks_the_terminal_size_once(
    monkeypatch, tmp_path, capsys
):
    conf = tmp_path / "run.conf"
    conf.write_text("rounds = 30\n")
    built, lookups = [], []
    size = shutil.get_terminal_size()

    class CountingParser(cli._Parser):
        def __init__(self, *args, **kwargs):
            built.append(self)
            super().__init__(*args, **kwargs)

    def counting_size(*args, **kwargs):
        lookups.append(None)
        return size

    monkeypatch.setattr(cli, "_Parser", CountingParser)
    monkeypatch.setattr(shutil, "get_terminal_size", counting_size)
    calls = (
        ("verify", "--rounds", "5"),
        ("curves", "--lambda-grid", "0", "--rounds", "5"),
        ("verify", "--rounds", "many"),
        ("verify", "--config", str(conf)),
    )
    for argv in calls:
        del built[:], lookups[:]
        capsys.readouterr()
        _run(*argv)
        # only the invoked subcommand's parser, also with --config
        assert len(built) == 1
        assert len(lookups) == 1
    assert json.loads(capsys.readouterr().out)["config"]["rounds"] == 30


def test_a_bad_flag_is_reported_before_a_bad_config_file(tmp_path, capsys):
    conf = tmp_path / "run.conf"
    conf.write_text("rouns = 50\n")
    assert _run("verify", "--config", str(conf), "--rounds", "abc") == 1
    assert capsys.readouterr().err == "error: argument --rounds: invalid int value: 'abc'\n"
    assert _run("verify", "--config", str(conf), "--rounds", "10") == 1
    assert capsys.readouterr().err == (
        f"error: config file {conf}: key 'rouns' is not an option of any subcommand\n"
    )


def test_an_unreadable_config_file_is_named(tmp_path, capsys):
    missing, binary = tmp_path / "no-such.conf", tmp_path / "binary.conf"
    cases = [(missing, "No such file or directory"), (tmp_path, "Is a directory")]
    binary.write_bytes(b"\xffrounds = 3\n")
    try:
        binary.read_text()
    except UnicodeDecodeError as exc:  # not text in the locale's encoding
        cases.append((binary, str(exc)))
    for path, reason in cases:
        assert _run("verify", "--config", str(path), "--rounds", "10") == 1
        assert capsys.readouterr().err == f"error: config file {path}: cannot be read: {reason}\n"


def test_a_bad_sigma_is_named(monkeypatch, tmp_path, capsys):
    # sigma 0 compares the estimate with the threshold itself
    assert _run("verify", "--rounds", "10", "--sigma", "0") == 0
    capsys.readouterr()

    def no_rounds(args):
        raise AssertionError("rounds ran before --sigma was checked")

    monkeypatch.setattr(cli, "_run_session", no_rounds)
    conf = tmp_path / "sigma.conf"
    conf.write_text("sigma = -1\n")
    for command in ("verify", "session"):
        out = str(tmp_path / command)
        for value, shown in (("-50", "-50.0"), ("nan", "nan"), ("inf", "inf")):
            argv = (command, "--source", "depolarized-ghz:v=0.5", "--rounds", "1000000000",
                    "--sigma", value, "--out", out)
            assert _run(*argv) == 1
            assert capsys.readouterr().err == (
                f"error: --sigma must be a non-negative finite number, got {shown}\n"
            )
        assert _run(command, "--config", str(conf), "--out", out) == 1
        assert capsys.readouterr().err == (
            "error: --sigma must be a non-negative finite number, got -1.0\n"
        )
    assert list(tmp_path.iterdir()) == [conf]


_COMMON = [
    ("--config", None, None),
    ("--seed", 7, None),
    ("--rounds", 6000, None),
    ("--parties", 3, None),
    ("--out", None, None),
]
_RUN = _COMMON + [
    ("--protocol", "theta", ("theta", "xy")),
    ("--source", "ideal-ghz", None),
    ("--strategy", "honest", None),
    ("--dishonest-count", None, None),
    ("--lambda-max", 0.5, None),
    ("--honest-loss", 0.0, None),
    ("--trust", "dishonest-allowed", ("all-honest", "dishonest-allowed")),
    ("--assumed-loss", 0.0, None),
    ("--sigma", 3.0, None),
]
_FORMAT = [("--format", "csv", ("json", "csv"))]


@pytest.mark.parametrize(
    "command,flags",
    [
        ("verify", _RUN),
        ("session", _RUN),
        ("curves", _COMMON + _FORMAT + [("--lambda-grid", "0,0.1,0.2,0.3,0.4,0.5", None)]),
        ("dishonest-angle-profile",
         _COMMON + _FORMAT + [("--angle-points", 32, None), ("--theta-prime", 0.0, None)]),
    ],
)
def test_each_subcommand_takes_its_flags_in_order(command, flags):
    actions = cli.build_parser(command)._actions
    assert actions[0].option_strings == ["-h", "--help"]
    got = [(a.option_strings[0], a.default, a.choices and tuple(a.choices)) for a in actions[1:]]
    assert got == flags
    assert all(len(a.option_strings) == 1 for a in actions[1:])


def test_calls_without_a_command_first_print_the_top_level_messages(monkeypatch, capsys):
    monkeypatch.setenv("COLUMNS", "80")
    choices = "'verify', 'curves', 'dishonest-angle-profile', 'session'"
    for argv, expected in (
        ((), "error: the following arguments are required: command\n"),
        (("verfy",), f"error: argument command: invalid choice: 'verfy' (choose from {choices})\n"),
        (("--seed", "3", "verify"),
         f"error: argument command: invalid choice: '3' (choose from {choices})\n"),
        (("--foo", "verify", "--rounds", "5"), "error: unrecognized arguments: --foo\n"),
    ):
        assert _run(*argv) == 1
        assert capsys.readouterr() == ("", expected)
    with pytest.raises(SystemExit) as exit_info:
        _run("--help")
    assert exit_info.value.code == 0
    assert capsys.readouterr() == (
        "usage: ghzverify [-h] {verify,curves,dishonest-angle-profile,session} ...\n"
        "\n"
        "positional arguments:\n"
        "  {verify,curves,dishonest-angle-profile,session}\n"
        "\n"
        "options:\n"
        "  -h, --help            show this help message and exit\n",
        "",
    )


@pytest.mark.parametrize("value", ["inf", "-inf", "nan"])
def test_a_non_finite_theta_prime_is_named(value, monkeypatch, tmp_path, capsys):
    def no_rounds(*args, **kwargs):
        raise AssertionError("rounds ran before --theta-prime was checked")

    monkeypatch.setattr(cli, "_profile_point", no_rounds)
    conf = tmp_path / "profile.conf"
    conf.write_text(f"theta-prime = {value}\n")
    expected = f"error: --theta-prime must be a finite number, got {float(value)}\n"
    # "--theta-prime -inf" would read -inf as a flag
    for argv in ((f"--theta-prime={value}",), ("--config", str(conf))):
        assert _run("dishonest-angle-profile", *argv, "--angle-points", "2") == 1
        assert capsys.readouterr() == ("", expected)


def _no_rounds(*args, **kwargs):
    raise AssertionError("rounds ran before the flags were checked")


def test_too_few_parties_are_named(monkeypatch, tmp_path, capsys):
    for name in ("_run_session", "_profile_point"):
        monkeypatch.setattr(cli, name, _no_rounds)
    monkeypatch.setattr(cli.protocol, "estimate_pass_probability", _no_rounds)
    conf = tmp_path / "parties.conf"
    conf.write_text("parties = 1\n")
    for command in ("verify", "curves", "dishonest-angle-profile", "session"):
        out = str(tmp_path / command)
        for argv, shown in (
            (("--parties", "1"), 1),
            (("--parties", "0"), 0),
            (("--parties", "-3"), -3),
            (("--config", str(conf)), 1),
        ):
            assert _run(command, *argv, "--rounds", "5", "--out", out) == 1
            expected = f"error: --parties must be at least 2, got {shown}\n"
            assert capsys.readouterr() == ("", expected)
    assert list(tmp_path.iterdir()) == [conf]


def test_too_few_rounds_are_named(monkeypatch, tmp_path, capsys):
    for name in ("_run_session", "_profile_point"):
        monkeypatch.setattr(cli, name, _no_rounds)
    monkeypatch.setattr(cli.protocol, "estimate_pass_probability", _no_rounds)
    conf = tmp_path / "rounds.conf"
    conf.write_text("rounds = 0\n")
    for command in ("verify", "curves", "dishonest-angle-profile", "session"):
        out = str(tmp_path / command)
        for argv, shown in ((("--rounds", "0"), 0), (("--rounds", "-4"), -4),
                            (("--config", str(conf)), 0)):
            assert _run(command, *argv, "--out", out) == 1
            expected = f"error: --rounds must be at least 1, got {shown}\n"
            assert capsys.readouterr() == ("", expected)
    assert list(tmp_path.iterdir()) == [conf]


def test_too_few_angle_points_are_named(monkeypatch, tmp_path, capsys):
    monkeypatch.setattr(cli, "_profile_point", _no_rounds)
    conf = tmp_path / "points.conf"
    conf.write_text("angle-points = 0\n")
    out = str(tmp_path / "profile.csv")
    for argv, shown in ((("--angle-points", "0"), 0), (("--angle-points", "-3"), -3),
                        (("--config", str(conf)), 0)):
        assert _run("dishonest-angle-profile", *argv, "--out", out) == 1
        expected = f"error: --angle-points must be at least 1, got {shown}\n"
        assert capsys.readouterr() == ("", expected)
    assert list(tmp_path.iterdir()) == [conf]


def test_a_lambda_max_out_of_range_is_named(monkeypatch, tmp_path, capsys):
    monkeypatch.setattr(cli, "_run_session", _no_rounds)
    for command in ("verify", "session"):
        out = str(tmp_path / command)
        for value, shown in (("1", "1.0"), ("-0.1", "-0.1"), ("nan", "nan")):
            assert _run(command, f"--lambda-max={value}", "--out", out) == 1
            expected = f"error: --lambda-max must lie in [0, 1), got {shown}\n"
            assert capsys.readouterr() == ("", expected)
    assert list(tmp_path.iterdir()) == []


def test_a_dishonest_count_without_an_honest_party_is_named(monkeypatch, tmp_path, capsys):
    monkeypatch.setattr(cli, "_run_session", _no_rounds)
    conf = tmp_path / "count.conf"
    conf.write_text("strategy = xy-mixed:lam=0.1\ndishonest-count = 4\nparties = 4\n")
    for command in ("verify", "session"):
        out = str(tmp_path / command)
        for argv, expected in (
            (("--dishonest-count", "0"), "must be at least 1, got 0"),
            (("--dishonest-count", "-1"), "must be at least 1, got -1"),
            (("--dishonest-count", "3"), "must be at most --parties - 1 = 2, got 3"),
            (("--config", str(conf)), "must be at most --parties - 1 = 3, got 4"),
        ):
            argv = (command, "--strategy", "xy-mixed:lam=0.1", *argv, "--out", out)
            assert _run(*argv) == 1
            assert capsys.readouterr() == ("", f"error: --dishonest-count {expected}\n")
    assert list(tmp_path.iterdir()) == [conf]


def _verify_text(tmp_path, seed):
    fresh = tmp_path / f"fresh-{seed}.json"
    assert _run("verify", "--rounds", "20", "--seed", str(seed), "--out", str(fresh)) == 0
    return fresh.read_bytes()


def test_an_output_is_overwritten_in_place(monkeypatch, tmp_path):
    expected = _verify_text(tmp_path, 3)
    flags, os_open = [], os.open

    def recording_open(path, flag, *args, **kwargs):
        flags.append(flag)
        return os_open(path, flag, *args, **kwargs)

    monkeypatch.setattr(os, "open", recording_open)
    out = tmp_path / "verdict.json"
    longer = b"x" * (3 * len(expected) + 4096)
    out.write_bytes(longer)
    out.chmod(0o600)
    link = tmp_path / "hard-link.json"
    os.link(out, link)
    inode = out.stat().st_ino
    assert _run("verify", "--rounds", "20", "--seed", "3", "--out", str(out)) == 0
    assert out.read_bytes() == expected
    assert link.read_bytes() == expected
    assert out.stat().st_ino == inode
    assert out.stat().st_mode & 0o777 == 0o600
    assert len(flags) == 1 and not flags[0] & os.O_TRUNC


@pytest.mark.parametrize("fault", (OSError(28, "No space left on device"), KeyboardInterrupt()))
def test_an_interrupted_overwrite_leaves_no_old_bytes(fault, monkeypatch, tmp_path, capsys):
    expected = _verify_text(tmp_path, 5)
    os_write, calls = os.write, []

    def failing_write(fd, data):
        # the first call writes half the text, the second fails
        calls.append(len(data))
        if len(calls) > 1:
            raise fault
        return os_write(fd, data[: len(data) // 2])

    monkeypatch.setattr(os, "write", failing_write)
    out = tmp_path / "verdict.json"
    out.write_bytes(b"x" * (3 * len(expected)))
    argv = ("verify", "--rounds", "20", "--seed", "5", "--out", str(out))
    capsys.readouterr()
    if isinstance(fault, OSError):
        assert _run(*argv) == 1
        assert capsys.readouterr().err == f"error: [Errno 28] No space left on device: {str(out)!r}\n"
    else:
        with pytest.raises(KeyboardInterrupt):
            _run(*argv)
    assert out.read_bytes() == expected[: len(expected) // 2]


# a failed write is named by test_an_interrupted_overwrite_leaves_no_old_bytes
@pytest.mark.parametrize("call", ("ftruncate", "close"))
def test_a_failed_cut_or_close_names_the_output(call, monkeypatch, tmp_path, capsys):
    os_call = getattr(os, call)

    def failing(fd, *args):
        if call == "close":
            os_call(fd)
        raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

    monkeypatch.setattr(os, call, failing)
    out = tmp_path / "verdict.json"
    assert _run("verify", "--rounds", "20", "--out", str(out)) == 1
    reason = f"[Errno {errno.ENOSPC}] {os.strerror(errno.ENOSPC)}"
    assert capsys.readouterr().err == f"error: {reason}: {str(out)!r}\n"


def test_a_session_prefix_ending_in_a_separator_is_named(monkeypatch, tmp_path, capsys):
    monkeypatch.setattr(cli, "_run_session", _no_rounds)
    monkeypatch.chdir(tmp_path)
    conf = tmp_path / "out.conf"
    conf.write_text("out = runs/\n")
    expected = (
        "error: --out 'runs/' ends in a path separator; session --out takes a file "
        "prefix, such as runs/session\n"
    )
    for argv in (("--out", "runs/"), ("--config", str(conf))):
        assert _run("session", "--rounds", "5", *argv) == 1
        assert capsys.readouterr() == ("", expected)
    assert list(tmp_path.iterdir()) == [conf]


def test_the_writer_writes_the_bytes_of_write_text(tmp_path):
    text = "plain, ünïcode and 两 lines\nand a last one\n"
    (tmp_path / "reference.txt").write_text(text)
    cli._write_file(str(tmp_path / "written.txt"), text)
    assert (tmp_path / "written.txt").read_bytes() == (tmp_path / "reference.txt").read_bytes()


def test_an_output_through_a_symlink_goes_to_its_target(tmp_path):
    expected = _verify_text(tmp_path, 4)
    target = tmp_path / "target.json"
    target.write_text("old contents, longer than nothing\n" * 200)
    out = tmp_path / "link.json"
    out.symlink_to(target.name)
    assert _run("verify", "--rounds", "20", "--seed", "4", "--out", str(out)) == 0
    assert out.is_symlink() and os.readlink(out) == target.name
    assert target.read_bytes() == expected


def test_missing_parent_directories_of_an_output_are_created(tmp_path):
    for argv, out in (
        (("verify", "--rounds", "20"), tmp_path / "a" / "b" / "v.json"),
        (("curves", "--lambda-grid", "0", "--rounds", "20"), tmp_path / "c" / "d" / "c.csv"),
    ):
        assert _run(*argv, "--out", str(out)) == 0
        assert out.read_text()


def test_an_output_to_a_device_is_not_truncated(capsys):
    assert _run("verify", "--rounds", "20", "--out", os.devnull) == 0
    assert capsys.readouterr().out == ""


def test_an_output_that_is_a_directory_is_named(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "d").mkdir()
    (tmp_path / "f").write_text("")
    for out, message in (
        ("", "[Errno 21] Is a directory: '.'"),
        ("d", "[Errno 21] Is a directory: 'd'"),
        ("d/", "[Errno 21] Is a directory: 'd'"),
        ("f/v.json", "[Errno 17] File exists: 'f'"),
        ("f/g/v.json", "[Errno 20] Not a directory: 'f/g'"),
    ):
        assert _run("verify", "--rounds", "5", "--out", out) == 1
        assert capsys.readouterr().err == f"error: {message}\n"


def test_session_overwrites_its_files_in_place(tmp_path):
    argv = ("session", "--rounds", "50", "--seed", "6", "--out")
    assert _run(*argv, str(tmp_path / "fresh")) == 0
    prefix = tmp_path / "run"
    suffixes = (".messages.jsonl", ".records.jsonl", ".summary.json")
    inodes = {}
    for suffix in suffixes:
        path = Path(f"{prefix}{suffix}")
        path.write_bytes(b"#" * 100_000)
        inodes[suffix] = path.stat().st_ino
    assert _run(*argv, str(prefix)) == 0
    for suffix in suffixes:
        path = Path(f"{prefix}{suffix}")
        assert path.read_bytes() == Path(f"{tmp_path / 'fresh'}{suffix}").read_bytes()
        assert path.stat().st_ino == inodes[suffix]
