import json

import numpy as np
import pytest

from ghzverify.cli import main


def _run(*argv):
    return main(list(argv))


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
