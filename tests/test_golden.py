"""Every output file of a fixed list of CLI calls, against the sha256 digests
in ``golden.json`` (regenerated by ``scripts/golden.py``, whose ``run_call``
replays each call here)."""

import importlib.util
import json
from pathlib import Path

from ghzverify import adversary, cli, sources

_spec = importlib.util.spec_from_file_location(
    "golden", Path(__file__).resolve().parents[1] / "scripts" / "golden.py")
golden = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(golden)

GOLDEN = json.loads((Path(__file__).parent / "golden.json").read_text())


def test_the_fixture_holds_the_calls_and_config_of_the_script():
    assert [run["argv"] for run in GOLDEN["runs"]] == golden.CALLS
    assert GOLDEN["config_file"] == {"name": golden.CONFIG_NAME, "text": golden.CONFIG_TEXT}


def test_every_output_file_matches_its_golden_digest(tmp_path):
    moved = []
    for i, run in enumerate(GOLDEN["runs"]):
        directory = tmp_path / str(i)
        directory.mkdir()
        got = golden.run_call(list(run["argv"]), directory)
        if got != run:
            changed = sorted(
                name for name in set(got["files"]) | set(run["files"])
                if got["files"].get(name) != run["files"].get(name)
            )
            moved.append(f"{' '.join(run['argv'])}: exit {run['exit']} -> {got['exit']}, "
                         f"files {changed}")
    assert not moved, (
        "outputs differ from tests/golden.json; it was generated with "
        f"{GOLDEN['environment']}\n" + "\n".join(moved)
    )


def test_golden_calls_cover_every_command_and_key():
    argvs = [run["argv"] for run in GOLDEN["runs"]]

    def values(flag):
        return {a[a.index(flag) + 1].split(":")[0] for a in argvs if flag in a}

    assert {a[0] for a in argvs} == set(cli._COMMANDS)
    assert values("--source") == set(sources.SOURCE_KEYS)
    assert values("--strategy") == set(adversary.STRATEGIES)
    assert values("--protocol") == {"theta", "xy"}
    assert values("--format") == {"csv", "json"}
    assert {"--dishonest-count", "--honest-loss", "--config"} <= {f for a in argvs for f in a}
    session_files = {f for run in GOLDEN["runs"] if run["argv"][0] == "session"
                     for f in run["files"]}
    assert session_files == {"run.messages.jsonl", "run.records.jsonl", "run.summary.json"}
