"""Every output file of a fixed list of CLI calls, against the sha256 digests
in ``golden.json`` (regenerated by ``scripts/golden.py``)."""

import contextlib
import hashlib
import io
import json
from pathlib import Path

from ghzverify import adversary, cli, sources

GOLDEN = json.loads((Path(__file__).parent / "golden.json").read_text())


def _replay(run, directory, monkeypatch):
    directory.mkdir()
    config = GOLDEN["config_file"]
    (directory / config["name"]).write_text(config["text"])
    monkeypatch.chdir(directory)
    with contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(list(run["argv"]))
    files = {
        p.name: hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(directory.iterdir())
        if p.name != config["name"]
    }
    return {"argv": run["argv"], "exit": code, "files": files}


def test_every_output_file_matches_its_golden_digest(tmp_path, monkeypatch):
    moved = []
    for i, run in enumerate(GOLDEN["runs"]):
        got = _replay(run, tmp_path / str(i), monkeypatch)
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
