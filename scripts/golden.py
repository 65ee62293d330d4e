"""Regenerate ``tests/golden.json``: the sha256 of every file a fixed list of
CLI calls writes.

    PYTHONPATH=src python3 scripts/golden.py

Each call runs in process in an empty temporary directory holding only the
config file; its output paths are relative to that directory.  The fixture
records each call's exit code and the digest of each file it wrote, plus the
numpy, scipy and Python versions and the platform, since the digests pin the
float results of one build.  ``tests/test_golden.py`` replays the calls and
compares.  A change that moves outputs by design regenerates the fixture and
names the moved digests in ``CHANGES.md``.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import platform
import sys
import tempfile
from pathlib import Path

import numpy as np
import scipy

from ghzverify import cli

FIXTURE = Path(__file__).resolve().parent.parent / "tests" / "golden.json"

# written into each call's directory; its keys override the defaults, flags win
CONFIG_NAME = "run.cfg"
CONFIG_TEXT = "# a session file\nrounds = 150\nseed = 11\nparties = 4\nprotocol = xy\n"

_R = ["--rounds", "200", "--seed", "5"]

CALLS = [
    # records at n = 3 and n = 64, both protocols
    *(["verify", *_R, "--parties", str(n), "--protocol", kind, "--source", source,
       "--out", "verify.json"]
      for n in (3, 64)
      for source in ("ideal-ghz", "dephased-ghz:p=0.2", "depolarized-ghz:v=0.8",
                     "calibrated:fidelity=0.8,family=dephased",
                     "calibrated:fidelity=0.8,family=depolarized")
      for kind in ("theta", "xy")),
    # the pure families at n = 3-6
    *(["verify", *_R, "--parties", str(n), "--protocol", kind, "--source", source,
       "--out", "verify.json"]
      for n in (3, 4, 5, 6)
      for source in ("biseparable-ghz-plus", "rotated-bell-plus:theta=0.785")
      for kind in ("theta", "xy")),
    # the pumped pair sources
    *(["verify", *_R, "--parties", str(n), "--protocol", kind, "--source", source,
       "--out", "verify.json"]
      for n, source in ((3, "higher-order:alpha=0.22"), (4, "higher-order:mean-pairs=0.05"),
                        (3, "higher-order-calibrated:alpha=0.1"))
      for kind in ("theta", "xy")),
    # every strategy, all three session files
    *(["session", *_R, "--parties", "3", "--protocol", kind, "--strategy", strategy,
       "--out", "run"]
      for kind, strategy in (
          ("xy", "xy-perfect-loss50"), ("xy", "xy-naive-loss"), ("xy", "xy-rotated-bell"),
          ("xy", "xy-mixed:lam=0.2"), ("theta", "theta-rotated-bell:lam=0.3"),
          ("theta", "theta-rotated-bell:lam=0.7,theta-prime=0.4"),
          ("theta", "product-guesser:theta-prime=0.785"), ("xy", "product-guesser"))),
    ["session", *_R, "--parties", "3", "--protocol", "theta", "--source", "dephased-ghz:p=0.2",
     "--strategy", "projective-cheat:lam=0.2", "--out", "run"],
    ["verify", *_R, "--parties", "3", "--protocol", "theta", "--strategy",
     "theta-rotated-bell:lam=0.7", "--out", "verify.json"],
    ["verify", *_R, "--parties", "3", "--protocol", "xy", "--strategy", "xy-perfect-loss50",
     "--out", "verify.json"],
    # a two-member coalition
    ["session", *_R, "--parties", "4", "--protocol", "theta", "--source", "biseparable-ghz-plus",
     "--strategy", "projective-cheat:lam=0.1", "--dishonest-count", "2", "--out", "run"],
    ["verify", *_R, "--parties", "5", "--protocol", "xy", "--strategy", "xy-mixed:lam=0.3",
     "--dishonest-count", "2", "--out", "verify.json"],
    # the xy loss strategies under theta requests, whose answer angles fall anywhere
    ["session", *_R, "--parties", "4", "--protocol", "theta", "--strategy", "xy-perfect-loss50",
     "--dishonest-count", "2", "--out", "run"],
    *(["session", *_R, "--parties", "3", "--protocol", "theta", "--strategy", strategy,
       "--out", "run"]
      for strategy in ("xy-naive-loss", "xy-mixed:lam=0.3")),
    # honest loss, with and without an assumed loss and another trust model
    ["session", *_R, "--parties", "3", "--protocol", "theta", "--source", "dephased-ghz:p=0.2",
     "--honest-loss", "0.05", "--out", "run"],
    ["verify", *_R, "--parties", "4", "--protocol", "xy", "--source", "ideal-ghz",
     "--honest-loss", "0.2", "--assumed-loss", "0.1", "--trust", "all-honest", "--out",
     "verify.json"],
    ["verify", *_R, "--parties", "3", "--protocol", "theta", "--source", "depolarized-ghz:v=0.9",
     "--lambda-max", "0.1", "--sigma", "2", "--out", "verify.json"],
    # a config file, alone and under a flag
    ["session", "--config", CONFIG_NAME, "--out", "run"],
    ["verify", "--config", CONFIG_NAME, "--rounds", "100", "--source", "dephased-ghz:p=0.1",
     "--out", "verify.json"],
    # the emitted curves and profiles, in both formats
    *(["curves", "--rounds", "200", "--seed", "3", "--parties", str(n), "--lambda-grid", grid,
       "--format", fmt, "--out", f"curves.{fmt}"]
      for n, grid in ((3, "0,0.1,0.2,0.3,0.4,0.5"), (4, "0.05,0.45,0.6"))
      for fmt in ("csv", "json")),
    *(["dishonest-angle-profile", "--rounds", "200", "--seed", "3", "--parties", str(n),
       "--angle-points", "8", "--theta-prime", tp, "--format", fmt, "--out", f"profile.{fmt}"]
      for n, tp in ((3, "0"), (4, "0.785"))
      for fmt in ("csv", "json")),
    ["curves", "--config", CONFIG_NAME, "--lambda-grid", "0.2", "--out", "curves.csv"],
    # both loss audits at about 3000 losses: the chi-square (xy) and the KS test (theta)
    *(["session", "--rounds", "6000", "--seed", "5", "--parties", "3", "--protocol", kind,
       "--strategy", strategy, "--out", "run"]
      for kind, strategy in (("xy", "xy-perfect-loss50"),
                             ("theta", "theta-rotated-bell:lam=0.5"))),
]


def environment() -> dict:
    return {
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "python": platform.python_version(),
        "platform": platform.platform(),
    }


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def run_call(argv: list[str], directory: Path) -> dict:
    """Run ``argv`` in ``directory``, which holds only the config file, and
    return its exit code and the digest of each file it wrote."""
    (directory / CONFIG_NAME).write_text(CONFIG_TEXT)
    cwd = os.getcwd()
    os.chdir(directory)
    try:
        with contextlib.redirect_stderr(io.StringIO()):
            code = cli.main(argv)
    finally:
        os.chdir(cwd)
    files = {
        p.name: sha256(p) for p in sorted(directory.iterdir()) if p.name != CONFIG_NAME
    }
    return {"argv": argv, "exit": code, "files": files}


def main() -> int:
    runs = []
    for argv in CALLS:
        with tempfile.TemporaryDirectory() as tmp:
            runs.append(run_call(list(argv), Path(tmp)))
    doc = {
        "environment": environment(),
        "config_file": {"name": CONFIG_NAME, "text": CONFIG_TEXT},
        "runs": runs,
    }
    FIXTURE.write_text(json.dumps(doc, indent=1) + "\n")
    print(f"{FIXTURE}: {len(runs)} calls", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
