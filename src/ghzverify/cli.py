"""Command-line front end: run sessions, sweep loss grids and emit the data
files behind the verification analyses.

Subcommands: ``verify``, ``curves``, ``dishonest-angle-profile``, ``session``.
Numeric CSV output uses 17-significant-digit decimals so identical seeds and
configs reproduce output files byte for byte.
"""

from __future__ import annotations

import argparse
import functools
import json
import locale
import math
import os
import shutil
import stat
import sys
from pathlib import Path

import numpy as np

from . import adversary, analytics, protocol, simnet, sources


class CliError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise CliError(message)


def _fmt(x: float) -> str:
    return f"{x:.17g}"


def parse_strategy_key(key: str, n_parties: int, dishonest_count: int | None):
    """Parse ``honest`` or a strategy key like ``name:lam=0.3,theta-prime=0.5``
    (see ``adversary.from_key``) into a strategy.  ``dishonest_count`` defaults
    to 1 for a cheating strategy and must be None for ``honest``."""
    if key == "honest":
        if dishonest_count is not None:
            raise CliError("--dishonest-count needs a cheating --strategy; the strategy is honest")
        return None
    try:
        count = 1 if dishonest_count is None else dishonest_count
        return adversary.from_key(key, n_parties, count)
    except ValueError as exc:
        raise CliError(f"bad strategy {key!r}: {exc}") from exc


_COMMANDS = ("verify", "curves", "dishonest-angle-profile", "session")
_RUN = ("verify", "session")
_EMIT = ("curves", "dishonest-angle-profile")

# every flag once: flag -> (argparse keywords, subcommands that take it), in
# the order of each subcommand's --help
_FLAGS = {
    "--config": ({"help": "key=value defaults file; flags override"}, _COMMANDS),
    "--seed": ({"type": int, "default": 7}, _COMMANDS),
    "--rounds": ({"type": int, "default": 6000}, _COMMANDS),
    "--parties": ({"type": int, "default": 3}, _COMMANDS),
    "--out": ({"help": "output path (or prefix for session)"}, _COMMANDS),
    "--protocol": ({"choices": ("theta", "xy"), "default": "theta"}, _RUN),
    "--source": ({"default": "ideal-ghz", "help": "source model key"}, _RUN),
    "--strategy": ({"default": "honest", "help": "strategy key or 'honest'"}, _RUN),
    "--dishonest-count": ({"type": int, "help": "default 1 with a cheating strategy"}, _RUN),
    "--lambda-max": ({"type": float, "default": 0.5}, _RUN),
    "--honest-loss": ({"type": float, "default": 0.0}, _RUN),
    "--trust": (
        {
            "choices": tuple(t.value for t in analytics.TrustModel),
            "default": analytics.TrustModel.DISHONEST_ALLOWED.value,
        },
        _RUN,
    ),
    "--assumed-loss": ({"type": float, "default": 0.0}, _RUN),
    "--sigma": ({"type": float, "default": 3.0}, _RUN),
    "--format": ({"choices": ("json", "csv"), "default": "csv"}, _EMIT),
    "--lambda-grid": ({"default": "0,0.1,0.2,0.3,0.4,0.5"}, ("curves",)),
    "--angle-points": ({"type": int, "default": 32}, ("dishonest-angle-profile",)),
    "--theta-prime": ({"type": float, "default": 0.0}, ("dishonest-angle-profile",)),
}


def _apply_config_file(path: str, command: str, parser: _Parser) -> None:
    """Set the ``key = value`` lines of a config file ('#' comments) as the
    defaults of ``parser``, the parser of ``command``; flags win.  A key is
    checked against its flag's type and choices even when ``command`` does
    not take it."""
    try:
        text = Path(path).read_text()
    except (OSError, UnicodeDecodeError) as exc:
        reason = getattr(exc, "strerror", None) or exc
        raise CliError(f"config file {path}: cannot be read: {reason}") from None
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        key, sep, val = line.partition("=")
        if not sep:
            raise CliError(f"config file {path}: malformed line {raw!r}, expected key = value")
        key, val = key.strip(), val.strip()
        where = f"config file {path}: key {key!r}"
        flag = "--" + key.replace("_", "-")
        if flag not in _FLAGS or flag == "--config":
            raise CliError(f"{where} is not an option of any subcommand")
        kwargs, commands = _FLAGS[flag]
        kind, choices = kwargs.get("type"), kwargs.get("choices")
        try:
            value = kind(val) if kind else val
        except ValueError:
            raise CliError(f"{where}: invalid {kind.__name__} value {val!r}") from None
        if choices is not None and value not in choices:
            raise CliError(f"{where}: invalid choice {val!r} (choose from {', '.join(choices)})")
        if command in commands:
            parser.set_defaults(**{flag[2:].replace("-", "_"): value})


def _formatter():
    # each add_argument builds a help formatter, which asks the terminal size if given no width
    return functools.partial(argparse.HelpFormatter, width=shutil.get_terminal_size().columns - 2)


def _add_flags(parser: _Parser, command: str) -> _Parser:
    for flag, (kwargs, commands) in _FLAGS.items():
        if command in commands:
            parser.add_argument(flag, **kwargs)
    return parser


def build_parser(command: str) -> _Parser:
    """The parser of one subcommand, holding only the flags it reads."""
    return _add_flags(_Parser(prog=f"ghzverify {command}", formatter_class=_formatter()), command)


def _top_level_parser() -> _Parser:
    """``ghzverify`` with a subparser per command, for a call whose first
    word is not a command: it prints the top-level usage, help and errors."""
    fmt = _formatter()
    parser = _Parser(prog="ghzverify", formatter_class=fmt)
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _COMMANDS:
        _add_flags(sub.add_parser(name, formatter_class=fmt), name)
    return parser


def _write_file(out: str, text: str) -> None:
    """Write ``text`` to the file ``out`` as ``Path.write_text`` would, with
    the same bytes (the locale's encoding, POSIX newlines) and errors,
    creating missing parent directories.  An existing file is overwritten in
    place, so it keeps its inode, mode and links; a device or FIFO is written
    and never truncated.  Every file the CLI writes goes through here."""
    data = memoryview(text.encode(locale.getpreferredencoding(False)))
    path = Path(out)  # "" names ".", as write_text does
    path.parent.mkdir(parents=True, exist_ok=True)
    # no O_TRUNC: truncating a file to 0 bytes makes ext4 start writeback on
    # close (auto_da_alloc), which no caller asked for
    fd = os.open(str(path), os.O_WRONLY | os.O_CREAT, 0o666)
    written = 0
    try:
        try:
            while written < len(data):
                written += os.write(fd, data[written:])
        finally:
            # cut a regular file after the new bytes, also when a write
            # failed, so no byte of the old file is left behind them
            try:
                if stat.S_ISREG(os.fstat(fd).st_mode):
                    os.ftruncate(fd, written)
            finally:
                os.close(fd)
    except OSError as exc:
        exc.filename = out  # a write, cut or close names no file by itself
        raise


def _write_or_print(text: str, out: str | None):
    if out is None:
        print(text)
    else:
        _write_file(out, text)


def _run_session(args) -> tuple[simnet.Transcript, analytics.Verdict]:
    """The session the flags describe and its verdict (``Transcript.verdict``)."""
    strategy = parse_strategy_key(args.strategy, args.parties, args.dishonest_count)
    model = sources.from_key(args.source, args.parties)
    config = simnet.SessionConfig(
        args.parties,
        args.protocol,
        args.rounds,
        args.seed,
        source=model,
        strategy=strategy,
        lambda_max=args.lambda_max,
        honest_loss=args.honest_loss,
    )
    transcript = simnet.run_session(config)
    return transcript, transcript.verdict(args.trust, args.assumed_loss, args.sigma)


def _self_check(transcript: simnet.Transcript) -> str:
    """`` exact=<p> z=<z>`` for an honest strategy, with ``z`` left out when
    the stderr is 0; empty for a cheating strategy, which has no exact value.
    Honest loss is independent of the outcomes, so the exact value holds for
    the valid rounds."""
    if transcript.config.strategy is not None:
        return ""
    stats = transcript.stats
    exact = protocol.exact_pass_probability(transcript.state, transcript.config.kind)
    check = f" exact={exact:.6f}"
    if stats.stderr > 0.0:
        check += f" z={(stats.estimate - exact) / stats.stderr:.2f}"
    return check


def cmd_verify(args) -> int:
    transcript, v = _run_session(args)
    stats = transcript.stats
    doc = transcript.summary_dict(verdict=v)
    doc["bounds"] = {
        "honest_fidelity": analytics.honest_fidelity_bound(stats.estimate),
        "dishonest_fidelity": analytics.dishonest_fidelity_bound(stats.estimate),
    }
    _write_or_print(json.dumps(doc, sort_keys=True, indent=2), args.out)
    report = (
        f"verify: estimate={stats.estimate:.6f} +- {stats.stderr:.6f} "
        f"threshold={v.threshold:.6f} -> {v.decision}"
    )
    print(report + _self_check(transcript), file=sys.stderr)
    return 0 if v.decision == "GME-VERIFIED" else 2


CURVE_COLUMNS = (
    "lambda",
    "theta_bound",
    "xy_bound",
    "simulated_theta_cheat",
    "simulated_theta_cheat_stderr",
    "simulated_xy_cheat",
    "simulated_xy_cheat_stderr",
)


# per protocol: the cheating strategy simulated against its bound
# (``analytics.CHEAT_CURVES``) and the salt of that simulation's seed
_CURVES = ((protocol.ProtocolKind.THETA, "theta-rotated-bell", 101),
           (protocol.ProtocolKind.XY, "xy-mixed", 202))


def cmd_curves(args) -> int:
    grid = []
    for entry in filter(str.strip, args.lambda_grid.split(",")):
        try:
            lam = float(entry)
        except ValueError:
            raise CliError(f"--lambda-grid entry {entry.strip()!r} is not a number") from None
        if not 0.0 <= lam < 1.0:
            raise CliError(f"--lambda-grid entry {lam} must lie in [0, 1)")
        grid.append(lam)
    if not grid:
        raise CliError(f"--lambda-grid {args.lambda_grid!r} has no entries")
    rows = []
    for i, lam in enumerate(grid):
        row = {"lambda": lam}
        for kind, name, salt in _CURVES:
            bound, end = analytics.CHEAT_CURVES[kind]
            if lam > end:
                continue
            strat = adversary.make_strategy(name, n_parties=args.parties, lam=lam)
            rng = np.random.default_rng((args.seed, salt, i))
            st = protocol.estimate_pass_probability(None, strat, kind, args.rounds, rng)
            row[f"{kind.value}_bound"] = bound(lam)
            row[f"simulated_{kind.value}_cheat"] = st.estimate
            row[f"simulated_{kind.value}_cheat_stderr"] = st.stderr
        rows.append(row)
    _emit_rows(rows, CURVE_COLUMNS, args)
    return 0


PROFILE_COLUMNS = ("theta", "optimal_pass", "simulated_pass", "simulated_stderr")


def _profile_point(theta_d: float, theta_prime: float, args) -> tuple[float, float]:
    """Simulated pass rate with the dishonest angle pinned to ``theta_d``."""
    # the guesser's state phase is -theta_prime so the pass probability is
    # (1 + |cos(theta_prime - theta_d)|)/2 at each requested angle
    strat = adversary.make_strategy(
        "product-guesser", n_parties=args.parties, theta_prime=(-theta_prime) % (2 * math.pi)
    )
    rng = np.random.default_rng((args.seed, 303, round(theta_d * 1e9)))
    rounds = protocol.run_rounds(None, strat, "theta", args.rounds, rng, last_angle=theta_d)
    st = protocol.PassStats.from_records(rounds)
    return st.estimate, st.stderr


def cmd_profile(args) -> int:
    thetas = np.linspace(0.0, np.pi, args.angle_points, endpoint=False)
    rows = []
    for theta_d in thetas:
        optimal = 0.5 + 0.5 * abs(math.cos(args.theta_prime - theta_d))
        est, se = _profile_point(float(theta_d), args.theta_prime, args)
        rows.append(
            {
                "theta": float(theta_d),
                "optimal_pass": optimal,
                "simulated_pass": est,
                "simulated_stderr": se,
            }
        )
    _emit_rows(rows, PROFILE_COLUMNS, args)
    return 0


def cmd_session(args) -> int:
    prefix = args.out or "session"
    if prefix.endswith((os.sep, "/")):
        raise CliError(
            f"--out {prefix!r} ends in a path separator; session --out takes a file "
            "prefix, such as runs/session"
        )
    transcript, v = _run_session(args)
    _write_file(f"{prefix}.messages.jsonl", transcript.messages_jsonl() + "\n")
    _write_file(f"{prefix}.records.jsonl", transcript.records_jsonl() + "\n")
    _write_file(f"{prefix}.summary.json", transcript.summary_json(verdict=v) + "\n")
    flagged = [p for p, a in transcript.audits.items() if a.status == "flagged"]
    print(
        f"session: estimate={transcript.stats.estimate:.6f} "
        f"loss_rates={[f'{r:.3f}' for r in transcript.stats.loss_rates]} "
        f"audit_flags={flagged}" + _self_check(transcript),
        file=sys.stderr,
    )
    return 0


def _emit_rows(rows: list[dict], columns: tuple[str, ...], args):
    if args.format == "json":
        text = json.dumps(rows, sort_keys=True, indent=2)
    else:
        lines = [",".join(columns)]
        for row in rows:
            lines.append(
                ",".join(_fmt(row[c]) if c in row else "" for c in columns)
            )
        text = "\n".join(lines) + "\n"
    _write_or_print(text, args.out)


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        if not argv or argv[0] not in _COMMANDS:
            # --help exits and any other such argv fails to parse; the raise
            # covers an argparse that skips a "--" before the command
            _top_level_parser().parse_args(argv)
            raise CliError(f"the command must come first, got {argv[0]!r}")
        command, flags = argv[0], argv[1:]
        parser = build_parser(command)
        args = parser.parse_args(flags)
        if args.config:
            # the file's keys become the subcommand's defaults; flags win
            _apply_config_file(args.config, command, parser)
            args = parser.parse_args(flags)
        if args.seed < 0:
            raise CliError(f"--seed must be a non-negative integer, got {args.seed}")
        if args.parties < 2:
            raise CliError(f"--parties must be at least 2, got {args.parties}")
        if args.rounds < 1:
            raise CliError(f"--rounds must be at least 1, got {args.rounds}")
        if getattr(args, "dishonest_count", None) is not None and args.strategy != "honest":
            adversary.check_dishonest_count(
                args.dishonest_count, args.parties, "--dishonest-count", "--parties"
            )
        if "sigma" in args:
            analytics.check_sigma(args.sigma, "--sigma")
            # the range errors of --assumed-loss, which the verdict may not read
            analytics.gme_threshold(args.protocol, args.trust, args.assumed_loss, "--assumed-loss")
            for flag in ("--lambda-max", "--honest-loss"):
                value = getattr(args, flag[2:].replace("-", "_"))
                if not 0.0 <= value < 1.0:
                    raise CliError(f"{flag} must lie in [0, 1), got {value}")
        if "theta_prime" in args and not math.isfinite(args.theta_prime):
            raise CliError(f"--theta-prime must be a finite number, got {args.theta_prime}")
        if "angle_points" in args and args.angle_points < 1:
            raise CliError(f"--angle-points must be at least 1, got {args.angle_points}")
        handler = {
            "verify": cmd_verify,
            "curves": cmd_curves,
            "dishonest-angle-profile": cmd_profile,
            "session": cmd_session,
        }[command]
        return handler(args)
    except (CliError, ValueError, OSError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
