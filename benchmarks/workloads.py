"""The benchmark's four workloads: inputs made from a seed, a fixed job list,
and an output gate per job.

A job's ``run`` is the timed call into the package; its ``check`` compares
the output against ``expect``, which holds reference values computed at run
time from closed forms.  No gate compares against stored bytes or values:
Monte Carlo gates reject a pass count whose exact binomial tail is as unlikely
as 4 standard errors of a normal variable, and byte-identity gates compare
two passes of the same code in one process.

``FULL`` holds the benchmark's sizes and ``TINY`` the smoke test's.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable

import numpy as np
from scipy import stats

from ghzverify import adversary, analytics, cli, protocol, qstate, sources

Z = 4.0  # standard errors a Monte Carlo estimate may stray from its reference
# the two-sided probability of straying Z standard errors from a normal mean
ALPHA = 2.0 * stats.norm.sf(Z)
EXACT_TOL = 1e-9

XY_OPTIMUM = math.cos(math.pi / 8) ** 2


@dataclass
class Job:
    """One call into the package plus the gate its output must pass."""

    name: str
    ops: int
    run: Callable[[], Any]
    check: Callable[[Any, dict], list]
    expect: dict = field(default_factory=dict)
    # values the job reports for the run record and the trace
    facts: dict = field(default_factory=dict)


@dataclass
class Workload:
    name: str
    jobs: list[Job]


FULL = {
    "honest-scale": {"n3": 150, "n6": 50, "n10": 16, "n10_jobs": 6, "n10_rounds": 12, "pure": 60},
    "cheat-sweep": {"curves": 400, "verify": 600, "profile": 250, "points": 8},
    "session-export": {"session": 2000},
    "exact-analysis": {"settings": 96, "grid": 24},
}
TINY = {
    "honest-scale": {"n3": 40, "n6": 30, "n10": 20, "n10_jobs": 1, "n10_rounds": 20, "pure": 20},
    "cheat-sweep": {"curves": 60, "verify": 60, "profile": 30, "points": 3},
    "session-export": {"session": 400},
    "exact-analysis": {"settings": 16, "grid": 3},
}


# ---------------------------------------------------------------------------
# gates


def binomial_gate(label: str, estimate: float, valid: int, p: float) -> list:
    """Fail when ``estimate`` of ``valid`` rounds is as unlikely under pass
    probability ``p`` as Z standard errors.

    The tails are exact: near p = 1 with few rounds the normal approximation
    is too narrow (24 rounds at p = 0.973 would fail 0.4% of correct runs).
    """
    if valid < 1:
        return [f"{label}: no valid rounds"]
    passes = round(estimate * valid)
    tail = min(stats.binom.cdf(passes, valid, p), stats.binom.sf(passes - 1, valid, p))
    if tail < ALPHA / 2.0:
        return [f"{label}: {passes}/{valid} rounds passed, expected probability {p:.6f} "
                f"(tail {tail:.3g} < {ALPHA / 2.0:.3g})"]
    return []


# The cheat curves are restated here rather than imported, so the gates do
# not take their reference values from the code under test.


def theta_curve(lam: float) -> float:
    """The theta protocol's best non-GME pass probability, 1/2 + sin(a)/(2a)."""
    a = math.pi * (1.0 - lam) / 2.0
    return 0.5 + math.sin(a) / (2.0 * a)


def xy_curve(lam: float) -> float:
    """The xy protocol's best non-GME pass probability at loss rate lam."""
    return (lam + (1.0 - 2.0 * lam) * XY_OPTIMUM) / (1.0 - lam)


# ---------------------------------------------------------------------------
# CLI jobs


def run_cli(argv: list) -> int:
    """Run the CLI in this process with its stderr report discarded."""
    with contextlib.redirect_stderr(io.StringIO()):
        code = cli.main([str(a) for a in argv])
    if code not in (0, 2):
        raise RuntimeError(f"ghzverify {argv[0]} exited with {code}")
    return code


def verify_job(name, tmp: Path, n, kind, rounds, seed, source, strategy, expect) -> Job:
    out = tmp / f"{name}.json"
    argv = ["verify", "--parties", n, "--protocol", kind, "--rounds", rounds,
            "--seed", seed, "--source", source, "--strategy", strategy, "--out", out]

    def run():
        run_cli(argv)
        return json.loads(out.read_text())["stats"]

    def check(stats, exp):
        fails = binomial_gate(name, stats["estimate"], stats["valid_rounds"], exp["pass"])
        if "exact" in exp and abs(exp["exact"] - exp["pass"]) > EXACT_TOL:
            fails.append(f"{name}: exact pass probability {exp['exact']} vs closed form {exp['pass']}")
        return fails

    return Job(name, rounds, run, check, expect)


# ---------------------------------------------------------------------------
# honest-scale


def honest_scale(seed: int, tmp: Path, size: dict) -> Workload:
    """All parties honest: density sources at n = 3, 6, 10 through ``verify``,
    an n = 10 source prepared during set-up through ``estimate_pass_probability``,
    and pure GHZ states through ``estimate_pass_probability``."""
    rng = np.random.default_rng(seed)
    jobs = []
    combos = [(n, fam, kind) for n in (3, 6) for fam in ("dephased", "depolarized")
              for kind in ("theta", "xy")]
    # Preparing an n=10 source costs ~0.9 s, mostly validating the 1024x1024
    # density matrix.  One verify job keeps that path in the pass; the other
    # n=10 rounds sample a state prepared here, so that sampling does more of
    # the work than preparation.
    combos.append((10, "dephased", "theta"))
    for n, fam, kind in combos:
        key, pass_p = _noisy_source(fam, rng)
        expect = {"pass": pass_p}
        if n <= 6:
            # the all-honest pass probability is 1/2 + Re rho[0, 2^n - 1]; at
            # n <= 6 the package's exact value must agree with it
            expect["exact"] = protocol.exact_pass_probability(
                sources.prepare(sources.from_key(key, n)), kind)
        jobs.append(verify_job(f"verify-{fam}-n{n}-{kind}", tmp, n, kind, size[f"n{n}"],
                               int(rng.integers(1, 2**31)), key, "honest", expect))
    key, pass_p = _noisy_source("depolarized", rng)
    rho10 = sources.prepare(sources.from_key(key, 10))
    for i in range(size["n10_jobs"]):
        kind = ("theta", "xy")[i % 2]
        jobs.append(estimate_job(f"estimate-depolarized-n10-{kind}-{i}", rho10, kind,
                                 size["n10_rounds"], int(rng.integers(1, 2**31)), pass_p))
    for n in range(2, 7):
        state = qstate.ghz_state(n)
        for kind in ("theta", "xy"):
            # every round of a pure GHZ state passes
            jobs.append(estimate_job(f"pure-ghz-n{n}-{kind}", state, kind, size["pure"],
                                     int(rng.integers(1, 2**31)), 1.0))
    return Workload("honest-scale", jobs)


def _noisy_source(family: str, rng: np.random.Generator) -> tuple[str, float]:
    """A random source key of the family and its all-honest pass probability."""
    if family == "dephased":
        p = float(rng.uniform(0.05, 0.3))
        return f"dephased-ghz:p={p!r}", 1.0 - p / 2.0
    v = float(rng.uniform(0.7, 0.95))
    return f"depolarized-ghz:v={v!r}", 0.5 + v / 2.0


def estimate_job(name, state, kind, rounds, seed, pass_p) -> Job:
    def run():
        return protocol.estimate_pass_probability(state, None, kind, rounds, seed)

    def check(stats, exp):
        return binomial_gate(name, stats.estimate, stats.valid, exp["pass"])

    return Job(name, rounds, run, check, {"pass": pass_p})


# ---------------------------------------------------------------------------
# cheat-sweep


CURVE_GRID = (0.0, 0.1, 0.2, 0.3, 0.4, 0.5)  # the CLI's default lambda grid


def cheat_sweep(seed: int, tmp: Path, size: dict) -> Workload:
    """Dishonest coalitions at n = 3: ``curves``, one ``verify`` per cheating
    strategy, and ``dishonest-angle-profile``."""
    rng = np.random.default_rng(seed)
    jobs = [_curves_job(tmp, size["curves"], int(rng.integers(1, 2**31)))]
    p = float(rng.uniform(0.05, 0.3))
    lam = float(rng.uniform(0.1, 0.3))
    strategies = [
        ("xy-perfect-loss50", "xy", "ideal-ghz", 1.0),
        ("xy-naive-loss", "xy", "ideal-ghz", 1.0),
        ("xy-rotated-bell", "xy", "ideal-ghz", XY_OPTIMUM),
        ("product-guesser", "theta", "ideal-ghz", theta_curve(0.0)),
        # measuring a dephased GHZ source scales the honest coherence by 1 - p
        (f"projective-cheat:lam={lam!r}", "theta", f"dephased-ghz:p={p!r}",
         0.5 + (1.0 - p) * (theta_curve(lam) - 0.5)),
    ]
    for strategy, kind, source, pass_p in strategies:
        name = "verify-" + strategy.split(":")[0]
        jobs.append(verify_job(name, tmp, 3, kind, size["verify"],
                               int(rng.integers(1, 2**31)), source, strategy, {"pass": pass_p}))
    jobs.append(_profile_job(tmp, size["profile"], size["points"],
                             float(rng.uniform(0.0, math.pi)), int(rng.integers(1, 2**31))))
    return Workload("cheat-sweep", jobs)


def _curves_job(tmp: Path, rounds: int, seed: int) -> Job:
    out = tmp / "curves.csv"
    argv = ["curves", "--parties", 3, "--rounds", rounds, "--seed", seed, "--out", out]
    expect = {}
    for lam in CURVE_GRID:
        expect[f"theta@{lam}"] = theta_curve(lam)
        expect[f"xy@{lam}"] = xy_curve(lam)

    def run():
        run_cli(argv)
        return list(csv.DictReader(out.read_text().splitlines()))

    def check(rows, exp):
        fails = []
        if [float(r["lambda"]) for r in rows] != list(CURVE_GRID):
            return [f"curves: lambda column {[r['lambda'] for r in rows]}"]
        for row, lam in zip(rows, CURVE_GRID):
            for kind in ("theta", "xy"):
                p = exp[f"{kind}@{lam}"]
                est = float(row[f"simulated_{kind}_cheat"])
                se = float(row[f"simulated_{kind}_cheat_stderr"])
                # the CSV omits the valid-round count; its stderr encodes it
                valid = round(est * (1.0 - est) / se**2) if se > 0.0 else rounds
                fails += binomial_gate(f"curves {kind} lambda={lam}", est, valid, p)
                if abs(float(row[f"{kind}_bound"]) - p) > EXACT_TOL:
                    fails.append(f"curves {kind}_bound at {lam}: {row[f'{kind}_bound']} vs {p}")
        return fails

    return Job("curves", 2 * len(CURVE_GRID) * rounds, run, check, expect)


def _profile_job(tmp: Path, rounds: int, points: int, theta_prime: float, seed: int) -> Job:
    out = tmp / "profile.csv"
    argv = ["dishonest-angle-profile", "--parties", 3, "--rounds", rounds, "--seed", seed,
            "--angle-points", points, "--theta-prime", repr(theta_prime), "--out", out]
    thetas = [math.pi * i / points for i in range(points)]
    expect = {f"pass@{i}": 0.5 + 0.5 * abs(math.cos(theta_prime - t)) for i, t in enumerate(thetas)}

    def run():
        run_cli(argv)
        return list(csv.DictReader(out.read_text().splitlines()))

    def check(rows, exp):
        if len(rows) != points:
            return [f"profile: {len(rows)} rows, expected {points}"]
        fails = []
        for i, row in enumerate(rows):
            p = exp[f"pass@{i}"]
            if abs(float(row["optimal_pass"]) - p) > EXACT_TOL:
                fails.append(f"profile optimal_pass at row {i}: {row['optimal_pass']} vs {p}")
            fails += binomial_gate(f"profile row {i}", float(row["simulated_pass"]), rounds, p)
        return fails

    return Job("dishonest-angle-profile", points * rounds, run, check, expect)


# ---------------------------------------------------------------------------
# session-export


SESSION_SUFFIXES = (".messages.jsonl", ".records.jsonl", ".summary.json")


def session_export(seed: int, tmp: Path, size: dict) -> Workload:
    """``session`` at n = 3 with lossy strategies, writing its three files."""
    rng = np.random.default_rng(seed)
    rounds = size["session"]
    runs = [
        ("xy-mixed", "xy", "xy-mixed:lam=0.2", xy_curve(0.2), False),
        ("xy-naive-loss", "xy", "xy-naive-loss", 1.0, True),
        ("theta-rotated-bell", "theta", "theta-rotated-bell:lam=0.3", theta_curve(0.3), False),
    ]
    jobs = [
        _session_job(name, tmp, kind, strategy, rounds, int(rng.integers(1, 2**31)),
                     {"pass": pass_p}, flagged)
        for name, kind, strategy, pass_p, flagged in runs
    ]
    return Workload("session-export", jobs)


def _session_job(name, tmp, kind, strategy, rounds, seed, expect, must_flag) -> Job:
    prefix = tmp / f"session-{name}"
    argv = ["session", "--parties", 3, "--protocol", kind, "--strategy", strategy,
            "--rounds", rounds, "--seed", seed, "--lambda-max", 0.6, "--out", prefix]
    first_digests: dict = {}

    def run():
        run_cli(argv)
        files = {}
        for suffix in SESSION_SUFFIXES:
            path = Path(f"{prefix}{suffix}")
            data = path.read_bytes()
            files[suffix] = {"bytes": len(data), "sha256": hashlib.sha256(data).hexdigest()}
            if suffix == ".messages.jsonl":
                files[suffix]["lines"] = data.count(b"\n")
            path.unlink()
            if suffix == ".summary.json":
                summary = json.loads(data)
        return {"files": files, "summary": summary}

    def check(out, exp):
        stats, audits = out["summary"]["stats"], out["summary"]["audits"]
        fails = binomial_gate(f"session {name}", stats["estimate"], stats["valid_rounds"], exp["pass"])
        if must_flag and not any(a["status"] == "flagged" for a in audits.values()):
            fails.append(f"session {name}: the loss audit flagged no party")
        digests = {s: f["sha256"] for s, f in out["files"].items()}
        if not first_digests:
            first_digests.update(digests)
        elif digests != first_digests:
            fails.append(f"session {name}: files differ between two passes at the same seed")
        job.facts["files"] = out["files"]
        return fails

    job = Job(f"session-{name}", rounds, run, check, expect)
    return job


# ---------------------------------------------------------------------------
# exact-analysis


def random_density(n: int, rng: np.random.Generator) -> qstate.DensityMatrix:
    d = 2**n
    g = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    mat = g @ g.conj().T
    return qstate.DensityMatrix(n, mat / np.trace(mat).real)


def random_pure(n: int, rng: np.random.Generator) -> qstate.PureState:
    v = rng.normal(size=2**n) + 1j * rng.normal(size=2**n)
    return qstate.PureState(n, v / np.linalg.norm(v))


def random_theta_assignments(n: int, count: int, rng: np.random.Generator) -> list:
    free = rng.uniform(0.0, np.pi, (count, n - 1))
    last = (-free.sum(axis=1)) % np.pi
    return [tuple(row) + (float(x),) for row, x in zip(free.tolist(), last.tolist())]


def exact_analysis(seed: int, tmp: Path, size: dict) -> Workload:
    """No Monte Carlo: exact pass, setting, guess and fidelity evaluations on
    random states, plus verdicts and loss tolerances on a grid."""
    rng = np.random.default_rng(seed)
    jobs = []
    for n in range(2, 10):
        jobs.append(_density_job(f"density-n{n}", random_density(n, rng),
                                 random_theta_assignments(n, size["settings"], rng)))
    for n in range(3, 8):
        psi = random_pure(n, rng)
        for d in range(1, n):
            dishonest = sorted(int(j) for j in rng.choice(np.arange(1, n), size=d, replace=False))
            jobs.append(_coalition_job(psi, adversary.Coalition(n, dishonest)))
    jobs.append(_analytics_job(rng, size["grid"]))
    return Workload("exact-analysis", jobs)


# Above this size the GHZ fidelity's two 2^n x 2^n eigendecompositions would
# outweigh the setting loops the workload exists to measure (at n = 9 one call
# takes ~0.3 s, about 70% of a pass).
FIDELITY_MAX_N = 7


def ghz_overlap(rho: qstate.DensityMatrix) -> float:
    """<GHZ|rho|GHZ>, which is the squared fidelity with the GHZ state."""
    m = rho.entries
    return float((m[0, 0].real + m[-1, -1].real) / 2.0 + m[0, -1].real)


def _density_job(name, rho, assignments) -> Job:
    target = qstate.ghz_state(rho.n).to_density() if rho.n <= FIDELITY_MAX_N else None

    def run():
        p_theta = protocol.exact_pass_probability(rho, "theta")
        p_xy = protocol.exact_pass_probability(rho, "xy")
        values = [qstate.setting_pass_probability(rho, a) for a in assignments]
        return p_theta, p_xy, values, None if target is None else qstate.fidelity(rho, target)

    def check(out, exp):
        p_theta, p_xy, values, fid = out
        overlap = ghz_overlap(rho)
        fails = [f"{name}: F = {overlap} < 2P - 1 = {2 * p - 1}"
                 for p in (p_theta, p_xy) if overlap < 2.0 * p - 1.0 - EXACT_TOL]
        if fid is not None and abs(fid - overlap) > 1e-6:
            fails.append(f"{name}: fidelity {fid} vs GHZ overlap {overlap}")
        mean = float(np.mean(values))
        stderr = float(np.std(values)) / math.sqrt(len(values))
        if abs(mean - p_theta - exp["theta_offset"]) > Z * stderr + EXACT_TOL:
            fails.append(f"{name}: setting average {mean} vs exact theta {p_theta} (stderr {stderr})")
        return fails

    # the offsets let the smoke test move a reference and see the gate trip
    ops = 2 + len(assignments) + (target is not None)
    return Job(name, ops, run, check, {"theta_offset": 0.0})


def _coalition_job(psi, coalition) -> Job:
    name = f"coalition-n{coalition.n}-d{coalition.n - coalition.k}"

    def run():
        return (adversary.xy_optimal_pass_probability(psi, coalition),
                adversary.averaged_guess_probability(psi, coalition),
                adversary.best_dishonest_fidelity(psi, coalition))

    def check(out, exp):
        xy_opt, guess, fid = out
        fails = []
        if guess > 0.75 + 0.25 * fid + exp["bound_offset"] + 1e-6:
            fails.append(f"{name}: guess {guess} > 3/4 + F'/4 = {0.75 + 0.25 * fid}")
        if not 0.5 - EXACT_TOL <= xy_opt <= 1.0 + EXACT_TOL:
            fails.append(f"{name}: xy optimal pass probability {xy_opt} outside [1/2, 1]")
        return fails

    return Job(name, 3, run, check, {"bound_offset": 0.0})


def _analytics_job(rng, points: int) -> Job:
    cases = []
    for _ in range(points):
        # above every zero-loss threshold, so max_tolerable_loss is defined
        est = float(rng.uniform(0.86, 0.995))
        valid = int(rng.integers(500, 20_000))
        stats = protocol.PassStats(valid, round(est * valid), est,
                                   math.sqrt(est * (1 - est) / valid), (0.0, 0.0, 0.0))
        for kind in ("theta", "xy"):
            for trust in ("all-honest", "dishonest-allowed"):
                cases.append((stats, kind, trust, float(rng.uniform(0.0, 0.5))))

    def threshold(kind, trust, lam, exp):
        if trust == "all-honest":
            return exp["honest_threshold"]
        return theta_curve(lam) if kind == "theta" else xy_curve(lam)

    def run():
        return [(analytics.verdict(stats, kind, trust, lam, 3.0),
                 analytics.max_tolerable_loss(stats.estimate, kind, trust))
                for stats, kind, trust, lam in cases]

    def check(out, exp):
        fails = []
        for (stats, kind, trust, lam), (v, tol_lam) in zip(cases, out):
            thr = threshold(kind, trust, lam, exp)
            verified = stats.estimate > thr + 3.0 * stats.stderr
            if abs(v.threshold - thr) > EXACT_TOL or (v.decision == "GME-VERIFIED") != verified:
                fails.append(f"verdict {kind}/{trust} at {stats.estimate}: {v.decision}")
            hi = 0.5 if kind == "xy" else 1.0 - 1e-9
            if trust == "all-honest":
                ok = tol_lam == hi
            else:
                ok = tol_lam == hi or abs(threshold(kind, trust, tol_lam, exp) - stats.estimate) < 1e-6
            if not ok:
                fails.append(f"max_tolerable_loss {kind}/{trust} at {stats.estimate}: {tol_lam}")
        return fails

    return Job("analytics-grid", 0, run, check, {"honest_threshold": 0.75})


BUILDERS = {
    "honest-scale": honest_scale,
    "cheat-sweep": cheat_sweep,
    "session-export": session_export,
    "exact-analysis": exact_analysis,
}


def build(name: str, seed: int, tmp: Path, tiny: bool = False) -> Workload:
    return BUILDERS[name](seed, tmp, (TINY if tiny else FULL)[name])
