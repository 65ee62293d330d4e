"""Resource-state preparation: ideal, noisy, biseparable and pump-calibrated
models of what the (possibly dishonest) source distributes."""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field

from . import qstate
from .qstate import GhzDiagonal, PureState


@dataclass(frozen=True)
class SourceModel:
    """A named resource-state family (a key of ``FAMILIES``) with its
    parameters, checked when the model is built and held as floats."""

    variant: str
    n: int
    params: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.variant not in FAMILIES:
            raise ValueError(f"unknown source variant {self.variant!r}")
        if self.n < 1:
            raise ValueError("party count must be positive")
        syntax = FAMILIES[self.variant][0].format(self.variant)
        check_key_params("source", self.variant, self.params, syntax)
        object.__setattr__(self, "params", {k: float(v) for k, v in self.params.items()})
        for ok, message in FAMILIES[self.variant][1]:
            if not ok(self.n, self.params):
                raise ValueError(message)

    def key(self) -> str:
        """The CLI string key reproducing this model."""
        return format_key(self.variant, dict(sorted(self.params.items())))


def alpha_from_mean_pairs(mean_pairs: float) -> float:
    """Emission amplitude from the mean pair number: sqrt(nbar/(nbar+1))."""
    if mean_pairs < 0.0:
        raise ValueError("mean pair number must be nonnegative")
    return math.sqrt(mean_pairs / (mean_pairs + 1.0))


def higher_order_fidelity(n: int, alpha: float) -> float:
    """GHZ fidelity after double-pair emission up to third order in alpha.

    Four parties: 2*a^4 / (2*a^4 + 5*a^6), which simplifies to 2/(2 + 5*a^2).
    Three parties: a^4 / (a^4 + (11/4)*a^6) = 1/(1 + 11*a^2/4).
    """
    if n not in (3, 4):
        raise ValueError("fidelity model covers 3 or 4 parties only")
    if not 0.0 < alpha < 1.0:
        raise ValueError("alpha must lie in (0, 1)")
    if n == 4:
        return 2.0 / (2.0 + 5.0 * alpha**2)
    return 1.0 / (1.0 + 11.0 * alpha**2 / 4.0)


def calibrate_to_fidelity(n: int, target: float, family: str) -> SourceModel:
    """A noisy-GHZ model whose prepared state has the requested GHZ fidelity.

    Dephased family: fidelity 1 - p/2, so p = 2(1-F) for F in [1/2, 1].
    Depolarized family: fidelity v + (1-v)/2^n, so v = (F - 2^-n)/(1 - 2^-n).
    """
    if family == "dephased":
        if not 0.5 <= target <= 1.0:
            raise ValueError("dephased family reaches fidelities in [1/2, 1] only")
        return SourceModel("dephased-ghz", n, {"p": 2.0 * (1.0 - target)})
    if family == "depolarized":
        floor = 2.0**-n
        if not floor <= target <= 1.0:
            raise ValueError(f"depolarized family reaches fidelities in [{floor}, 1] only")
        return SourceModel("depolarized-ghz", n, {"v": (target - floor) / (1.0 - floor)})
    raise ValueError(f"unknown calibration family {family!r}")


def _dephased(n: int, params: dict) -> GhzDiagonal:
    """The GHZ record with its coherence damped by a factor 1 - p."""
    ghz = qstate.ghz_diagonal(n)
    return GhzDiagonal(n, ghz.weight, ghz.background, ghz.coherence * (1.0 - params["p"]))


def _depolarized(n: int, params: dict) -> GhzDiagonal:
    """The GHZ record mixed towards the maximally mixed state,
    ``v*rho + (1-v)*I/2^n``: ``(w, b, c)`` becomes
    ``(v*w + (1-v)/2^n, v*b + (1-v)/2^n, v*c)``."""
    ghz, v = qstate.ghz_diagonal(n), params["v"]
    white = (1.0 - v) / 2**n
    return GhzDiagonal(n, v * ghz.weight + white, v * ghz.background + white, v * ghz.coherence)


def _biseparable(n: int, params: dict) -> PureState:
    # checked here, so that the error names n rather than a factor's count
    qstate.check_qubits(n, qstate.MAX_PURE_QUBITS)
    # the unentangled qubit goes to the last (dishonest) party
    return qstate.tensor(qstate.ghz_state(n - 1), qstate.plus_state(1))


def _rotated_bell(n: int, params: dict) -> PureState:
    qstate.check_qubits(n, qstate.MAX_PURE_QUBITS)
    return qstate.tensor(qstate.ghz_state(2, params["theta"]), qstate.plus_state(n - 2))


def _pumped(n: int, params: dict) -> GhzDiagonal:
    """A dephased surrogate matching the pump model's fidelity; the
    verification analyses depend on the state only through GHZ overlaps."""
    fid = higher_order_fidelity(n, params["alpha"])
    return prepare(calibrate_to_fidelity(n, fid, "dephased"))


_PUMP_SYNTAX = "{0}:alpha=<0..1> or {0}:mean-pairs=<mean pair number>"

# variant: (key syntax, with {} for the name, listing the model's
# parameters; checks, each a test of (n, params) and its error message;
# builder of the state from (n, params))
FAMILIES = {
    "ideal-ghz": ("{}", [], lambda n, p: qstate.ghz_diagonal(n)),
    "dephased-ghz": (
        "{}:p=<0..1>",
        [(lambda n, p: 0.0 <= p["p"] <= 1.0, "dephasing probability must lie in [0, 1]")],
        _dephased,
    ),
    "depolarized-ghz": (
        "{}:v=<0..1>",
        [(lambda n, p: 0.0 <= p["v"] <= 1.0, "visibility must lie in [0, 1]")],
        _depolarized,
    ),
    "biseparable-ghz-plus": (
        "{}",
        [(lambda n, p: n >= 3, "the biseparable model needs at least 3 parties")],
        _biseparable,
    ),
    "rotated-bell-plus": (
        "{}:theta=<radians>",
        [(lambda n, p: n >= 3, "the rotated-Bell model needs at least 3 parties")],
        _rotated_bell,
    ),
    "higher-order-calibrated": (
        "{}:alpha=<0..1>",
        [
            (lambda n, p: n in (3, 4), "the pump model covers 3 or 4 parties only"),
            (lambda n, p: 0.0 < p["alpha"] < 1.0, "alpha must lie in (0, 1)"),
        ],
        _pumped,
    ),
}


def prepare(model: SourceModel) -> PureState | GhzDiagonal:
    """Build the state a source of the given model distributes: a
    ``GhzDiagonal`` record for the ideal, dephased, depolarized and
    higher-order families, and the ``PureState`` vector of the biseparable
    and rotated-Bell families, which are pure."""
    return FAMILIES[model.variant][2](model.n, model.params)


def split_key(key: str, what: str) -> tuple[str, dict[str, str]]:
    """Split a ``name:k=v,...`` key into its name and raw parameter values;
    ``what`` names the kind of key in error messages."""
    name, _, spec = key.partition(":")
    params: dict[str, str] = {}
    if spec:
        for item in spec.split(","):
            pkey, _, pval = item.partition("=")
            pkey, pval = pkey.strip(), pval.strip()
            if not pval:
                raise ValueError(f"malformed {what} parameter {item!r}")
            if pkey in params:
                raise ValueError(f"{what} parameter {pkey} given twice in {key!r}")
            params[pkey] = pval
    return name, params


def key_number(value: str, label: str, syntax: str) -> float:
    """``value`` as a finite float, or an error naming ``label`` and the key
    syntax."""
    try:
        number = float(value)
    except ValueError:
        number = math.nan
    if not math.isfinite(number):
        message = f"{label} must be a finite number, got {value!r}; key syntax: {syntax}"
        raise ValueError(message)
    return number


def key_params(syntax: str) -> list[str]:
    """The parameter names, each after a ``:`` or ``,``, that a key syntax
    such as ``{}:p=<0..1>`` lists."""
    return re.findall(r"[:,]([\w-]+)=", syntax)


def check_key_params(what: str, name: str, given, syntax: str, required=None) -> None:
    """Raise on the first name in ``given`` that ``syntax`` does not list,
    then on the first name in ``required`` that ``given`` lacks; ``required``
    defaults to the names before the optional ones, which ``[...]`` holds."""
    required = key_params(syntax.partition("[")[0]) if required is None else required
    listed = key_params(syntax)
    for pname in given:
        if pname not in listed:
            raise ValueError(f"{what} {name!r} takes no parameter {pname}; key syntax: {syntax}")
    for pname in required:
        if pname not in given:
            raise ValueError(f"{what} {name!r} needs parameter {pname}; key syntax: {syntax}")


def format_key(name: str, params: dict) -> str:
    """``name:k=v,...`` over ``params`` in order, values as reprs; ``name`` if empty."""
    inner = ",".join(f"{k}={v!r}" for k, v in params.items())
    return f"{name}:{inner}" if inner else name


# every source key and its syntax: the families, of which the pump family's
# key also takes mean-pairs, and two aliases that ``from_key`` turns into a
# family's model
SOURCE_KEYS = {
    **{variant: family[0] for variant, family in FAMILIES.items()},
    "higher-order-calibrated": _PUMP_SYNTAX,
    "higher-order": _PUMP_SYNTAX,
    "calibrated": "{}:fidelity=<0..1>,family=dephased|depolarized",
}


def from_key(key: str, n: int) -> SourceModel:
    """Parse a CLI source key like ``dephased-ghz:p=0.2`` for n parties.

    ``SOURCE_KEYS`` lists the keys and their syntax.  Errors name the key
    syntax: an unlisted, then a missing, then a non-numeric parameter.
    """
    name, params = split_key(key, "source")
    if name not in SOURCE_KEYS:
        raise ValueError(f"unknown source key {name!r}")
    syntax = SOURCE_KEYS[name].format(name)
    # the pump keys take alpha or mean-pairs, and name mean-pairs given neither
    pump = name in ("higher-order", "higher-order-calibrated")
    required = ["alpha" if "alpha" in params else "mean-pairs"] if pump else None
    check_key_params("source", name, params, syntax, required)
    if pump and len(params) > 1:
        both = "takes alpha or mean-pairs, not both"
        raise ValueError(f"source {name!r} {both}; key syntax: {syntax}")
    label = f"source {name!r} parameter"
    values = {p: key_number(v, f"{label} {p}", syntax) for p, v in params.items() if p != "family"}
    if name == "calibrated":
        return calibrate_to_fidelity(n, values["fidelity"], params["family"])
    if "mean-pairs" in values:
        values = {"alpha": alpha_from_mean_pairs(values["mean-pairs"])}
    return SourceModel("higher-order-calibrated" if pump else name, n, values)
