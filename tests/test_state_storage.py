"""Only ``qstate`` reads how a state is stored.

Outside it no module of the package reads an attribute named
``amplitudes``, ``entries``, ``weight``, ``background``, ``coherence`` or
``anti_diagonal``, or tests ``isinstance`` against a state class.  Two
readers are exempt: the ``sources`` family builders, which build records
from the fields of ``qstate.ghz_diagonal(n)``, and ``adversary._pure_corner``,
whose Helstrom forms need a ``PureState``.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OWNER = "qstate"
STORAGE = {"amplitudes", "entries", "weight", "background", "coherence", "anti_diagonal"}
STATE_CLASSES = {"PureState", "DensityMatrix", "GhzDiagonal"}
_RECORD_FIELDS = {"weight", "background", "coherence"}
EXEMPT = {
    ("sources", "_dephased"): _RECORD_FIELDS,
    ("sources", "_depolarized"): _RECORD_FIELDS,
    ("adversary", "_pure_corner"): {"isinstance PureState"},
}


def _name(node) -> str | None:
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    return None


def reads(source: str, module: str) -> list[str]:
    """``module.function:line what`` of each storage read outside the
    exemptions, ``what`` an attribute name or ``isinstance <class>``."""
    found = []

    def note(where, what, line):
        if what not in EXEMPT.get((module, where), ()):
            found.append(f"{module}.{where}:{line} {what}")

    def visit(node, where):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            where = node.name if where is None else where
        if isinstance(node, ast.Attribute) and node.attr in STORAGE:
            note(where, node.attr, node.lineno)
        if isinstance(node, ast.Call) and _name(node.func) == "isinstance" and len(node.args) == 2:
            for sub in ast.walk(node.args[1]):
                if _name(sub) in STATE_CLASSES:
                    note(where, f"isinstance {_name(sub)}", node.lineno)
        for child in ast.iter_child_nodes(node):
            visit(child, where)

    visit(ast.parse(source), None)
    return found


def test_the_scan_finds_each_kind_of_read():
    source = (
        "def f(s):\n"
        "    s.amplitudes[0]\n"
        "    s.entries\n"
        "    s.weight + s.background\n"
        "    s.coherence.conjugate()\n"
        "    s.anti_diagonal\n"
        "    isinstance(s, GhzDiagonal)\n"
        "    isinstance(s, (int, qstate.DensityMatrix))\n"
        "    isinstance(s, PureState)\n"
        "    s.n; s.dishonest; isinstance(s, int); weight = 1\n"
    )
    assert reads(source, "m") == [
        "m.f:2 amplitudes", "m.f:3 entries", "m.f:4 weight", "m.f:4 background",
        "m.f:5 coherence", "m.f:6 anti_diagonal", "m.f:7 isinstance GhzDiagonal",
        "m.f:8 isinstance DensityMatrix", "m.f:9 isinstance PureState",
    ]
    builder = "def _dephased(n):\n    ghz.weight; ghz.entries\n"
    assert reads(builder, "sources") == ["sources._dephased:2 entries"]
    check = "def _pure_corner(s):\n    isinstance(s, PureState); isinstance(s, GhzDiagonal)\n"
    assert reads(check, "adversary") == ["adversary._pure_corner:2 isinstance GhzDiagonal"]


def test_only_qstate_reads_how_a_state_is_stored():
    package = sorted((ROOT / "src" / "ghzverify").glob("*.py"))
    assert package
    found = [r for path in package if path.stem != OWNER
             for r in reads(path.read_text(), path.stem)]
    assert found == []
