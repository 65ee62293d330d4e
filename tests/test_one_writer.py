"""The package writes files in one place, ``cli._write_file``.

Outside it no module of the package calls ``write_text`` or ``write_bytes``
or opens a file for writing: an ``open`` or ``fdopen`` call (builtin, ``io``,
``os``, ``Path.open``) whose mode holds ``w``, ``a``, ``x`` or ``+``, that
names a writing ``os.O_*`` flag, or that is given an ``opener``.
"""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WRITER = ("cli", "_write_file")
WRITE_METHODS = {"write_text", "write_bytes"}
OPENERS = {"open", "fdopen"}
WRITE_FLAGS = {"O_WRONLY", "O_RDWR", "O_CREAT", "O_TRUNC", "O_APPEND"}


def _name(node) -> str | None:
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    return None


def _opens_for_writing(call: ast.Call) -> bool:
    if any(k.arg == "opener" for k in call.keywords):
        return True
    for arg in call.args + [k.value for k in call.keywords]:
        for node in ast.walk(arg):
            if _name(node) in WRITE_FLAGS:
                return True
            if (isinstance(node, ast.Constant) and isinstance(node.value, str)
                    and re.fullmatch(r"[rwxabt+]*[wax+][rwxabt+]*", node.value)):
                return True
    return False


def writes(source: str, module: str) -> list[str]:
    """``module.function:line`` of each write outside the one writer."""
    found = []

    def visit(node, where):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            where = node.name if where is None else where
        if isinstance(node, ast.Call) and (module, where) != WRITER:
            name = _name(node.func)
            if name in WRITE_METHODS or (name in OPENERS and _opens_for_writing(node)):
                found.append(f"{module}.{where}:{node.lineno}")
        for child in ast.iter_child_nodes(node):
            visit(child, where)

    visit(ast.parse(source), None)
    return found


def test_the_scan_finds_each_kind_of_write():
    source = (
        "def f(p, t):\n"
        "    Path(p).write_text(t)\n"
        "    p.write_bytes(t)\n"
        "    open(p, 'w')\n"
        "    io.open(p, mode='a')\n"
        "    p.open('r+')\n"
        "    os.open(p, os.O_WRONLY | os.O_CREAT)\n"
        "    os.fdopen(3, 'wb')\n"
        "    open(p, opener=o)\n"
        "    open(p).read(); p.open(); Path(p).read_text(); os.open(p, os.O_RDONLY)\n"
    )
    assert writes(source, "m") == [f"m.f:{line}" for line in range(2, 10)]
    assert writes(source.replace("def f", "def _write_file"), "cli") == []


def test_the_package_writes_files_only_through_the_one_writer():
    package = sorted((ROOT / "src" / "ghzverify").glob("*.py"))
    assert package
    found = [w for path in package for w in writes(path.read_text(), path.stem)]
    assert found == []
