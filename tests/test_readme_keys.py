"""README's source-key and strategy-key tables list every key the package
parses: each key of ``sources.SOURCE_KEYS`` and ``adversary.STRATEGIES``,
and ``honest``, heads a row."""

import re
from pathlib import Path

from ghzverify import adversary, sources

README = Path(__file__).resolve().parent.parent / "README.md"


def table_keys(heading: str) -> set[str]:
    """The key names, before any ``:``, that head the rows of the table under
    ``### <heading>``."""
    section = README.read_text().split(f"### {heading}\n", 1)[1].split("\n#", 1)[0]
    return set(re.findall(r"^\| `([\w-]+)[:`]", section, flags=re.MULTILINE))


def test_readme_key_tables_list_every_key():
    assert set(sources.SOURCE_KEYS) <= table_keys("Source keys")
    assert set(adversary.STRATEGIES) | {"honest"} <= table_keys("Strategy keys")
