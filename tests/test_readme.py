"""The README's library example runs as written, so a change to the API it shows fails here."""

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def library_snippet() -> str:
    """The first Python block under the README's ``## Library`` heading."""
    section = README.read_text(encoding="utf-8").split("\n## Library\n", 1)[1].split("\n## ", 1)[0]
    return re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)


def test_library_snippet_runs(capsys):
    namespace = {}
    exec(compile(library_snippet(), "README.md", "exec"), namespace)
    verdict, head = capsys.readouterr().out.splitlines()
    assert "strongly_connected=True" in verdict  # what the snippet's comment promises
    assert head == "(3, 5, 13, 1, 2, 1)"
