"""The README's code runs as written."""

import pathlib
import re

README = pathlib.Path(__file__).resolve().parent.parent / "README.md"


def readme_python_block(section: str) -> str:
    """The first ```python block under the README heading `## {section}`."""
    text = README.read_text()
    start = text.index(f"\n## {section}\n")
    match = re.compile(r"```python\n(.*?)```", re.S).search(text, start)
    assert match is not None, f"no python block under {section!r}"
    return match.group(1)


def test_readme_library_example_runs(capsys):
    exec(compile(readme_python_block("Library use"), str(README), "exec"), {})
    out = capsys.readouterr().out
    assert out.startswith("federated: (") and "\noffline: ((" in out
