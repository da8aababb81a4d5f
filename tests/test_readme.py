"""README's library quick start runs and prints what its comments say."""

import contextlib
import io
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def quick_start() -> str:
    section = README.read_text(encoding="utf-8").split("## Library quick start\n", 1)[1]
    return section.split("```python\n", 1)[1].split("```", 1)[0]


def test_quick_start_prints_what_its_comments_say():
    # each print line ends in a comment that is exactly the line it prints
    code = quick_start()
    expected = [
        line.partition("  # ")[2].strip() for line in code.splitlines() if line.startswith("print(")
    ]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(code, str(README), "exec"), {})
    assert expected and all(expected)
    assert out.getvalue().splitlines() == expected
