"""README's Python examples run as written: each fenced python block, on its own."""

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_python_blocks_run():
    text = README.read_text(encoding="utf-8")
    blocks = list(re.finditer(r"^```python\n(.*?)^```$", text, re.M | re.S))
    assert blocks, "README.md has no python block"
    for block in blocks:
        # padded to its README line, so that a traceback points into README.md
        line = text.count("\n", 0, block.start(1))
        exec(compile("\n" * line + block[1], str(README), "exec"), {"__name__": "__readme__"})
