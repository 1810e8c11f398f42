"""The README's quickstart snippets run as written."""

from __future__ import annotations

import contextlib
import io
import re
from pathlib import Path

import pytest

README = Path(__file__).resolve().parent.parent / "README.md"
BLOCKS = re.findall(r"^```python\n(.*?)^```", README.read_text(encoding="utf-8"),
                    flags=re.S | re.M)


@pytest.mark.parametrize("index", [0, 1], ids=["library", "python-api"])
def test_quickstart_block_runs(index):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(BLOCKS[index], f"README.md python block {index}", "exec"), {})
    assert index == 0 or "stretch6" in out.getvalue()
