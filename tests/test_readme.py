import re
from pathlib import Path

import pytest

README = Path(__file__).parent.parent / "README.md"
TEXT = README.read_text(encoding="utf-8")
# (first line number, source padded so tracebacks name README lines)
BLOCKS = [(TEXT.count("\n", 0, m.start(1)) + 1,
           "\n" * TEXT.count("\n", 0, m.start(1)) + m.group(1))
          for m in re.finditer(r"^```python\n(.*?)^```", TEXT, re.M | re.S)]


def test_readme_has_python_examples():
    assert BLOCKS


# ids by ordinal, so that editing the README does not rename them
@pytest.mark.parametrize("line, source", BLOCKS,
                         ids=[f"README.md#{n}" for n in range(1, len(BLOCKS) + 1)])
def test_readme_python_block_runs(line, source):
    exec(compile(source, str(README), "exec"), {})
