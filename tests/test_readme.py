"""The README's Library example runs and prints what its comments say."""

import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_library_example_prints_its_comments():
    block = re.search(r"^## Library\n+```python\n(.*?)^```", README.read_text(),
                      re.M | re.S).group(1)
    expected = [line.partition("#")[2].strip()
                for line in block.splitlines() if line.startswith("print(")]
    printed = []
    exec(block, {"print": lambda *args: printed.append(" ".join(map(str, args)))})
    assert expected and all(expected)
    assert printed == expected
