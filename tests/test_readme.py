"""README's Python quick tour runs as written, and prints the values its comments give."""

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_quick_tour_runs():
    section = README.read_text().split("\n## Library quick tour\n", 1)[1]
    block = section.split("```python\n", 1)[1].split("```", 1)[0]
    env: dict = {}
    exec(compile(block, "README quick tour", "exec"), env)
    checked = 0
    for line in block.splitlines():
        # a line `expr  # 0.2876820...` shows the leading digits of its value
        shown = re.fullmatch(r"(\S.*?)\s+# (\d+\.\d+)\.\.\.", line)
        if shown:
            assert repr(eval(shown[1], env)).startswith(shown[2]), line
            checked += 1
    assert checked == 3
    assert env["policy"].support == (0, 1, 2)
