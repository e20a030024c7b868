"""Run the python code blocks of README.md in order, in one namespace.

    python tests/readme_examples.py            # exit 0 iff every block runs

A later block may use the names an earlier one defined, as a reader running
them in turn would. The first block that raises stops the run with its
traceback, which names the block by its number. `oscilab` is imported from
wherever Python finds it, so run against an installed package the blocks
check the names it exports.
"""

from __future__ import annotations

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"
PYTHON_BLOCK = re.compile(r"^```python\n(.*?)^```$", re.DOTALL | re.MULTILINE)


def python_blocks(text: str) -> list[str]:
    return PYTHON_BLOCK.findall(text)


def run(path: Path = README) -> int:
    """Execute the blocks of `path` in order; return how many ran."""
    blocks = python_blocks(path.read_text())
    namespace = {"__name__": "__readme__"}
    for number, block in enumerate(blocks, 1):
        exec(compile(block, f"{path.name} python block {number}", "exec"), namespace)
    return len(blocks)


if __name__ == "__main__":
    print(f"{run()} README python blocks ran")
