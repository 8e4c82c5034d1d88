"""Every example script imports cleanly.

The caller lint (``tests/test_caller_lint.py``) counts ``examples/`` as
callers, so a deletion under ``src/`` that breaks an example's imports
must fail tier-1. Each example runs only under its ``__main__`` guard,
so importing it runs nothing.
"""

import importlib.util
from pathlib import Path

import pytest

EXAMPLES = sorted((Path(__file__).resolve().parent.parent / "examples").glob("*.py"))


def test_examples_exist():
    assert len(EXAMPLES) >= 5


@pytest.mark.parametrize("path", EXAMPLES, ids=lambda p: p.stem)
def test_example_imports(path):
    assert 'if __name__ == "__main__":' in path.read_text()
    spec = importlib.util.spec_from_file_location(f"example_{path.stem}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
