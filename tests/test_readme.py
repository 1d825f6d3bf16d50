"""The python blocks of the README run as written, in order, in one
namespace, so an API change cannot leave the documented examples broken."""

import re
from pathlib import Path

import pytest

README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_python_blocks_run():
    text = README.read_text(encoding="utf-8")
    blocks = re.findall(r"^```python\n(.*?)^```", text, flags=re.M | re.S)
    assert len(blocks) == 2  # the library quick start and the axiom check
    namespace = {}
    for block in blocks:
        exec(compile(block, str(README), "exec"), namespace)
    # the quick start's dual value is the attained one
    assert namespace["dual"] == pytest.approx(namespace["risk"].initial)
    assert all(r.passed for r in namespace["reports"])
