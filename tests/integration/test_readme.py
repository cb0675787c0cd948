"""The README's quickstart snippet must actually run."""

import os
import re

README = os.path.join(os.path.dirname(__file__), "..", "..", "README.md")


def test_readme_quickstart_executes():
    with open(README, encoding="utf-8") as fh:
        text = fh.read()
    blocks = re.findall(r"```python\n(.*?)```", text, re.DOTALL)
    assert blocks, "README must contain a python quickstart block"
    quickstart = blocks[0]
    assert "Cluster" in quickstart
    exec(compile(quickstart, "README-quickstart", "exec"), {})


def test_readme_mentions_all_deliverables():
    with open(README, encoding="utf-8") as fh:
        text = fh.read()
    for needle in (
        "DESIGN.md",
        "EXPERIMENTS.md",
        "pytest tests/",
        "python -m repro figures",
        "examples/",
    ):
        assert needle in text, f"README must mention {needle}"
