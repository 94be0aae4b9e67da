"""Each ```python block of README.md runs to completion, so the README
cannot show a call the library no longer accepts, and its lists of config
fields name the fields ExperimentConfig has."""

import os
import re
import subprocess
import sys
from dataclasses import fields
from pathlib import Path

import pytest

from esnboost.harness import ExperimentConfig

ROOT = Path(__file__).parents[1]
README = (ROOT / "README.md").read_text()
BLOCKS = re.findall(r"^```python\n(.*?)^```", README, re.MULTILINE | re.DOTALL)


def test_readme_has_python_blocks():
    assert BLOCKS, "no ```python blocks in README.md"


@pytest.mark.parametrize("code", BLOCKS,
                         ids=[f"block{i}" for i in range(len(BLOCKS))])
def test_readme_block_runs(code, tmp_path):
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    result = subprocess.run([sys.executable, "-c", code], cwd=tmp_path,
                            env=env, capture_output=True, text=True,
                            timeout=120)
    assert result.returncode == 0, result.stderr


@pytest.mark.parametrize("kind, default_type", [("an integer", int),
                                                ("a float", float)])
def test_harness_bullet_lists_the_config_fields(kind, default_type):
    bullet = re.search(r"^- `esnboost\.harness`:(.*?)(?=^\S|^- )", README,
                       re.MULTILINE | re.DOTALL)[1]
    words = r"\s+".join(f"fields whose default is {kind}".split())
    listed = re.search(rf"{words}\s+\((.*?)\)", bullet, re.DOTALL)[1]
    assert re.findall(r"`(\w+)`", listed) == [
        f.name for f in fields(ExperimentConfig)
        if type(f.default) is default_type]
