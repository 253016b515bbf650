"""The examples stay runnable (fast ones run here end to end)."""

import importlib.util
import re
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
EXAMPLES = ROOT / "examples"


def _run_example(name: str) -> None:
    path = EXAMPLES / f"{name}.py"
    spec = importlib.util.spec_from_file_location(f"example_{name}",
                                                  path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    try:
        spec.loader.exec_module(module)
        module.main()
    finally:
        sys.modules.pop(spec.name, None)


@pytest.mark.parametrize("name", [
    "quickstart",
    "simulated_kernels",
    "auto_parallelization",
])
def test_fast_example_runs(name, capsys):
    _run_example(name)
    out = capsys.readouterr().out
    assert out.strip()


def test_all_examples_exist():
    names = {path.stem for path in EXAMPLES.glob("*.py")}
    assert {
        "quickstart", "ddc_pipeline", "wlan_receiver",
        "stereo_vision", "mpeg4_encoder",
        "design_space_exploration", "auto_parallelization",
        "simulated_kernels",
    } <= names


def test_readme_quickstart_runs(capsys):
    """The README's first Quickstart block runs as written."""
    readme = (ROOT / "README.md").read_text()
    section = readme.split("## Quickstart", 1)[1].split("\n## ", 1)[0]
    block = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    exec(compile(block, "README.md:Quickstart", "exec"), {})
    out = capsys.readouterr().out
    assert "0 misses" in out
