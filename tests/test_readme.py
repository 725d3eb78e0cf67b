"""The README's quick start runs and prints what its comments say."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def quick_start() -> str:
    text = (ROOT / "README.md").read_text()
    section = text.split("## Quick start", 1)[1]
    return section.split("```python\n", 1)[1].split("```", 1)[0]


def test_quick_start_prints_its_comments():
    code = quick_start()
    prints = [line for line in code.splitlines() if line.startswith("print(")]
    assert prints and all("#" in line for line in prints)
    expected = [line.rsplit("#", 1)[1].strip() for line in prints]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"),
                                                      env.get("PYTHONPATH")]))
    out = subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=env,
                         capture_output=True, text=True, timeout=300)
    assert out.returncode == 0, out.stderr
    assert out.stdout.splitlines() == expected
