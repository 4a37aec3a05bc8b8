"""The README's library example runs against the package as it is."""

import os
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_library_surface_example_runs():
    text = (ROOT / "README.md").read_text()
    section = text.split("## Library surface", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, "-c", code], cwd=ROOT, env=env, capture_output=True,
        text=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
