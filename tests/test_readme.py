"""README's library quick start runs as written and prints what it says."""

import cmath
import os
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_quick_start_runs():
    (block,) = re.findall(r"```python\n(.*?)```", (ROOT / "README.md").read_text(encoding="utf-8"), re.S)
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, "-c", block], capture_output=True,
                          text=True, env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr
    printed = proc.stdout.splitlines()
    # each print whose line carries a comment shows the commented value
    commented = [
        line.split("#", 1)[1].strip()
        for line in block.splitlines()
        if line.startswith("print(") and "#" in line
    ]
    assert printed[0] == commented[0].removesuffix(" (already normal)")
    assert printed[1] == commented[1]
    assert commented[-1] == "~ 2*pi*i"
    assert abs(complex(printed[-1]) - 2j * cmath.pi) < 1e-8
