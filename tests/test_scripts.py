"""Smoke runs of the scripts under scripts/, each in its own interpreter."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_script(name, *args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, str(ROOT / "scripts" / name), *args], env=env,
                          capture_output=True, text=True, timeout=300)


def test_ablation_sweep_runs_every_configuration():
    proc = run_script("ablation_sweep.py", "--steps", "1", "--n", "2")
    assert proc.returncode == 0, proc.stderr
    rows = [line for line in proc.stdout.splitlines() if " dsc " in line]
    assert len(rows) == 11  # 2 x 2 block/upsampler pairs, 4 upsamplers, 3 kernel sets

