"""Finite-difference suite: inputs must not depend on the process."""

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

# prints a digest of the inputs of op.silu and of the first block case
_DIGEST_SCRIPT = """
import hashlib
from msvseg.gradcheck import _block_cases, _op_cases

digest = hashlib.sha256()
for cases, wanted in ((_op_cases(7), "op.silu"), (_block_cases(7), "block.ss2d_block")):
    for name, _, _, inputs in cases:
        if name == wanted:
            for t in inputs:
                digest.update(t.data.tobytes())
            break
    else:
        raise SystemExit(f"no case {wanted}")
print(digest.hexdigest())
"""


def _inputs_digest(hash_seed: str) -> str:
    env = dict(os.environ, PYTHONHASHSEED=hash_seed,
               PYTHONPATH=os.pathsep.join([str(SRC), os.environ.get("PYTHONPATH", "")]))
    done = subprocess.run([sys.executable, "-c", _DIGEST_SCRIPT], env=env,
                          capture_output=True, text=True, timeout=120, check=True)
    return done.stdout.strip()


def test_inputs_equal_across_hash_seeds():
    assert _inputs_digest("1") == _inputs_digest("2")
