"""The quick demos run to completion against this package. ``toy_training.py``
takes over a minute and is left out; the acceptance tests cover training."""
import os
import subprocess
import sys
from pathlib import Path

import pytest

import hbonet

DEMOS = Path(__file__).resolve().parents[1] / "demos"


@pytest.mark.parametrize("demo", ["block_anatomy.py", "complexity_tables.py",
                                  "gradient_checking.py"])
def test_demo_exits_zero(demo, tmp_path):
    # the subprocess imports the same package this test run imported
    paths = [str(Path(hbonet.__file__).resolve().parents[1]),
             os.environ.get("PYTHONPATH")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, paths))}
    run = subprocess.run([sys.executable, str(DEMOS / demo)], cwd=tmp_path,
                         env=env, capture_output=True, text=True, timeout=300)
    assert run.returncode == 0, run.stderr
