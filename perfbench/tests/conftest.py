import os
import sys
from pathlib import Path

os.environ["HBONET_NUM_THREADS"] = "1"
HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parents[1] / "src"), str(HERE.parent)]

import hbonet  # noqa: E402,F401  (pins BLAS threads before numpy loads)
