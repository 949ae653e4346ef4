import os

# Tier-1 runs BLAS on one thread: the pinned bits of a GEMM depend on how
# many threads share it, and on a 2-core host a second thread slows the toy
# runs. A caller's own HBONET_NUM_THREADS wins.
os.environ.setdefault("HBONET_NUM_THREADS", "1")

# hbonet first: it hands HBONET_NUM_THREADS to the BLAS pools only if it is
# imported before numpy loads
import hbonet  # noqa: E402,F401
import numpy as np  # noqa: E402
import pytest  # noqa: E402


@pytest.fixture(scope="session")
def pin_versions():
    """The tail of a bitwise pin's failure message. The pinned bits follow
    the summation and BLAS kernel order of the versions and the one BLAS
    thread named here (the ``hbonet.ops`` module docstring), so a mismatch
    on other versions or thread counts may be theirs rather than the
    code's. The thread count is the one BLAS runs: the process's threads
    after a GEMM large enough to be split (a caller's own
    OPENBLAS_NUM_THREADS wins over HBONET_NUM_THREADS)."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    a = np.ones((512, 512))
    a @ a
    threads = (len(os.listdir("/proc/self/task"))
               if os.path.isdir("/proc/self/task") else "an unknown number of")
    return (f"pinned with numpy 2.4.6 and OpenBLAS 0.3.31 on one BLAS thread, "
            f"running numpy {np.__version__} and {blas['name']} "
            f"{blas['version']} on {threads} thread(s) after a GEMM "
            f"(OPENBLAS_NUM_THREADS={os.environ.get('OPENBLAS_NUM_THREADS')})")
