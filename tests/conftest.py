# hbonet first: it hands a caller's HBONET_NUM_THREADS to the BLAS pools
# only if it is imported before numpy loads
import hbonet  # noqa: F401
import numpy as np
import pytest


@pytest.fixture(scope="session")
def pin_versions():
    """The tail of a bitwise pin's failure message. The pinned bits follow
    the summation and BLAS kernel order of the versions named here (the
    ``hbonet.ops`` module docstring), so a mismatch on other versions may
    be theirs rather than the code's."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return (f"pinned with numpy 2.4.6 and OpenBLAS 0.3.31, running numpy "
            f"{np.__version__} and {blas['name']} {blas['version']}")
