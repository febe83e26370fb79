"""Record of the machine and libraries a result was measured with.

Runs with ``MALLOC_*`` or ``*_NUM_THREADS`` overrides in the environment are
flagged: pinning glibc malloc thresholds alone moves the cold Gaussian
kernel fit by more than a factor of two.
"""

from __future__ import annotations

import ctypes
import glob
import os
import platform


def overrides(environ=None) -> dict:
    env = os.environ if environ is None else environ
    return {k: v for k, v in sorted(env.items())
            if k.startswith("MALLOC_") or k.endswith("_NUM_THREADS")
            or k == "GLIBC_TUNABLES"}


def _openblas():
    """(config string, thread count) of the OpenBLAS numpy loaded, if any."""
    import numpy as np

    libdir = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    for path in glob.glob(os.path.join(libdir, "lib*openblas*.so*")):
        lib = ctypes.CDLL(path)
        for prefix, suffix in (("scipy_openblas", "64_"), ("openblas", "64_"),
                               ("openblas", "")):
            get_config = getattr(lib, f"{prefix}_get_config{suffix}", None)
            get_threads = getattr(lib, f"{prefix}_get_num_threads{suffix}", None)
            if get_config is not None and get_threads is not None:
                get_config.restype = ctypes.c_char_p
                get_threads.restype = ctypes.c_int
                return get_config().decode(), int(get_threads())
    return None, None


def record() -> dict:
    import numpy as np
    import scipy

    config, threads = _openblas()
    found = overrides()
    return {
        "cores": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "openblas": config,
        "blas_threads": threads,
        "overrides": found,
        "flagged": bool(found),
    }
