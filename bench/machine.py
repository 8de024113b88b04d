"""The machine a run measured on, and the process counters it reads.

The fingerprint is printed with every result so that two sets of numbers
can be told apart by machine before they are compared.
"""

from __future__ import annotations

import os
import resource
import statistics
import time
from typing import Dict

from bench import spec


def cpu_seconds() -> float:
    """User + system CPU of this process and every child it has reaped."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + children.ru_utime + children.ru_stime


def peak_rss_mb() -> float:
    """Max RSS of this process plus the largest reaped child's (MB)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0  # Linux reports KiB


def fingerprint() -> Dict[str, object]:
    """Cores, affinity, numpy/BLAS build and threads, load, calibration GEMM."""
    import numpy as np

    rng = np.random.default_rng(0)
    size = spec.CALIBRATION_GEMM
    a = rng.normal(size=(size, size)).astype(np.float32)
    b = rng.normal(size=(size, size)).astype(np.float32)
    a @ b  # first call pays BLAS thread start-up
    times = []
    for _ in range(15):
        started = time.perf_counter()
        a @ b
        times.append(time.perf_counter() - started)
    blas = "unknown"
    try:
        config = np.show_config(mode="dicts")
        info = config.get("Build Dependencies", {}).get("blas", {})
        blas = f"{info.get('name', 'unknown')} {info.get('version', '')}".strip()
    except (TypeError, AttributeError):  # numpy < 1.25 has no dict mode
        pass
    return {
        "cores": os.cpu_count(),
        "affinity": sorted(os.sched_getaffinity(0)),
        "numpy": np.__version__,
        "blas": blas,
        "openblas_num_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "omp_num_threads": os.environ.get("OMP_NUM_THREADS"),
        "loadavg_at_start": os.getloadavg()[0],
        "calibration_gemm_ms": statistics.median(times) * 1e3,
    }


class SpeedProbe:
    """How fast this machine is right now, relative to the reference box.

    The VM this benchmark was sized on does not run at one speed: identical
    selections took 0.68-0.93 s within one minute, process CPU time tracking
    wall time, because the host's other tenants slow the core down in spells
    of 5-20 s.  No amount of repetition inside a 20 s run averages that out,
    so CPU-bound timings are divided by the *speed factor* sampled right
    before and after them: the time three fixed kernels take (interpreter
    loop, small numpy ops, a memory copy) over ``spec.SPEED_REFERENCE_S``,
    the time they take on the reference box when it is quiet.  A factor of
    1.2 means "20 % slower than the reference right now".
    """

    def __init__(self) -> None:
        import numpy as np

        rng = np.random.default_rng(0)
        self._np = np
        self._a = rng.normal(size=(128, 128)).astype(np.float32)
        self._v = rng.normal(size=16384).astype(np.float32)
        self._out = np.empty_like(self._v)
        self._big = rng.normal(size=1 << 20).astype(np.float32)
        self._copy = np.empty_like(self._big)

    def kernels(self) -> Dict[str, float]:
        """Seconds each kernel takes right now."""
        np, a, v, out = self._np, self._a, self._v, self._out
        clock = time.perf_counter
        started = clock()
        total = 0
        for i in range(300_000):
            total += i * i
        python_s = clock() - started
        started = clock()
        for _ in range(400):
            a @ a
            np.add(v, v, out=out)
            np.multiply(out, v, out=out)
            np.tanh(v[:2048])
        numpy_s = clock() - started
        started = clock()
        for _ in range(30):
            np.copyto(self._copy, self._big)
        memory_s = clock() - started
        return {"python": python_s, "numpy": numpy_s, "memory": memory_s}

    def sample(self) -> float:
        """The speed factor: mean over kernels of time / reference time."""
        times = self.kernels()
        return statistics.fmean(
            times[name] / reference for name, reference in spec.SPEED_REFERENCE_S.items()
        )
