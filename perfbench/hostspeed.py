"""Host-speed reference: scale measured seconds to a fixed host speed.

The benchmark shares a host whose speed drifts by ±25% from one minute
to the next (other tenants contend for the same cores and caches; the
hypervisor's steal counter stays near zero, so CPU time drifts as much
as wall time).  Ten runs of unchanged code then spread wider than any
bound a regression gate could use.

So each closed-loop run also times a fixed reference kernel, between
queries, every :data:`PROBE_EVERY_S` seconds.  The kernel does the
same kind of work as the workload's hot path, on fixed inputs, with no
code from ``src/``: a program change cannot speed it up or slow it
down, while a slower host slows it in step with the program.
``factor()`` is the kernel's nominal seconds over its median measured
seconds in this run; every wall-clock time the benchmark reports is
multiplied by it, giving seconds at the reference speed.  The raw
seconds and the factor are printed beside the scaled ones.
"""

from __future__ import annotations

import statistics
import time

import numpy as np
from scipy import ndimage, optimize

#: Seconds of timed loop between two reference samples.
PROBE_EVERY_S = 0.25


class _SolverKernel:
    """Differential evolution over a fixed angular objective (the solver's work)."""

    def __init__(self) -> None:
        rng = np.random.default_rng(0)
        self.points_i = rng.uniform(0.0, 20.0, size=(80, 3))
        self.points_j = rng.uniform(0.0, 20.0, size=(80, 3))
        self.perceived = rng.uniform(0.1, 1.0, size=80)

    def _objective(self, position: np.ndarray) -> float:
        to_i = self.points_i - position
        to_j = self.points_j - position
        norms = np.maximum(np.linalg.norm(to_i, axis=1) * np.linalg.norm(to_j, axis=1), 1e-9)
        residual = np.arccos(np.clip((to_i * to_j).sum(1) / norms, -1.0, 1.0)) - self.perceived
        return float(np.sum(2.0 * (np.sqrt(1.0 + residual**2) - 1.0)))

    def __call__(self) -> None:
        optimize.differential_evolution(
            self._objective,
            bounds=[(0.0, 20.0)] * 3,
            maxiter=2,
            popsize=20,
            tol=0.0,
            seed=0,
            polish=False,
        )


class _ImageKernel:
    """Scale-space filtering and descriptor ranking (SIFT and matching's work)."""

    def __init__(self) -> None:
        rng = np.random.default_rng(0)
        self.image = rng.random((224, 224)).astype(np.float32)
        self.database = rng.normal(size=(4000, 128)).astype(np.float32)
        self.queries = rng.normal(size=(60, 128)).astype(np.float32)

    def __call__(self) -> None:
        for sigma in (1.6, 2.3):
            blurred = ndimage.gaussian_filter(self.image, sigma, mode="nearest")
            ndimage.maximum_filter(blurred, size=3, mode="nearest")
        distances = self.queries @ self.database.T
        np.argpartition(distances, -2, axis=1)[:, -2:]


#: Kernel per workload, and its nominal seconds: about its median on a
#: 2-vCPU Xeon host at 2.0 GHz with one BLAS thread, so that scaled
#: times read close to that host's wall times.
KERNELS = {
    "solver": (_SolverKernel, 0.017),
    "image": (_ImageKernel, 0.0075),
}


class HostSpeed:
    """Time a reference kernel now and then; report the speed factor."""

    def __init__(self, kernel: str) -> None:
        make, self.nominal = KERNELS[kernel]
        self.kernel_name = kernel
        self._kernel = make()
        self._kernel()  # warm caches and scipy's lazy imports
        self.samples: list[float] = []
        self.seconds = 0.0
        self._last = time.perf_counter()

    def sample(self) -> None:
        """Time the kernel once."""
        started = time.perf_counter()
        self._kernel()
        finished = time.perf_counter()
        self.samples.append(finished - started)
        self.seconds += finished - started
        self._last = finished

    def maybe_sample(self) -> None:
        """Time the kernel if :data:`PROBE_EVERY_S` have passed since the last one."""
        if time.perf_counter() - self._last >= PROBE_EVERY_S:
            self.sample()

    def factor(self) -> float:
        """Nominal over median measured kernel seconds (>1 on a slow host)."""
        return self.nominal / statistics.median(self.samples)
