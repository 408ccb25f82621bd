"""Hot kernel for the matrix-free coupling blocks.

B_{j+1}^(1) acts on a length-n^{j+1} block through its base-n digit string
(most significant digit first):

  out[l_1..l_j] = i sum_a sum_s F1[l_a, s] v[l_1..l_{a-1}, l_a, s, l_{a+1}..l_j]

so position a of the output digit string pairs with digits (a, a+1) of the
input.  (The diagonal blocks B_j^(0) need no kernel: the generator keeps
their diagonal as one precomputed vector, see linearize.b0_diagonal.)

Two implementations are provided: a numba @njit loop (default when numba
imports) and a pure-numpy reshape/einsum path.  Selection happens once at
import time via the CFL_BACKEND environment variable:

  CFL_BACKEND=numba   require numba, fail if unavailable
  CFL_BACKEND=numpy   force the pure-numpy fallback
  CFL_BACKEND=auto    numba if available, else numpy (default)

benchmarks/bench_kernels.py compares the two paths head to head.
"""

from __future__ import annotations

import os

import numpy as np

from .errors import ConfigError

__all__ = [
    "BACKEND",
    "apply_b1",
    "apply_b1_numpy",
]


def apply_b1_numpy(n: int, j: int, f1: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Coupling block action: contract the stacked-row matrix into every one
    of the j digit positions."""
    out = np.zeros(n ** j, dtype=complex)
    for a in range(j):
        block = v.reshape(n ** a, n, n, n ** (j - 1 - a))
        out += 1j * np.einsum("rs,prsq->prq", f1, block).reshape(-1)
    return out


_requested = os.environ.get("CFL_BACKEND", "auto").strip().lower()
if _requested not in ("auto", "numba", "numpy"):
    raise ConfigError(
        f"CFL_BACKEND must be one of auto|numba|numpy, got {_requested!r}"
    )

_numba_ok = False
if _requested in ("auto", "numba"):
    try:
        from numba import njit

        _numba_ok = True
    except ImportError:
        if _requested == "numba":
            raise
        _numba_ok = False

if _numba_ok:

    @njit(cache=True)
    def _b1_kernel(n, j, f1, v, out):  # pragma: no cover - jitted
        for a in range(j):
            lead = n ** a
            trail = n ** (j - 1 - a)
            for p in range(lead):
                for r in range(n):
                    base_out = (p * n + r) * trail
                    base_in = (p * n + r) * n * trail
                    for s in range(n):
                        c = 1j * f1[r, s]
                        off = base_in + s * trail
                        for q in range(trail):
                            out[base_out + q] += c * v[off + q]

    def apply_b1_numba(n: int, j: int, f1: np.ndarray, v: np.ndarray) -> np.ndarray:
        out = np.zeros(n ** j, dtype=np.complex128)
        _b1_kernel(n, j, np.ascontiguousarray(f1, dtype=np.complex128),
                   np.ascontiguousarray(v, dtype=np.complex128), out)
        return out

    BACKEND = "numba"
    apply_b1 = apply_b1_numba
else:
    BACKEND = "numpy"
    apply_b1 = apply_b1_numpy
