"""Benchmark the numba coupling kernel against the pure-numpy fallback.

Times the coupling-block kernel and a full Taylor step on lifted states of
increasing size.  Run from the repository root:

    python3 benchmarks/bench_kernels.py [--repeats 50]

The selected backend at import time follows CFL_BACKEND; this script always
times both implementations explicitly (it needs numba importable).
"""

import argparse
import time

import numpy as np

from carleman_fourier import _kernels
from carleman_fourier.linearize import LiftedState, LinearOperatorLN, total_size
from carleman_fourier.taylor import TaylorConfig, apply_Vk


def time_call(fn, *args, repeats):
    fn(*args)  # warm-up (JIT compile, cache touch)
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn(*args)
        best = min(best, time.perf_counter() - t0)
    return best


def bench_kernels(repeats):
    rng = np.random.default_rng(7)
    print(f"{'kernel':8s} {'n':>3s} {'j':>3s} {'size':>9s} "
          f"{'numpy':>12s} {'numba':>12s} {'speedup':>8s}")
    cases = [(2, 6), (2, 10), (2, 14), (3, 6), (3, 9), (4, 7)]
    for n, j in cases:
        f1 = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        v1 = rng.normal(size=n ** (j + 1)) + 1j * rng.normal(size=n ** (j + 1))
        t_np1 = time_call(_kernels.apply_b1_numpy, n, j, f1, v1, repeats=repeats)
        t_nb1 = time_call(_kernels.apply_b1_numba, n, j, f1, v1, repeats=repeats)
        print(f"{'b1':8s} {n:3d} {j:3d} {n ** (j + 1):9d} "
              f"{t_np1 * 1e6:10.1f}us {t_nb1 * 1e6:10.1f}us "
              f"{t_np1 / t_nb1:7.1f}x")


def bench_taylor_step(repeats):
    rng = np.random.default_rng(11)
    print(f"\n{'full V_k step':14s} {'n':>3s} {'N':>3s} {'state':>9s} "
          f"{'numpy':>12s} {'numba':>12s} {'speedup':>8s}")
    for n, order in [(2, 10), (2, 14), (3, 8)]:
        f0 = rng.normal(size=n) + 1j * rng.normal(size=n)
        f1 = 0.2 * (rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)))
        op = LinearOperatorLN(order=order, n=n, f0=f0, f1=f1)
        size = total_size(n, order)
        vec = rng.normal(size=size) + 1j * rng.normal(size=size)
        state = LiftedState(n, order, vec)
        cfg = TaylorConfig(m=1, h=0.01, k=12)
        times = {}
        for backend in ("numpy", "numba"):
            _kernels.apply_b1 = getattr(_kernels, f"apply_b1_{backend}")
            # linearize holds its own reference; patch it too
            import carleman_fourier.linearize as lin
            lin._apply_b1_kernel = _kernels.apply_b1
            times[backend] = time_call(apply_Vk, op, cfg, state,
                                       repeats=max(3, repeats // 10))
        print(f"{'V_k (k=12)':14s} {n:3d} {order:3d} {size:9d} "
              f"{times['numpy'] * 1e3:10.2f}ms {times['numba'] * 1e3:10.2f}ms "
              f"{times['numpy'] / times['numba']:7.1f}x")


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--repeats", type=int, default=50)
    args = parser.parse_args()
    if not hasattr(_kernels, "apply_b1_numba"):
        raise SystemExit("numba backend unavailable; nothing to compare")
    print(f"selected backend at import: {_kernels.BACKEND}\n")
    bench_kernels(args.repeats)
    bench_taylor_step(args.repeats)


if __name__ == "__main__":
    main()
