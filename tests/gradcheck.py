"""Finite-difference gradient checking for the reverse-mode engine."""

from __future__ import annotations

import numpy as np

from stdac.tensor import Tensor, no_grad


def gradcheck(func, inputs: tuple[Tensor, ...], eps: float = 1e-5,
              tol: float = 1e-4, guard: float = 1e-8) -> float:
    """Compare reverse-mode gradients of a scalar-valued ``func`` against
    central differences, elementwise.

    Returns the largest relative error
        |analytic - numeric| / max(|analytic|, |numeric|, guard)
    and raises AssertionError if it exceeds ``tol``. Callers are responsible
    for keeping inputs away from nondifferentiable points (relu kinks, pool
    ties, interpolation cell boundaries).
    """
    for x in inputs:
        x.grad = None
    out = func(*inputs)
    out.backward()
    analytic = [np.array(x.grad, copy=True) for x in inputs]

    worst = 0.0
    with no_grad():
        for idx, x in enumerate(inputs):
            flat = x.data.reshape(-1)
            for i in range(flat.size):
                orig = flat[i]
                flat[i] = orig + eps
                fp = float(func(*inputs).data)
                flat[i] = orig - eps
                fm = float(func(*inputs).data)
                flat[i] = orig
                numeric = (fp - fm) / (2.0 * eps)
                a = analytic[idx].reshape(-1)[i]
                rel = abs(a - numeric) / max(abs(a), abs(numeric), guard)
                worst = max(worst, rel)
    assert worst <= tol, f"gradcheck failed: max rel err {worst:.3e} > {tol:.1e}"
    return worst
