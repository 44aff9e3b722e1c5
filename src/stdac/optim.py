"""Adam optimizer."""

from __future__ import annotations

import numpy as np

from .nn import Parameter
from .tensor import both

# Elements per update block: the four arrays and two scratch blocks of one
# block (6 x 256 KB) stay in L2 while the update makes its passes over them.
BLOCK = 32768


class Adam:
    """Adam with bias correction; epsilon sits outside the square root:

        p <- p - lr * m_hat / (sqrt(v_hat) + eps)
    """

    def __init__(self, params: list[Parameter], lr: float = 1e-4,
                 beta1: float = 0.9, beta2: float = 0.999, eps: float = 1e-8):
        self.params = list(params)
        self.lr = lr
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.t = 0
        self.m = [np.zeros_like(p.data) for p in self.params]
        self.v = [np.zeros_like(p.data) for p in self.params]

    def step(self):
        """One update, in place, block by block.

        Per element it is m <- b1*m + (1-b1)*g, v <- b2*v + (1-b2)*(g*g),
        p <- p - lr*(m/b1t) / (sqrt(v/b2t) + eps), each product and quotient
        rounded in that order, so the bits do not depend on the block size
        or on which thread updates a block: the first half of the blocks runs
        on the side thread (`tensor.both`), the second half here.
        """
        self.t += 1
        b1t = 1.0 - self.beta1 ** self.t
        b2t = 1.0 - self.beta2 ** self.t
        blocks = []
        for p, m, v in zip(self.params, self.m, self.v):
            if p.grad is None:
                continue
            # Parameters are C-contiguous, so these are views of p.data, m, v
            flat = [arr.reshape(-1) for arr in (p.data, m, v, p.grad)]
            blocks += [[arr[lo:lo + BLOCK] for arr in flat] for lo in range(0, p.size, BLOCK)]
        half = len(blocks) // 2
        both(lambda: self._update(blocks[:half], b1t, b2t),
             lambda: self._update(blocks[half:], b1t, b2t))

    def _update(self, blocks, b1t, b2t):
        """Adam on (p, m, v, g) blocks, with two scratch blocks of its own."""
        a = np.empty(BLOCK)
        b = np.empty(BLOCK)
        for pb, mb, vb, gb in blocks:
            ab, bb = a[:len(pb)], b[:len(pb)]
            mb *= self.beta1
            mb += np.multiply(1.0 - self.beta1, gb, out=ab)
            vb *= self.beta2
            np.multiply(gb, gb, out=ab)
            vb += np.multiply(1.0 - self.beta2, ab, out=ab)
            np.divide(mb, b1t, out=ab)
            np.multiply(self.lr, ab, out=ab)
            np.divide(vb, b2t, out=bb)
            np.sqrt(bb, out=bb)
            bb += self.eps
            ab /= bb
            pb -= ab

    def zero_grad(self):
        for p in self.params:
            p.grad = None
