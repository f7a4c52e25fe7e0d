"""Minimal numerical substrate: MLP forward/backward, Adam, gradient checking.

Everything is float64 and deterministic given the input Rng.  No autodiff:
each operation carries its own exact backward pass, validated against
central finite differences in the test suite.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ContractError, DivergenceError, ShapeError


# Rows per block of the inference path's in-place bias add and SiLU: a
# 128 x 256 float64 block is 256 KB, so a block and its scratch stay in cache.
SILU_ROWS = 128


def _sigmoid_into(x, e, d):
    """sigmoid(x) written into e, with d (e's shape) as scratch; returns e.

    1 / (1 + e^-x) for x >= 0 and e^x / (1 + e^x) otherwise, without
    boolean-mask gathers.  min(x, -x) is -|x| and keeps a NaN's sign.
    With e = e^-|x|, the numerator is 1 where x >= 0 and e elsewhere; as
    0 <= e <= 1, that is max(e, x >= 0), and a NaN e stays as it is.  The
    max is a branch-free select, where a masked divide branches on the
    sign of every element.  Every sigmoid of the package runs these
    operations in this order."""
    np.negative(x, out=e)
    np.minimum(x, e, out=e)
    np.exp(e, out=e)
    np.add(e, 1.0, out=d)
    np.maximum(e, x >= 0, out=e)
    e /= d
    return e


def _sigmoid(x):
    return _sigmoid_into(x, np.empty_like(x), np.empty_like(x))


def silu(x):
    s = _sigmoid(x)
    s *= x
    return s


def _bias_silu_in_place(h: np.ndarray, bias: np.ndarray, scratch: np.ndarray) -> None:
    """h = silu(h + bias) in place, SILU_ROWS rows at a time: bitwise the
    training forward's `pre += bias` and `silu(pre)`.  scratch is (2, m)
    with m at least the size of a block, min(len(h), SILU_ROWS) rows."""
    for r in range(0, h.shape[0], SILU_ROWS):
        blk = h[r:r + SILU_ROWS]
        blk += bias
        size = blk.size
        s = _sigmoid_into(blk, scratch[0, :size].reshape(blk.shape),
                          scratch[1, :size].reshape(blk.shape))
        np.multiply(s, blk, out=blk)


def silu_grad(x):
    """s (1 + x (1 - s)) for s = sigmoid(x), built in one buffer in the
    expression's operation order."""
    s = _sigmoid(x)
    g = np.subtract(1.0, s)
    g *= x
    g += 1.0
    g *= s
    return g


def scatter_rows(rows: np.ndarray, values: np.ndarray, n_rows: int) -> np.ndarray:
    """(n_rows, d) sums of the rows of `values` grouped by `rows`, bit for bit
    `np.add.at(np.zeros((n_rows, d)), rows, values)`: one bincount over the
    flat index rows * d + j adds each bin's weights in input order, starting
    from 0.0, as add.at does.  A caller with several scatters into one
    table concatenates them in their old order."""
    d = values.shape[1]
    flat = (rows[:, None] * d + np.arange(d)).ravel()
    return np.bincount(flat, weights=values.ravel(), minlength=n_rows * d).reshape(n_rows, d)


@dataclass
class Layer:
    weight: np.ndarray  # (out_dim, in_dim)
    bias: np.ndarray    # (out_dim,)


@dataclass
class Mlp:
    """Fully-connected net: SiLU after every layer but the last."""

    layers: list[Layer]

    @classmethod
    def create(cls, dims: list[int], rng) -> "Mlp":
        return cls([Layer(weight=rng.uniform_init((d_out, d_in), d_in),
                          bias=rng.uniform_init(d_out, d_in))
                    for d_in, d_out in zip(dims, dims[1:])])

    @property
    def in_dim(self) -> int:
        return self.layers[0].weight.shape[1]

    def params(self) -> list[np.ndarray]:
        out = []
        for layer in self.layers:
            out.extend([layer.weight, layer.bias])
        return out

    def _checked_input(self, x) -> np.ndarray:
        x = np.atleast_2d(np.asarray(x, dtype=np.float64))
        if x.shape[1] != self.in_dim:
            raise ShapeError(f"input dim {x.shape[1]} != expected {self.in_dim}")
        if not np.all(np.isfinite(x)):
            raise ContractError("non-finite input to forward pass")
        return x

    def forward(self, x: np.ndarray):
        """Batch forward; returns (output, tape).  x is (n, in_dim)."""
        x = self._checked_input(x)
        tape = [x]
        h = x
        last = len(self.layers) - 1
        for li, layer in enumerate(self.layers):
            pre = h @ layer.weight.T
            pre += layer.bias
            h = silu(pre) if li < last else pre
            tape.extend([pre, h])
        return h, tape

    @property
    def _hidden_width(self) -> int:
        return max((layer.bias.size for layer in self.layers[:-1]), default=0)

    def hidden_buffers(self, n: int) -> tuple[np.ndarray, np.ndarray]:
        """The two hidden-layer buffers `infer` writes for n rows.  A caller
        that infers on n rows again and again keeps them across calls."""
        return np.empty(n * self._hidden_width), np.empty(n * self._hidden_width)

    def infer(self, x: np.ndarray, buffers: tuple[np.ndarray, np.ndarray]) -> np.ndarray:
        """forward(x)[0] bit for bit, keeping no tape; refuses what forward
        refuses.

        Hidden layer i writes its product (the same BLAS call on the same
        operands) into buffers[i % 2], from `hidden_buffers`, then adds its
        bias and applies its SiLU there in place, SILU_ROWS rows at a time.
        Only the last layer's output is a new array."""
        x = self._checked_input(x)
        n = x.shape[0]
        scratch = np.empty((2, min(n, SILU_ROWS) * self._hidden_width))
        h = x
        for li, layer in enumerate(self.layers[:-1]):
            out = buffers[li % 2][:n * layer.bias.size].reshape(n, layer.bias.size)
            np.matmul(h, layer.weight.T, out=out)
            _bias_silu_in_place(out, layer.bias, scratch)
            h = out
        y = h @ self.layers[-1].weight.T
        y += self.layers[-1].bias
        return y

    def backward(self, tape, grad_out: np.ndarray):
        """Gradients of <grad_out, output> wrt params and input.

        Returns (param_grads, grad_input) with param_grads ordered like params().
        """
        if len(tape) != 2 * len(self.layers) + 1:
            raise ContractError("tape does not match network depth")
        g = np.atleast_2d(np.asarray(grad_out, dtype=np.float64))
        param_grads = [None] * (2 * len(self.layers))
        last = len(self.layers) - 1
        for li in range(last, -1, -1):
            layer = self.layers[li]
            pre = tape[2 * li + 1]
            inp = tape[2 * li]
            if li < last:
                local = silu_grad(pre)
                local *= g
                g = local
            param_grads[2 * li] = g.T @ inp
            param_grads[2 * li + 1] = g.sum(axis=0)
            g = g @ layer.weight
        return param_grads, g


class Adam:
    """Bias-corrected Adam with decoupled weight decay."""

    def __init__(self, params: list[np.ndarray], lr: float,
                 beta1: float = 0.9, beta2: float = 0.999,
                 eps: float = 1e-8, weight_decay: float = 0.0):
        self.lr = lr
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.weight_decay = weight_decay
        self.step_count = 0
        self.m = [np.zeros_like(p) for p in params]
        self.v = [np.zeros_like(p) for p in params]

    def step(self, params: list[np.ndarray], grads: list[np.ndarray],
             decay_masks: list[np.ndarray] | None = None) -> None:
        """Update params in place.  decay_masks limits weight decay to the
        marked entries (used for sparsely-touched embedding rows)."""
        self.step_count += 1
        t = self.step_count
        for i, (p, g) in enumerate(zip(params, grads)):
            if p.shape != g.shape:
                raise ShapeError("parameter/gradient shape mismatch")
            if not np.all(np.isfinite(g)):
                raise DivergenceError(f"non-finite gradient in parameter block {i}")
            m, v = self.m[i], self.v[i]
            step, denom = np.empty_like(p), np.empty_like(p)
            # In place, in the operation order of m = b1 m + (1 - b1) g,
            # v = b2 v + ((1 - b2) g) g and p -= (lr m_hat) / (sqrt(v_hat) + eps),
            # so the update is bitwise that of the out-of-place expressions.
            m *= self.beta1
            np.multiply(1.0 - self.beta1, g, out=step)
            m += step
            v *= self.beta2
            np.multiply(1.0 - self.beta2, g, out=step)
            step *= g
            v += step
            np.divide(m, 1.0 - self.beta1 ** t, out=step)
            step *= self.lr
            np.divide(v, 1.0 - self.beta2 ** t, out=denom)
            np.sqrt(denom, out=denom)
            denom += self.eps
            step /= denom
            p -= step
            if self.weight_decay:
                np.multiply(self.lr * self.weight_decay, p, out=step)
                if decay_masks is not None and decay_masks[i] is not None:
                    step *= decay_masks[i]
                p -= step


def finite_diff_check(loss_fn, params: list[np.ndarray],
                      analytic_grads: list[np.ndarray],
                      h: float = 1e-5) -> dict:
    """Compare analytic gradients with central differences.

    loss_fn takes no arguments and reads the (mutated) params.  Returns a
    report with the max relative error per block and overall.
    """
    if not 1e-7 <= h <= 1e-3:
        raise ContractError("h outside [1e-7, 1e-3]")
    block_errs = []
    for p, g in zip(params, analytic_grads):
        fd = np.zeros_like(p)
        flat_p, flat_fd = p.ravel(), fd.ravel()
        for j in range(flat_p.size):
            orig = flat_p[j]
            flat_p[j] = orig + h
            lp = loss_fn()
            flat_p[j] = orig - h
            lm = loss_fn()
            flat_p[j] = orig
            flat_fd[j] = (lp - lm) / (2.0 * h)
        scale = np.maximum(np.maximum(np.abs(g), np.abs(fd)), 1e-6)
        block_errs.append(float(np.max(np.abs(g - fd) / scale)) if p.size else 0.0)
    return {
        "per_block": block_errs,
        "max_rel_err": max(block_errs) if block_errs else 0.0,
    }
