"""MLP forward/backward, Adam, finite-difference harness."""

import numpy as np
import pytest

from coldbundle.errors import ContractError, DivergenceError, ShapeError
from coldbundle.nn import (
    SILU_ROWS, Adam, Mlp, _sigmoid, finite_diff_check, scatter_rows, silu, silu_grad,
)
from coldbundle.rng import Rng


def test_sigmoid_stable():
    x = np.array([-1000.0, 0.0, 1000.0])
    s = _sigmoid(x)
    assert np.all(np.isfinite(s))
    np.testing.assert_allclose(s, [0.0, 0.5, 1.0], atol=1e-12)


def _masked_sigmoid(x):
    """The boolean-mask sigmoid the mask-free kernel replaced."""
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def test_sigmoid_equals_masked_reference_bitwise():
    special = np.array([0.0, -0.0, 1e4, -1e4, np.inf, -np.inf,
                        np.copysign(np.nan, 1.0), np.copysign(np.nan, -1.0),
                        1.0, -1.0, 709.0, -709.0, 745.0, -745.0, 5e-324, -5e-324])
    assert np.signbit(special[6:8]).tolist() == [False, True]
    normals = np.random.default_rng(0).normal(scale=8.0, size=(64, 33))
    block = np.random.default_rng(1).normal(size=(128, 256))
    for x in (special, normals, normals[:, ::3], block):
        got = _sigmoid(x)
        assert got.shape == x.shape
        assert got.tobytes() == _masked_sigmoid(x).tobytes()


def _silu_reference(x):
    return x * _masked_sigmoid(x)


def _silu_grad_reference(x):
    s = _masked_sigmoid(x)
    return s * (1.0 + x * (1.0 - s))


def _mlp_forward_reference(net, x):
    """The out-of-place forward pass: a new array for the bias sum, SiLU
    after every layer but the last."""
    tape, h = [x], x
    last = len(net.layers) - 1
    for li, layer in enumerate(net.layers):
        pre = h @ layer.weight.T + layer.bias
        h = _silu_reference(pre) if li < last else pre
        tape.extend([pre, h])
    return h, tape


def _mlp_backward_reference(net, tape, g):
    """The out-of-place backward pass, the last (identity) layer's gradient
    multiplied by ones."""
    param_grads = [None] * (2 * len(net.layers))
    last = len(net.layers) - 1
    for li in range(last, -1, -1):
        layer, pre, inp = net.layers[li], tape[2 * li + 1], tape[2 * li]
        local = _silu_grad_reference(pre) if li < last else np.ones_like(pre)
        g = g * local
        param_grads[2 * li] = g.T @ inp
        param_grads[2 * li + 1] = g.sum(axis=0)
        g = g @ layer.weight
    return param_grads, g


def test_silu_and_grad_equal_out_of_place_reference_bitwise():
    rng = np.random.default_rng(2)
    block = rng.normal(scale=4.0, size=(128, 256))
    special = np.array([0.0, -0.0, 1e4, -1e4, 709.0, -709.0, 745.0, -745.0,
                        5e-324, -5e-324, 36.7, -36.7])
    for x in (block, block[:, ::5], special, rng.standard_cauchy(5000)):
        assert silu(x).tobytes() == _silu_reference(x).tobytes()
        assert silu_grad(x).tobytes() == _silu_grad_reference(x).tobytes()


@pytest.mark.parametrize("dims", [[192, 256, 256, 64], [5, 8, 3], [4, 2]])
def test_mlp_passes_equal_out_of_place_reference_bitwise(dims):
    """The denoiser's shape among them; the caller's input and output
    gradient are left as they were."""
    rng = Rng(17)
    net = Mlp.create(dims, rng)
    x = rng.normal((128, dims[0])) * 3.0
    out, tape = net.forward(x)
    ref_out, ref_tape = _mlp_forward_reference(net, x)
    assert len(tape) == len(ref_tape)
    for got, want in zip(tape, ref_tape):
        assert got.tobytes() == want.tobytes()
    grad_out = rng.normal(out.shape)
    kept = grad_out.copy()
    grads, gx = net.backward(tape, grad_out)
    ref_grads, ref_gx = _mlp_backward_reference(net, ref_tape, grad_out)
    for got, want in zip(grads + [gx], ref_grads + [ref_gx]):
        assert got.tobytes() == want.tobytes()
    assert grad_out.tobytes() == kept.tobytes()


@pytest.mark.parametrize("dims", [[5, 40, 3], [12, 256, 100, 256, 7]])
@pytest.mark.parametrize("n", [1, SILU_ROWS - 1, SILU_ROWS, SILU_ROWS + 1, 2 * SILU_ROWS + 3])
def test_infer_equals_forward_bitwise(dims, n):
    """A 2- and a 4-layer net (hidden widths that differ, so the two buffers
    are sliced to each layer's width), row counts around the SiLU block;
    the buffers are reused by a second call, the input is left as it was."""
    rng = Rng(5)
    net = Mlp.create(dims, rng)
    x = rng.normal((n, dims[0])) * 3.0
    kept = x.copy()
    want, _ = net.forward(x)
    buffers = net.hidden_buffers(n)
    for _ in range(2):
        got = net.infer(x, buffers)
        assert got.shape == want.shape
        assert got.tobytes() == want.tobytes()
        assert not any(np.shares_memory(got, b) for b in buffers)
    assert x.tobytes() == kept.tobytes()


def test_infer_without_hidden_layers_and_refusals():
    net = Mlp.create([4, 2], Rng(0))
    x = Rng(1).normal((3, 4))
    assert net.infer(x, net.hidden_buffers(3)).tobytes() == net.forward(x)[0].tobytes()
    net = Mlp.create([5, 8, 3], Rng(0))
    buffers = net.hidden_buffers(4)
    with pytest.raises(ShapeError):
        net.infer(np.ones((4, 6)), buffers)
    for bad in (np.nan, np.inf):
        x = np.ones((4, 5))
        x[2, 3] = bad
        with pytest.raises(ContractError):
            net.infer(x, buffers)


def test_silu_grad_matches_fd():
    x = np.linspace(-3, 3, 50)
    h = 1e-6
    fd = (silu(x + h) - silu(x - h)) / (2 * h)
    np.testing.assert_allclose(silu_grad(x), fd, atol=1e-8)


def test_mlp_shapes_and_chaining():
    net = Mlp.create([5, 8, 3], Rng(0))
    out, tape = net.forward(np.ones((4, 5)))
    assert out.shape == (4, 3)
    with pytest.raises(ShapeError):
        net.forward(np.ones((4, 6)))
    with pytest.raises(ContractError):
        net.forward(np.full((1, 5), np.nan))


def test_mlp_gradcheck():
    rng = Rng(1)
    net = Mlp.create([4, 6, 2], rng)
    x = rng.normal((3, 4))
    target = rng.normal((3, 2))

    def loss_fn():
        out, _ = net.forward(x)
        return float(np.sum((out - target) ** 2))

    out, tape = net.forward(x)
    grads, gx = net.backward(tape, 2.0 * (out - target))
    report = finite_diff_check(loss_fn, net.params(), grads)
    assert report["max_rel_err"] < 1e-6

    # input gradient against finite differences
    h = 1e-6
    for j in range(x.size):
        orig = x.ravel()[j]
        x.ravel()[j] = orig + h
        lp = loss_fn()
        x.ravel()[j] = orig - h
        lm = loss_fn()
        x.ravel()[j] = orig
        assert abs(gx.ravel()[j] - (lp - lm) / (2 * h)) < 1e-5


def test_adam_matches_reference():
    # one parameter, two steps, hand-rolled reference
    p = np.array([1.0, -2.0])
    ref = p.copy()
    opt = Adam([p], lr=0.1)
    m = np.zeros(2)
    v = np.zeros(2)
    for t in (1, 2):
        g = ref * 2.0  # pretend loss p^2 at the reference point
        opt.step([p], [p * 2.0])
        m = 0.9 * m + 0.1 * g
        v = 0.999 * v + 0.001 * g * g
        ref = ref - 0.1 * (m / (1 - 0.9 ** t)) / (np.sqrt(v / (1 - 0.999 ** t)) + 1e-8)
    np.testing.assert_allclose(p, ref, atol=1e-12)


def test_adam_decay_mask():
    p = np.array([[1.0], [1.0]])
    opt = Adam([p], lr=0.0, weight_decay=0.5)
    # lr 0 means decay term is also zero (decoupled decay scales with lr)
    opt.step([p], [np.zeros_like(p)])
    np.testing.assert_array_equal(p, [[1.0], [1.0]])
    p2 = np.array([[1.0], [1.0]])
    opt2 = Adam([p2], lr=0.1, weight_decay=0.5)
    mask = np.array([[1.0], [0.0]])
    opt2.step([p2], [np.zeros_like(p2)], decay_masks=[mask])
    assert p2[0, 0] < 1.0 and p2[1, 0] == 1.0


class _AdamReference:
    """The out-of-place Adam update the in-place step replaced."""

    def __init__(self, params, lr, weight_decay):
        self.lr, self.weight_decay, self.t = lr, weight_decay, 0
        self.m = [np.zeros_like(p) for p in params]
        self.v = [np.zeros_like(p) for p in params]

    def step(self, params, grads, decay_masks=None):
        self.t += 1
        for i, (p, g) in enumerate(zip(params, grads)):
            self.m[i] = 0.9 * self.m[i] + (1.0 - 0.9) * g
            self.v[i] = 0.999 * self.v[i] + (1.0 - 0.999) * g * g
            m_hat = self.m[i] / (1.0 - 0.9 ** self.t)
            v_hat = self.v[i] / (1.0 - 0.999 ** self.t)
            p -= self.lr * m_hat / (np.sqrt(v_hat) + 1e-8)
            if self.weight_decay:
                decay = self.lr * self.weight_decay * p
                if decay_masks is not None and decay_masks[i] is not None:
                    decay = decay * decay_masks[i]
                p -= decay


@pytest.mark.parametrize("masked", [False, True])
@pytest.mark.parametrize("weight_decay", [0.0, 0.3])
def test_adam_equals_out_of_place_reference_bitwise(masked, weight_decay):
    rng = Rng(11)
    params = [rng.normal((6, 3)), rng.normal(4)]
    ref_params = [p.copy() for p in params]
    opt = Adam(params, lr=0.05, weight_decay=weight_decay)
    ref = _AdamReference(ref_params, lr=0.05, weight_decay=weight_decay)
    for _ in range(20):
        grads = [rng.normal((6, 3)), rng.normal(4)]
        masks = [(rng.normal((6, 1)) > 0).astype(np.float64), None] if masked else None
        opt.step(params, grads, decay_masks=masks)
        ref.step(ref_params, grads, decay_masks=masks)
        for got, want in zip(params + opt.m + opt.v, ref_params + ref.m + ref.v):
            assert got.tobytes() == want.tobytes()
    state = opt.m + opt.v
    for a in state:
        assert not any(np.shares_memory(a, b) for b in params + grads + state if b is not a)


def test_adam_rejects_bad_grads():
    p = np.zeros(3)
    opt = Adam([p], lr=0.1)
    with pytest.raises(ShapeError):
        opt.step([p], [np.zeros(4)])
    with pytest.raises(DivergenceError):
        opt.step([p], [np.array([np.nan, 0.0, 0.0])])


def test_finite_diff_check_h_bounds():
    with pytest.raises(ContractError):
        finite_diff_check(lambda: 0.0, [np.zeros(1)], [np.zeros(1)], h=1.0)


def test_scatter_rows_equals_add_at_bitwise():
    """Repeated and unsorted indices, two scatters into one table (the
    concatenated form), an empty scatter, and values whose sums depend on
    the order of accumulation."""
    rng = Rng(29)
    for n_rows, m, d in ((5, 200, 3), (400, 4000, 64), (7, 0, 4), (1, 30, 2)):
        rows = rng.integers(m, 0, n_rows)
        values = rng.normal((m, d)) * np.exp(rng.normal((m, 1)) * 8.0)
        want = np.zeros((n_rows, d))
        np.add.at(want, rows, values)
        assert scatter_rows(rows, values, n_rows).tobytes() == want.tobytes()
        more = rng.integers(m, 0, n_rows)
        np.add.at(want, more, -values[::-1])
        got = scatter_rows(np.concatenate([rows, more]),
                           np.concatenate([values, -values[::-1]]), n_rows)
        assert got.tobytes() == want.tobytes()
