"""Deterministic counter-based random stream.

The generator is a counter-based splitmix64: draw number ``i`` (0-based,
counted from stream creation) is ``mix64(seed + (i+1) * GAMMA)`` with all
arithmetic modulo 2**64, where ``mix64`` is the splitmix64 finalizer

    z ^= z >> 30; z *= 0xBF58476D1CE4E5B9
    z ^= z >> 27; z *= 0x94D049BB133111EB
    z ^= z >> 31

and ``GAMMA = 0x9E3779B97F4A7C15``.  Because the stream is a pure function
of (seed, counter) it reproduces bit-identically across platforms and is
cheap to vectorize.  Integer draws use modulo reduction; the bias is
negligible for the ranges used here (< 2**32) and keeps the stream layout
simple.

The negative sampler's redraws read the stream one draw at a time through
:class:`Replay`, which fetches raws in blocks of REPLAY_BLOCK and on exit
sets the counter just past the last raw it handed out, so the stream is
that of scalar ``raw(1)`` calls.  Johnk's Beta draws run in array rounds
(:func:`johnk_beta`).
"""

from __future__ import annotations

import math

import numpy as np

_GAMMA = np.uint64(0x9E3779B97F4A7C15)
_MUL1 = np.uint64(0xBF58476D1CE4E5B9)
_MUL2 = np.uint64(0x94D049BB133111EB)
_MASK = 0xFFFFFFFFFFFFFFFF

# Raws a Replay fetches per Rng.raw call: bounded, so a long replay holds
# at most one block of Python ints.
REPLAY_BLOCK = 4096


def _mix64(z: np.ndarray) -> np.ndarray:
    z = (z ^ (z >> np.uint64(30))) * _MUL1
    z = (z ^ (z >> np.uint64(27))) * _MUL2
    return z ^ (z >> np.uint64(31))


class Rng:
    """Seeded stream of uniforms, normals, integers, and permutations."""

    def __init__(self, seed: int):
        self.seed = int(seed) & _MASK
        self._counter = 0

    def raw(self, n: int) -> np.ndarray:
        """Next ``n`` raw 64-bit draws."""
        idx = np.arange(self._counter + 1, self._counter + n + 1, dtype=np.uint64)
        self._counter += n
        with np.errstate(over="ignore"):
            return _mix64(np.uint64(self.seed) + idx * _GAMMA)

    def derive(self, label: str) -> "Rng":
        """Independent child stream named by ``label``.

        The child seed folds the label bytes into the parent seed with the
        same mixer, so the mapping is stable across runs and platforms.
        """
        h = np.uint64(self.seed)
        with np.errstate(over="ignore"):
            h = _mix64(h ^ _GAMMA)
            for byte in label.encode("utf-8"):
                h = _mix64((h + np.uint64(byte)) * _MUL1)
        return Rng(int(h))

    def uniform(self, n: int) -> np.ndarray:
        """``n`` doubles uniform on [0, 1)."""
        return (self.raw(n) >> np.uint64(11)) * (2.0 ** -53)

    def normal(self, shape) -> np.ndarray:
        """Standard normal array via Box-Muller."""
        shape = (shape,) if np.isscalar(shape) else tuple(shape)
        n = int(np.prod(shape)) if shape else 1
        m = (n + 1) // 2
        u1 = 1.0 - self.uniform(m)  # (0, 1], keeps log finite
        u2 = self.uniform(m)
        r = np.sqrt(-2.0 * np.log(u1))
        out = np.concatenate([r * np.cos(2.0 * np.pi * u2), r * np.sin(2.0 * np.pi * u2)])
        return out[:n].reshape(shape)

    def integers(self, n: int, low: int, high: int) -> np.ndarray:
        """``n`` ints uniform on [low, high)."""
        if high <= low:
            raise ValueError("empty integer range")
        span = np.uint64(high - low)
        return (self.raw(n) % span).astype(np.int64) + low

    def permutation(self, n: int) -> np.ndarray:
        """Deterministic permutation of range(n) (stable argsort of raw keys)."""
        return np.argsort(self.raw(n), kind="stable")

    def choice(self, n: int, k: int) -> np.ndarray:
        """``k`` distinct draws from range(n), order randomized."""
        if k > n:
            raise ValueError("cannot draw more than population size")
        return self.permutation(n)[:k]

    def uniform_init(self, shape, fan_in: int) -> np.ndarray:
        """Uniform(-1/sqrt(fan_in), +1/sqrt(fan_in)) init."""
        bound = 1.0 / np.sqrt(fan_in)
        shape = (shape,) if np.isscalar(shape) else tuple(shape)
        n = int(np.prod(shape))
        return ((self.uniform(n) * 2.0 - 1.0) * bound).reshape(shape)

    def replay(self) -> "Replay":
        """Scalar reader over the rest of this stream (a context manager)."""
        return Replay(self)


def johnk_log_ratio(u: float, v: float, a: float, b: float) -> float:
    """Johnk's Beta(a, b) value for an accepted pair (u, v) whose powers
    u ** (1/a) and v ** (1/b) both underflow to 0: the ratio on a log scale."""
    lx = np.log(max(u, 1e-300)) / a
    ly = np.log(max(v, 1e-300)) / b
    m = max(lx, ly)
    return float(np.exp(lx - m) / (np.exp(lx - m) + np.exp(ly - m)))


# Pair sums x + y this close to 1 decide Johnk's test with scalar pow: the
# array power of the test may round an ulp away from the scalar pow that
# defines each draw.
_NEAR_ONE = 8 * 2.0 ** -52
_array_pow = np.power


def johnk_beta(rng: Rng, n: int, a: float) -> np.ndarray:
    """``n`` Beta(a, a) draws (Johnk's rejection algorithm) in array rounds.

    Each round draws the u's, then the v's, of every pending lane in one
    ``uniform`` call and accepts the lanes where u ** (1/a) + v ** (1/a)
    <= 1; the rest wait for the next round.  The test runs on numpy's array
    pow and is decided again with scalar pow where the sum lies within
    _NEAR_ONE of 1, and an accepted lane's value x / (x + y) comes from
    scalar pow (`johnk_log_ratio` where both powers underflow), so the
    draws do not depend on how numpy's array pow rounds.
    """
    inv = 1.0 / a
    lam = np.empty(n)
    pending = np.arange(n)
    while pending.size:
        u, v = rng.uniform(2 * pending.size).reshape(2, -1)
        total = _array_pow(u, inv) + _array_pow(v, inv)
        accept = total <= 1.0
        near = np.flatnonzero(np.abs(total - 1.0) <= _NEAR_ONE)
        for k, uk, vk in zip(near.tolist(), u[near].tolist(), v[near].tolist()):
            accept[k] = math.pow(uk, inv) + math.pow(vk, inv) <= 1.0
        us, vs = u[accept].tolist(), v[accept].tolist()
        x, y = np.array([math.pow(w, inv) for w in us + vs]).reshape(2, -1)
        with np.errstate(invalid="ignore"):
            ratio = x / (x + y)
        for k in np.flatnonzero(x + y == 0.0).tolist():
            ratio[k] = johnk_log_ratio(us[k], vs[k], a, a)
        lam[pending[accept]] = ratio
        pending = pending[~accept]
    return lam


class Replay:
    """The stream of an Rng read one draw at a time, in stream order.

    Use as ``with rng.replay() as draws:``.  Raws come from ``Rng.raw`` in
    blocks of REPLAY_BLOCK; on exit, also by an exception, the Rng's
    counter is set to just past the last raw handed out, so the replay
    consumes exactly the draws of the equivalent scalar calls.  Nothing
    else may draw from the Rng while the replay is open.
    """

    def __init__(self, rng: Rng):
        self._rng = rng
        self._base = rng._counter  # stream position of _buf[0]
        self._buf: list[int] = []
        self._pos = 0

    def __enter__(self) -> "Replay":
        return self

    def __exit__(self, *exc) -> None:
        self._rng._counter = self._base + self._pos

    def raw(self) -> int:
        """The next raw draw, as ``int(rng.raw(1)[0])`` would give it."""
        if self._pos == len(self._buf):
            self._base += self._pos
            self._buf = self._rng.raw(REPLAY_BLOCK).tolist()
            self._pos = 0
        self._pos += 1
        return self._buf[self._pos - 1]
