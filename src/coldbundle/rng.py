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

Samplers whose draw count depends on the values drawn (rejection loops)
read the stream through :class:`Replay`.  It fetches raws with one
``Rng.raw`` call per block of REPLAY_BLOCK and hands them out one by one
as Python ints.  Since draw ``i`` depends only on (seed, i), handing out
draw ``i`` from a pre-fetched block gives exactly the value a scalar
``raw(1)`` call at counter ``i`` would have; on exit the replay sets the
counter to the first raw it did not hand out, so the stream continues as
if every draw had been a scalar call.  A sampler that fetches raws ahead
in arrays (the stage-3 pseudo-triple sampler) gives the ones it did not use
back with ``Rng.unread``, to the same effect.
"""

from __future__ import annotations

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

    def unread(self, n: int) -> None:
        """Give back the last ``n`` raws drawn: the next draw is the first
        of them again."""
        if not 0 <= n <= self._counter:
            raise ValueError("cannot unread more raws than were drawn")
        self._counter -= n


def johnk_log_ratio(u: float, v: float, a: float, b: float) -> float:
    """Johnk's Beta(a, b) value for an accepted pair (u, v) whose powers
    u ** (1/a) and v ** (1/b) both underflow to 0: the ratio on a log scale."""
    lx = np.log(max(u, 1e-300)) / a
    ly = np.log(max(v, 1e-300)) / b
    m = max(lx, ly)
    return float(np.exp(lx - m) / (np.exp(lx - m) + np.exp(ly - m)))


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

    def uniform(self) -> float:
        """The next draw as a double on [0, 1), equal to ``rng.uniform(1)[0]``:
        the top 53 bits are exact in a double and the scale is a power of
        two."""
        return (self.raw() >> 11) * 2.0 ** -53

    def beta(self, a: float, b: float) -> float:
        """One Beta(a, b) draw (Johnk's rejection algorithm).

        Each attempt takes two uniforms u, v.  Python floats and numpy
        float64 scalars share the C library's pow and IEEE arithmetic, so
        the value equals the same formula on numpy scalars bit for bit
        (numpy's array power may round differently).
        """
        while True:
            u = self.uniform()
            v = self.uniform()
            x = u ** (1.0 / a)
            y = v ** (1.0 / b)
            if x + y <= 1.0:
                if x + y > 0.0:
                    return x / (x + y)
                return johnk_log_ratio(u, v, a, b)
