"""Deterministic sampling primitives: splitmix64 and inverse-CDF draws.

The generator is splitmix64, chosen because the whole algorithm fits in a
few lines and can be reimplemented bit-for-bit in any language (see
docs/PRNG.md for the written-out recurrence). Draw i of a stream seeded
with s is

    mix64((s + (i+1) * 0x9E3779B97F4A7C15) mod 2^64)

where mix64 is the splitmix64 finalizer. Because each draw depends only on
its index, the whole stream is computed vectorized with exactly the same
values a sequential loop would produce.

Uniform doubles take the top 53 bits: u = (x >> 11) * 2^-53, giving values
in [0, 1). Inverse-CDF sampling maps u to the first outcome index i with
u < cdf[i]; any u at or beyond the final cumulative value (possible when
the probabilities sum to slightly less than 1) yields the last index.

Counting draws: outcomes 0..i, for i below the last, receive exactly the
draws with u < cdf[i], so outcome i gets #{u < cdf[i]} - #{u < cdf[i-1]}
draws and the last outcome gets the rest. inverse_cdf_counts counts a
bucket of draws (by the top 16 bits of u) that holds no cdf value whole and
sorts only the other draws. It reads a draw's bucket before mix64's last
step, x ^= x >> 31, which leaves the top 31 bits as they are, and finishes
only the draws it keeps. The stream chunk starting at draw j is the
stream seeded with (s + j * 0x9E3779B97F4A7C15) mod 2^64, whose outputs are
outputs j, j+1, ... of seed s, so chunking never changes which output a
draw uses.
"""

from __future__ import annotations

import numpy as np

from .linalg import as_count

GOLDEN_GAMMA = 0x9E3779B97F4A7C15
MIX_MULT_1 = 0xBF58476D1CE4E5B9
MIX_MULT_2 = 0x94D049BB133111EB
_MASK64 = (1 << 64) - 1
# Draws made at once (512 KB arrays, kept in cache), kept draws sorted at
# once (an 8 MB buffer), and buckets by the top 16 bits of a uniform.
SHOT_CHUNK, SORT_CHUNK, BUCKETS = 2**16, 2**20, 2**16


def splitmix64_premix(seed: int, steps: np.ndarray, out: np.ndarray, spare: np.ndarray) -> None:
    """out[i] = mix64((seed + steps[i]) mod 2^64) before its last step,
    x ^= x >> 31, computed in place: `spare` is scratch of out's length and
    `out` may be `steps`."""
    with np.errstate(over="ignore"):
        np.add(steps, np.uint64(seed & _MASK64), out=out)
        for shift, mult in ((30, MIX_MULT_1), (27, MIX_MULT_2)):
            np.right_shift(out, np.uint64(shift), out=spare)
            out ^= spare
            out *= np.uint64(mult)


def _last_step(x: np.ndarray, spare: np.ndarray) -> None:
    """splitmix64's last step, x ^= x >> 31, in place. It leaves the top 31
    bits of x unchanged."""
    np.right_shift(x, np.uint64(31), out=spare)
    x ^= spare


def _steps(count: int) -> np.ndarray:
    """(i + 1) * GOLDEN_GAMMA mod 2^64 for i < count."""
    z = np.arange(1, count + 1, dtype=np.uint64)
    with np.errstate(over="ignore"):
        z *= np.uint64(GOLDEN_GAMMA)
    return z


def splitmix64_stream(seed: int, count: int) -> np.ndarray:
    """The first `count` raw 64-bit outputs for the given seed."""
    seed, count = as_count("seed", seed), as_count("count", count, 0)
    z, spare = _steps(count), np.empty(count, dtype=np.uint64)
    splitmix64_premix(seed, z, z, spare)
    _last_step(z, spare)
    return z


def cdf(probabilities) -> np.ndarray:
    """Cumulative sums of a nonempty 1-D array of finite, nonnegative
    probabilities: nondecreasing, as both draw readings need."""
    p = np.asarray(probabilities, dtype=np.float64)
    if p.ndim != 1 or len(p) == 0:
        raise ValueError("probabilities must be a nonempty 1-D array")
    bad = np.flatnonzero(~(np.isfinite(p) & (p >= 0.0)))
    if bad.size:
        i = int(bad[0])
        raise ValueError(f"probability {float(p[i])!r} at index {i} is negative or not finite")
    return np.cumsum(p)


def inverse_cdf_sample(probabilities, shots: int, seed: int) -> np.ndarray:
    """Outcome indices for `shots` i.i.d. draws from a finite distribution.

    The draw for the uniform u = (x >> 11) * 2^-53 of stream output x is the
    first index i with u < cdf[i]; indices are clipped to the last outcome
    to absorb cumulative rounding shortfall.
    """
    c = cdf(probabilities)
    u = (splitmix64_stream(seed, shots) >> np.uint64(11)) * 2.0**-53
    idx = np.searchsorted(c, u, side="right")
    return np.minimum(idx, len(c) - 1)


def inverse_cdf_counts(probabilities, shots: int, seed: int) -> np.ndarray:
    """How many of inverse_cdf_sample's `shots` draws land on each outcome.

    #{u < cdf[i]} draws land at or below outcome i: a bucket that holds no
    limit is counted whole, and only draws in the others are kept, sorted and
    searched. Memory is O(SHOT_CHUNK + SORT_CHUNK + len(probabilities)).
    """
    c = cdf(probabilities)
    seed, shots = as_count("seed", seed), as_count("shots", shots, 0)  # chunk seeds cannot overflow
    # m < limit[i] exactly when u = m * 2^-53 < cdf[i]; every u is below 1.
    np.minimum(c, 1.0, out=c)
    c *= 2.0**53
    limit = np.ceil(c, out=c).astype(np.uint64)
    edge = (limit >> np.uint64(37)).view(np.intp)  # the bucket holding limit[i], or BUCKETS
    boundary = np.zeros(BUCKETS + 1, dtype=bool)
    boundary[edge] = True
    # Past a quarter of the buckets, bucketing costs more than the sort it saves.
    bucketed = np.count_nonzero(boundary) <= BUCKETS // 4
    hist, below = np.zeros(BUCKETS, dtype=np.int64), np.zeros(len(c), dtype=np.int64)
    # Buffers made once: the step table, a chunk's draws and their scratch,
    # the kept draws (at most SORT_CHUNK - 1 before a chunk adds to them).
    chunk = max(1, min(SHOT_CHUNK, shots))
    steps, spare = _steps(chunk), np.empty(chunk, dtype=np.uint64)
    x, keep = np.empty(chunk, dtype=np.uint64), np.empty(chunk, dtype=bool)
    kept, held = np.empty(min(SORT_CHUNK - 1 + chunk, shots), dtype=np.uint64), 0
    for start in range(0, shots, chunk):
        k = min(chunk, shots - start)
        offset = seed + start * GOLDEN_GAMMA
        if bucketed:
            # The bucket is the top 16 bits, which the last step leaves as
            # they are: only the draws kept in marked buckets are finished.
            splitmix64_premix(offset, steps[:k], x[:k], spare[:k])
            b = np.right_shift(x[:k], np.uint64(48), out=spare[:k]).view(np.intp)
            np.add.at(hist, b, 1)
            np.take(boundary, b, out=keep[:k], mode="clip")
            marked = np.count_nonzero(keep[:k])
            new = np.compress(keep[:k], x[:k], out=kept[held : held + marked])
        else:
            new = kept[held : held + k]
            splitmix64_premix(offset, steps[:k], new, spare[:k])
        _last_step(new, spare[: len(new)])
        new >>= np.uint64(11)
        held += len(new)
        if held >= SORT_CHUNK or start + chunk >= shots:
            kept[:held].sort()
            below += np.searchsorted(kept[:held], limit, side="left")
            held = 0
    if bucketed:
        hist[boundary[:-1]] = 0
        below += np.concatenate(([0], np.cumsum(hist)))[edge]
    counts = np.diff(below, prepend=0)
    counts[-1] += shots - below[-1]
    return counts
