"""Seeded synthetic-data generators for the simulation studies.

Every random draw comes from a self-contained 64-bit generator, so a dataset
depends only on its spec and seed, not on numpy's generators.  The
algorithms, spelled out so another implementation can match the stream:

    seeding      splitmix64 expands the seed (an integer in [0, 2^64), read
                 by ``densities._seed``) into the 256-bit state
    core         xoshiro256++ (rotl(s0 + s3, 23) + s0 output function)
    uniforms     top 53 bits of each word, scaled by 2^-53 -> [0, 1)
    normals      Box-Muller pairs (u1 redrawn while it is 0); the sine of a
                 pair is returned on the next call, so draws consume the
                 stream in fixed order however they are batched
    bounded ints Lemire multiply-shift with rejection (unbiased), taken on
                 32-bit halves for all of a shuffle's bounds at once; the
                 words after a rejected one are read again for the bounds left
    shuffling    backward Fisher-Yates over row indices

Draws are taken in bulk (``words``, ``randoms``, ``normals``) and give the
same values as the one-at-a-time calls: every word, bulk or not, is the
next one of a single xoshiro256++ stream.  The stream is drawn ahead in
numpy lanes: ``_steps`` writes the xoshiro256++ step once over a (4, L)
uint64 state, and each of the L lanes makes B consecutive words.  The state
transition is linear over GF(2), so lane j starts j B steps ahead through
cached jumps of 2^k steps (Haramoto et al. 2008), each twice the one
before.  A jump is kept as a uint64 XOR table with one row of 16 entries
per nibble of the state, 32 KB per jump, cached only for the jumps a lane
pass reads, and applied exactly, with table lookups and XOR.
A refill draws exactly the words that are missing, and ``generate``
counts the words a dataset will read before it draws, so it takes them
all in one lane pass.
No BLAS call reaches a drawn value: the affine maps are written out
elementwise, x = center + sum_j z_j * L[:, j] and y = sum_j x_j * slope_j
+ intercept + eps, each sum taken left to right, where a BLAS kernel may
fuse a multiply and an add; ``cholesky_lower`` sums the factor L's inner
products left to right as well.  What is left of platform dependence is
libm's ``log``, ``sin`` and ``cos``, taken from ``math``.

A scenario is a list of groups, each drawing x from a Gaussian law and y
from the line slope'x + intercept plus Gaussian noise, optionally
augmented with uniform background points over a box.  Tables quote sigma
(standard deviations), not variances; specs store standard deviations.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, replace

import numpy as np

# cholesky_lower is not called here (a law carries its factor as ``chol``);
# perfbench/tracing.py still looks it up in this module.
from .densities import GaussianParams, _integer, _real, _seed, cholesky_lower  # noqa: F401
from .model import NOISE, Dataset, LinearMap

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15

#: Names accepted by builtin_scenario; the _s2/_s4 suffix selects sigma.
SCENARIO_NAMES = (
    "ex1",
    "ex2",
    "ex3",
    "ex4_s2",
    "ex4_s4",
    "ex5_s2",
    "ex5_s4",
    "ex6_s2",
    "ex6_s4",
)


def _splitmix64(state: int):
    """Yield the splitmix64 stream started at ``state``."""
    while True:
        state = (state + _GOLDEN) & _MASK64
        z = state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
        yield z ^ (z >> 31)


_U23, _U41, _U17, _U45, _U19, _U32 = (np.uint64(k) for k in (23, 41, 17, 45, 19, 32))
_LOW32 = np.uint64(0xFFFFFFFF)


def _steps(s: np.ndarray, n: int) -> np.ndarray:
    """Take n xoshiro256++ steps on every column of the (4, L) uint64 state
    ``s``, in place, and return the (n, L) words they output: column j is the
    stream of lane j.  The loop keeps s0 and s3 of every step (the words
    depend on nothing else) and forms all the words after it.  Every operand
    is a uint64, so the wraparound sums and the shifts read alike under
    numpy 1.x's value-based casting and NEP 50."""
    first, last = np.empty((2, n + 1, s.shape[1]), np.uint64)  # s0, s3 before each step
    first[0], last[0] = s[0], s[3]
    s1, s2 = s[1], s[2]
    t, u = np.empty_like(s1), np.empty_like(s1)
    for s0, s0_next, s3, s3_next in zip(first, first[1:], last, last[1:]):
        np.left_shift(s1, _U17, out=t)
        s2 ^= s0
        np.bitwise_xor(s3, s1, out=u)
        s1 ^= s2
        np.bitwise_xor(s0, u, out=s0_next)
        s2 ^= t
        np.left_shift(u, _U45, out=t)
        np.right_shift(u, _U19, out=s3_next)
        s3_next |= t
    s[0], s[3] = first[n], last[n]
    first, last = first[:n], last[:n]
    last += first  # each word is rotl(s0 + s3, 23) + s0
    out = last << _U23
    last >>= _U41
    out |= last
    out += first
    return out


@functools.cache
def _rows(k: int) -> np.ndarray:
    """The (256, 4) uint64 array whose row i is the unit state e_i (bit i % 64
    of word i // 64) moved 2^k steps.  The step is linear over GF(2), so a
    state moves as the XOR of the rows of its set bits.  The rows of k > 0
    are those of k - 1 moved 2^(k - 1) steps, through a table of one row of
    16 entries per nibble (32 KB) built for that doubling and then dropped:
    only the jumps a lane pass reads stay cached, in ``_table``."""
    if k == 0:
        i = np.arange(256)
        unit = np.zeros((4, 256), np.uint64)
        unit[i // 64, i] = np.uint64(1) << (i % 64).astype(np.uint64)
        _steps(unit, 1)
        rows = unit.T.copy()
    else:
        rows = _apply(_rows(k - 1), _xor_table(_rows(k - 1)))
    rows.flags.writeable = False  # cached: every caller shares it
    return rows


def _xor_table(rows: np.ndarray) -> np.ndarray:
    """The (64, 16, 4) uint64 lookup table, 32 KB, of the jump whose unit
    states move to ``rows``: entry [q, v] is the XOR of rows 4 q + b over the
    set bits b of the nibble v, so it moves nibble q of a state (bits
    4 q .. 4 q + 3), read as v, as far as the jump goes."""
    rows = rows.reshape(64, 4, 4)
    table = np.zeros((64, 16, 4), np.uint64)
    for b in range(4):
        np.bitwise_xor(table[:, : 1 << b], rows[:, b, None], out=table[:, 1 << b : 2 << b])
    return table


@functools.cache
def _table(k: int) -> np.ndarray:
    """The jump of 2^k steps as ``_xor_table(_rows(k))``: one row of 16
    entries per nibble of the state, 32 KB per jump, cached only for the
    jumps a lane pass reads (``_rows`` builds and drops the others)."""
    table = _xor_table(_rows(k))
    table.flags.writeable = False
    return table


# Nibble q = 2 p + h of a state is the low (h = 0) or high (h = 1) half of
# its byte p, and its table entries start at flat row 16 q = 32 p + 16 h:
# _NIBBLES[h, v] is the row, past 32 p, that nibble picks when the byte reads
# v.  The uint8 mask and shift, like _steps' uint64 operands, read alike
# under numpy 1.x's value-based casting and NEP 50.
_OCTET = np.arange(256, dtype=np.uint8)
_NIBBLES = np.stack(
    (_OCTET & np.uint8(15), (_OCTET >> np.uint8(4)) + np.uint8(16))
).astype(np.intp)
_OFFSETS = 32 * np.arange(32)[:, None]  # flat row 32 p starts byte p's two nibbles


def _apply(states: np.ndarray, table: np.ndarray) -> np.ndarray:
    """The (m, 4) uint64 states moved by the jump of ``table`` (one row of
    16 entries per nibble, 32 KB per jump, cached only for lane jumps): the
    XOR over their 64 nibbles of the table entries those nibbles pick.  One
    gather from ``_NIBBLES`` turns each of the 32 little-endian bytes into
    the table rows of its two nibbles; these index the leading axis, so the
    reduce XORs whole (m, 4) slabs."""
    octets = np.ascontiguousarray(states, dtype="<u8").view(np.uint8)
    picks = _NIBBLES.take(octets.T, axis=1)
    picks += _OFFSETS
    picked = table.reshape(-1, 4).take(picks.reshape(64, -1), axis=0)
    return np.bitwise_xor.reduce(picked, axis=0)


def _lanes(state: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
    """At least n >= 1 words of the stream from the 4-word ``state``, and the
    state after them.  L lanes of B = 2^b consecutive words run side by side, B
    about sqrt(n / 4); lane j starts j B steps ahead, reached by doubling the
    set of lane starts through the XOR tables of B, 2 B, 4 B, ... steps."""
    b = max(n.bit_length() - 2, 0) // 2
    count = -(-n // (1 << b))
    starts = np.empty((count, 4), np.uint64)
    starts[0] = state
    done, k = 1, b
    while done < count:
        m = min(done, count - done)
        starts[done : done + m] = _apply(starts[:m], _table(k))
        done += m
        k += 1
    lanes = np.ascontiguousarray(starts.T)
    words = _steps(lanes, 1 << b).T.ravel()
    return words, lanes[:, -1].copy()


def _multiply_shift(w: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Lemire's j = w b >> 64 for uint64 words w and bounds b <= 2^32, taken
    on w's 32-bit halves so that no product leaves uint64, and the mask of
    words whose low half w b mod 2^64 is below b: only those can Lemire's
    rule reject, since its threshold 2^64 mod b is below b."""
    hi, lo = w >> _U32, w & _LOW32
    return (hi * b + (lo * b >> _U32)) >> _U32, w * b < b


class Xoshiro256:
    """xoshiro256++ seeded through splitmix64, with the derived draws
    (uniforms, normals, bounded ints) documented in the module docstring.
    Not thread-safe; share nothing between concurrent fits.

    ``words(n)``, ``randoms(n)`` and ``normals(n)`` return the next n words,
    uniforms and normals of the stream however the draws are batched: a
    normal left over from an odd count waits as the spare for the next call.
    Every draw reads through ``words``, from one buffer of words drawn ahead
    of the stream position; when it runs short, ``_lanes`` appends just the
    words that are missing (the buffer is not copied when nothing of it is
    left unread), and the state moves past them.  ``generate`` asks for the
    count its dataset reads, in one lane pass, before its first draw; a
    redrawn zero u1 reads on through further refills, and a word Lemire's
    rule rejects is skipped by re-reading the buffer after it.
    """

    def __init__(self, seed: int):
        g = _splitmix64(_seed(seed))
        self._state = np.array([next(g) for _ in range(4)], np.uint64)
        self._ahead = np.empty(0, np.uint64)
        self._pos = 0  # the next word of the stream is self._ahead[self._pos]
        self._spare_normal: float | None = None

    def _refill(self, n: int) -> None:
        """Draw ahead just the words missing for n to be left unread."""
        words, self._state = _lanes(self._state, n - (self._ahead.size - self._pos))
        if self._pos < self._ahead.size:
            words = np.concatenate((self._ahead[self._pos :], words))
        self._ahead, self._pos = words, 0

    def next_u64(self) -> int:
        return self.words(1).item()

    def words(self, n: int) -> np.ndarray:
        """The next n words as a uint64 array."""
        n = _integer("n", n, low=0)
        if self._pos + n > self._ahead.size:
            self._refill(n)
        self._pos += n
        return self._ahead[self._pos - n : self._pos]

    def randoms(self, n: int) -> np.ndarray:
        """n uniform doubles in [0, 1), the top 53 bits of n words."""
        return (self.words(n) >> np.uint64(11)) * 2.0**-53

    def normals(self, n: int) -> np.ndarray:
        """n standard normals: the spare first, if any, then Box-Muller pairs
        over word pairs; an odd count keeps the last sine as the new spare.
        log, cos and sin come from ``math`` so that a value does not depend
        on how the draws are batched (numpy's log rounds differently)."""
        n = _integer("n", n, low=0)
        out = np.empty(n)
        k = 0
        if n and self._spare_normal is not None:
            out[0], self._spare_normal = self._spare_normal, None
            k = 1
        m = (n - k + 1) // 2
        if m:
            u = self.randoms(2 * m)
            zero = np.flatnonzero(u[::2] == 0.0)
            while zero.size:  # log(0) guard: drop a zero u1, shift, draw one more
                p = 2 * zero[0]
                u = np.concatenate((u[:p], u[p + 1 :], self.randoms(1)))
                zero = np.flatnonzero(u[::2] == 0.0)
            r = np.sqrt(-2.0 * np.fromiter(map(math.log, u[::2].tolist()), float, m))
            theta = (2.0 * math.pi * u[1::2]).tolist()
            pairs = np.empty((m, 2))
            pairs[:, 0] = r * np.fromiter(map(math.cos, theta), float, m)
            pairs[:, 1] = r * np.fromiter(map(math.sin, theta), float, m)
            out[k:] = pairs.ravel()[: n - k]
            if (n - k) % 2:
                self._spare_normal = float(pairs[-1, 1])
        return out

    def permutation(self, n: int) -> np.ndarray:
        """Backward Fisher-Yates permutation of range(n).  The n - 1 words are
        drawn at once and bound by n, n - 1, ..., 2 together.  Lemire's rule
        rejects a word whose low half w b mod 2^64 is below 2^64 mod b
        (probability below n^2 / 2^64): the swaps before it stand, and the
        stream position moves back to just after it, to redo the rest."""
        n = _integer("n", n, low=0)
        perm = list(range(n))
        top = n - 1  # the swaps for i = top, top - 1, ..., 1 are left
        while top > 0:
            w = self.words(top)
            bounds = np.arange(top + 1, 1, -1, dtype=np.uint64)
            js, unsure = _multiply_shift(w, bounds)
            kept = top
            if unsure.any():
                b = bounds[unsure]
                rejected = np.flatnonzero(unsure)[w[unsure] * b < (0 - b) % b]
                if rejected.size:
                    kept = rejected.item(0)
                    self._pos -= top - kept - 1  # read again from the word after it
            for i, j in zip(range(top, top - kept, -1), js[:kept].tolist()):
                perm[i], perm[j] = perm[j], perm[i]
            top -= kept
        return np.array(perm, dtype=np.intp)


@dataclass(frozen=True, eq=False)
class GroupSpec:
    """One generating group: x-law, regression line, and conditional noise."""

    n: int
    x_law: GaussianParams
    slope: np.ndarray
    intercept: float
    noise_sd: float

    def __post_init__(self):
        object.__setattr__(self, "n", _integer("n", self.n))
        if self.n < 1:
            raise ValueError("each group needs n >= 1")
        line = LinearMap(self.slope, self.intercept)
        object.__setattr__(self, "slope", line.slope)
        object.__setattr__(self, "intercept", line.intercept)
        object.__setattr__(self, "noise_sd", _real("noise_sd", self.noise_sd, positive=True))
        if not isinstance(self.x_law, GaussianParams):
            raise ValueError("x_law must be a GaussianParams")
        if line.slope.shape[0] != self.x_law.dim:
            raise ValueError("slope length must match the x-law dimension")


@dataclass(frozen=True, eq=False)
class NoiseSpec:
    """Uniform background points over a box of d+1 intervals (x then y)."""

    count: int
    box: tuple[tuple[float, float], ...]

    def __post_init__(self):
        object.__setattr__(self, "count", _integer("noise count", self.count))
        if self.count < 1:
            raise ValueError("noise count must be >= 1")
        box = tuple((_real("box bound", lo), _real("box bound", hi)) for lo, hi in self.box)
        if not box:
            raise ValueError("box needs at least two intervals (x and y)")
        if not all(lo <= hi for lo, hi in box):
            raise ValueError("box intervals must be nonempty")
        object.__setattr__(self, "box", box)


@dataclass(frozen=True, eq=False)
class ScenarioSpec:
    groups: tuple[GroupSpec, ...]
    noise: NoiseSpec | None = None
    seed: int = 0

    def __post_init__(self):
        groups = tuple(self.groups)
        if not groups:
            raise ValueError("scenario needs at least one group")
        d = groups[0].x_law.dim
        if any(g.x_law.dim != d for g in groups):
            raise ValueError("all groups must share the x dimension")
        object.__setattr__(self, "groups", groups)
        if self.noise is not None and len(self.noise.box) != d + 1:
            raise ValueError(f"noise box must have {d + 1} intervals")
        object.__setattr__(self, "seed", _seed(self.seed))

    @property
    def d(self) -> int:
        return self.groups[0].x_law.dim

    @property
    def n_total(self) -> int:
        extra = self.noise.count if self.noise is not None else 0
        return sum(g.n for g in self.groups) + extra

    def with_seed(self, seed: int) -> "ScenarioSpec":
        return replace(self, seed=seed)


def _rank_one_sum(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a @ b as the sum of a[:, j:j+1] * b[j] taken left to right: one
    rounding per product and per addition on every platform, where a BLAS
    kernel may fuse a multiply and an add."""
    out = a[:, :1] * b[0]
    for j in range(1, b.shape[0]):
        out = out + a[:, j : j + 1] * b[j]
    return out


def _words_read(spec: ScenarioSpec) -> int:
    """The words ``generate(spec)`` reads, but for a redrawn zero u1 or a
    Lemire rejection: 2 per Box-Muller pair of the groups' x and y normals
    (the spare carries across calls), d + 1 per noise row and N - 1 for the
    shuffle."""
    normals = sum(g.n for g in spec.groups) * (spec.d + 1)
    noise = spec.noise.count * (spec.d + 1) if spec.noise is not None else 0
    return 2 * -(-normals // 2) + noise + spec.n_total - 1


def generate(spec: ScenarioSpec) -> Dataset:
    """Draw the scenario: per-group x and y in listed order, then noise rows,
    then one seeded row shuffle so fitting cannot exploit ordering.  All the
    groups' normals are drawn in one call; each group reads its n d x normals
    row by row (x = center + L z), then its n noise normals."""
    rng = Xoshiro256(spec.seed)
    rng._refill(_words_read(spec))
    d = spec.d
    z = rng.normals(sum(g.n for g in spec.groups) * (d + 1))
    xs, ys, labels = [], [], []
    for g, group in enumerate(spec.groups, start=1):
        n, law = group.n, group.x_law
        zx, eps, z = z[: n * d], z[n * d : n * (d + 1)], z[n * (d + 1) :]
        x = law.center + _rank_one_sum(zx.reshape(n, d), law.chol.T)
        xs.append(x)
        line = _rank_one_sum(x, group.slope[:, None])[:, 0] + group.intercept
        ys.append(line + group.noise_sd * eps)
        labels.append(np.full(group.n, g))
    if spec.noise is not None:
        lo, hi = np.array(spec.noise.box).T
        pts = lo + (hi - lo) * rng.randoms(spec.noise.count * (d + 1)).reshape(-1, d + 1)
        xs.append(pts[:, :d])
        ys.append(pts[:, d])
        labels.append(np.full(spec.noise.count, NOISE))
    x = np.vstack(xs)
    y = np.concatenate(ys)
    lab = np.concatenate(labels)
    perm = rng.permutation(x.shape[0])
    return Dataset(x[perm], y[perm], lab[perm])


def _line_group(n, mu, sigma, intercept, slope, noise_sd) -> GroupSpec:
    return GroupSpec(n, GaussianParams([mu], [[sigma**2]]), [slope], intercept, noise_sd)


def builtin_scenario(name: str) -> ScenarioSpec:
    """Published simulation design by name (seed 0; swap with ``with_seed``).

    ex1-ex3 are clean two- and three-group designs; ex4/ex5/ex6 add uniform
    background noise and come in sigma = 2 and sigma = 4 flavors.
    """
    if name not in SCENARIO_NAMES:
        raise ValueError(f"unknown scenario {name!r}; choose from {SCENARIO_NAMES}")
    if name == "ex1":
        return ScenarioSpec(
            (
                _line_group(100, 10.0, 2.0, 2.0, 6.0, 2.0),
                _line_group(200, -10.0, 2.0, 4.0, -6.0, 2.0),
            )
        )
    if name == "ex2":
        return ScenarioSpec(
            (
                _line_group(100, 5.0, 1.0, 40.0, 6.0, 2.0),
                _line_group(200, 10.0, 2.0, 40.0, -1.5, 1.0),
                _line_group(150, 20.0, 3.0, 150.0, 7.0, 2.0),
            )
        )
    if name == "ex3":
        # three groups along the same line y = 2 + 6x
        return ScenarioSpec(
            (
                _line_group(100, 5.0, 2.0, 2.0, 6.0, 2.0),
                _line_group(200, 20.0, 1.0, 2.0, 6.0, 1.0),
                _line_group(150, 40.0, 2.0, 2.0, 6.0, 2.0),
            )
        )
    sigma = 2.0 if name.endswith("_s2") else 4.0
    if name.startswith("ex4"):
        groups = (
            _line_group(100, 5.0, sigma, 40.0, 6.0, sigma),
            _line_group(100, 10.0, sigma, 40.0, -1.5, sigma),
            _line_group(100, 20.0, sigma, 150.0, -7.0, sigma),
        )
        noise = NoiseSpec(50, ((-5.0, 30.0), (-50.0, 130.0)))
    elif name.startswith("ex5"):
        # three lines with a common intercept; half the group sizes of ex4
        groups = (
            _line_group(50, 5.0, sigma, 2.0, 6.0, sigma),
            _line_group(50, 10.0, sigma, 2.0, -1.5, sigma),
            _line_group(50, 40.0, sigma, 2.0, -7.0, sigma),
        )
        noise = NoiseSpec(25, ((-5.0, 30.0), (-50.0, 130.0)))
    else:  # ex6: bivariate x, two groups
        var = sigma**2
        groups = (
            GroupSpec(
                150,
                GaussianParams(np.array([5.0, 20.0]), np.array([[var, -0.1], [-0.1, var]])),
                np.array([6.0, 1.2]),
                0.0,
                sigma,
            ),
            GroupSpec(
                150,
                GaussianParams(np.array([2.0, 4.0]), np.array([[var, 0.1], [0.1, var]])),
                np.array([-1.5, 3.0]),
                0.0,
                sigma,
            ),
        )
        noise = NoiseSpec(50, ((-5.0, 40.0), (-5.0, 40.0), (-20.0, 170.0)))
    return ScenarioSpec(groups, noise)


def crab_perturb(data: Dataset, constant: float) -> Dataset:
    """Copy of ``data`` with ``constant`` added to the second x-variate of the
    25th row (1-based, as the study describes the perturbation)."""
    if data.n < 25:
        raise ValueError("need at least 25 rows")
    if data.d < 2:
        raise ValueError("need at least 2 x-columns")
    x = data.x.copy()
    x[24, 1] += _real("constant", constant)
    labels = None if data.labels is None else data.labels.copy()
    return Dataset(x, data.y.copy(), labels)

