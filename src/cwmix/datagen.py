"""Seeded synthetic-data generators for the simulation studies.

Every random draw comes from a self-contained 64-bit generator, so a dataset
depends only on its spec and seed, not on numpy's generators.  The
algorithms, spelled out so another implementation can match the stream:

    seeding      splitmix64 expands the 64-bit seed into the 256-bit state
    core         xoshiro256++ (rotl(s0 + s3, 23) + s0 output function)
    uniforms     top 53 bits of each word, scaled by 2^-53 -> [0, 1)
    normals      Box-Muller pairs (u1 redrawn while it is 0); the sine of a
                 pair is returned on the next call, so draws consume the
                 stream in fixed order however they are batched
    bounded ints Lemire multiply-shift with rejection (unbiased)
    gamma        Marsaglia-Tsang squeeze (shape >= 1; boosted below 1),
                 used for the chi-square mixing variable of Student-t draws
    shuffling    backward Fisher-Yates over row indices

Draws are taken in bulk (``words``, ``randoms``, ``normals``) and give the
same values as the one-at-a-time calls.  The affine maps are written out
elementwise: x = center + sum_j z_j * L[:, j] and y = sum_j x_j * slope_j +
intercept + eps, each sum taken left to right, so no BLAS kernel (which may
fuse a multiply and an add) touches a drawn value.  What is left of platform
dependence is libm's ``log``, ``sin`` and ``cos``, taken from ``math``, and,
for d >= 3 only, the factor L: ``cholesky_lower`` sums its inner products
through matmul.

A scenario is a list of groups, each drawing x from a Gaussian or Student-t
law and y from the line slope'x + intercept plus Gaussian noise, optionally
augmented with uniform background points over a box.  Tables quote sigma
(standard deviations), not variances; specs store standard deviations.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, replace
from itertools import chain

import numpy as np

from .densities import GaussianParams, StudentParams, cholesky_lower, law_from_dict, law_to_dict
from .model import NOISE, Dataset

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


def _rotl(x: int, k: int) -> int:
    return ((x << k) | (x >> (64 - k))) & _MASK64


def _lemire(n: int, draw) -> int:
    """Unbiased integer in [0, n) by Lemire's multiply-shift over the words
    ``draw()`` returns, redrawing while the low half is below 2^64 mod n."""
    m = draw() * n
    if (m & _MASK64) < n:
        threshold = (1 << 64) % n
        while (m & _MASK64) < threshold:
            m = draw() * n
    return m >> 64


class Xoshiro256:
    """xoshiro256++ seeded through splitmix64, with the derived draws
    (uniforms, normals, bounded ints, gamma) documented in the module
    docstring.  Not thread-safe; share nothing between concurrent fits.

    ``words(n)``, ``randoms(n)`` and ``normals(n)`` are the bulk forms of
    ``next_u64()``, ``random()`` and ``normal()``: each returns an array of
    the same values that n scalar calls would, and leaves the generator
    (state and spare normal) where those calls would.
    """

    def __init__(self, seed: int):
        seed = int(seed)
        if not 0 <= seed <= _MASK64:
            raise ValueError("seed must be an unsigned 64-bit integer")
        g = _splitmix64(seed)
        self._s = [next(g) for _ in range(4)]
        self._spare_normal: float | None = None

    def next_u64(self) -> int:
        s = self._s
        out = (_rotl((s[0] + s[3]) & _MASK64, 23) + s[0]) & _MASK64
        t = (s[1] << 17) & _MASK64
        s[2] ^= s[0]
        s[3] ^= s[1]
        s[1] ^= s[2]
        s[0] ^= s[3]
        s[2] ^= t
        s[3] = _rotl(s[3], 45)
        return out

    def words(self, n: int) -> np.ndarray:
        """The next n words as a uint64 array (``next_u64`` inlined)."""
        s0, s1, s2, s3 = self._s
        out = []
        append = out.append
        for _ in range(n):
            r = (s0 + s3) & _MASK64
            append((((r << 23) | (r >> 41)) + s0) & _MASK64)
            t = (s1 << 17) & _MASK64
            s2 ^= s0
            s3 ^= s1
            s1 ^= s2
            s0 ^= s3
            s2 ^= t
            s3 = ((s3 << 45) | (s3 >> 19)) & _MASK64
        self._s = [s0, s1, s2, s3]
        return np.array(out, dtype=np.uint64)

    def random(self) -> float:
        """Uniform double in [0, 1) with 53 random bits."""
        return (self.next_u64() >> 11) * 2.0**-53

    def randoms(self, n: int) -> np.ndarray:
        """n uniform doubles in [0, 1), the top 53 bits of n words."""
        return (self.words(n) >> np.uint64(11)) * 2.0**-53

    def normal(self) -> float:
        if self._spare_normal is not None:
            z, self._spare_normal = self._spare_normal, None
            return z
        u1 = self.random()
        while u1 == 0.0:  # log(0) guard; probability 2^-53 per draw
            u1 = self.random()
        u2 = self.random()
        r = math.sqrt(-2.0 * math.log(u1))
        theta = 2.0 * math.pi * u2
        self._spare_normal = r * math.sin(theta)
        return r * math.cos(theta)

    def normals(self, n: int) -> np.ndarray:
        """n standard normals: the spare first, if any, then Box-Muller pairs
        over word pairs; an odd count keeps the last sine as the new spare.
        log, cos and sin come from ``math`` so that a value does not depend
        on how the draws are batched (numpy's log rounds differently)."""
        out = np.empty(n)
        k = 0
        if n and self._spare_normal is not None:
            out[0], self._spare_normal = self._spare_normal, None
            k = 1
        m = (n - k + 1) // 2
        if m:
            u = self.randoms(2 * m)
            zero = np.flatnonzero(u[::2] == 0.0)
            while zero.size:  # as normal(): drop a zero u1, shift, draw one more
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

    def bounded_int(self, n: int) -> int:
        """Unbiased integer in [0, n) via Lemire's multiply-shift."""
        if n <= 0:
            raise ValueError("n must be positive")
        return _lemire(n, self.next_u64)

    def gamma(self, shape: float) -> float:
        """Gamma(shape, scale=1) via the Marsaglia-Tsang squeeze."""
        if shape <= 0:
            raise ValueError("shape must be positive")
        if shape < 1.0:
            # boost: Gamma(a) = Gamma(a + 1) * U^(1/a)
            u = self.random()
            while u == 0.0:
                u = self.random()
            return self.gamma(shape + 1.0) * u ** (1.0 / shape)
        d = shape - 1.0 / 3.0
        c = 1.0 / math.sqrt(9.0 * d)
        while True:
            x = self.normal()
            v = 1.0 + c * x
            if v <= 0.0:
                continue
            v = v * v * v
            u = self.random()
            if u == 0.0:
                continue
            if math.log(u) < 0.5 * x * x + d - d * v + d * math.log(v):
                return d * v

    def chi_square(self, dof: float) -> float:
        return 2.0 * self.gamma(0.5 * dof)

    def permutation(self, n: int) -> np.ndarray:
        """Backward Fisher-Yates permutation of range(n).  The n - 1 words
        are drawn at once; a rare Lemire rejection (probability below
        n / 2^64) reads on into the stream, as ``bounded_int`` would."""
        draw = chain(self.words(n - 1).tolist(), iter(self.next_u64, None)).__next__
        perm = list(range(n))
        for i in range(n - 1, 0, -1):
            j = _lemire(i + 1, draw)
            perm[i], perm[j] = perm[j], perm[i]
        return np.array(perm, dtype=np.intp)


@dataclass(frozen=True, eq=False)
class GroupSpec:
    """One generating group: x-law, regression line, and conditional noise."""

    n: int
    x_law: GaussianParams | StudentParams
    slope: np.ndarray
    intercept: float
    noise_sd: float

    def __post_init__(self):
        object.__setattr__(self, "n", int(self.n))
        if self.n < 1:
            raise ValueError("each group needs n >= 1")
        slope = np.atleast_1d(np.asarray(self.slope, dtype=float))
        if slope.ndim != 1:
            raise ValueError("slope must be a vector")
        object.__setattr__(self, "slope", slope)
        object.__setattr__(self, "intercept", float(self.intercept))
        object.__setattr__(self, "noise_sd", float(self.noise_sd))
        if not self.noise_sd > 0:
            raise ValueError("noise_sd must be positive")
        if slope.shape[0] != self.x_law.dim:
            raise ValueError("slope length must match the x-law dimension")


@dataclass(frozen=True, eq=False)
class NoiseSpec:
    """Uniform background points over a box of d+1 intervals (x then y)."""

    count: int
    box: tuple[tuple[float, float], ...]

    def __post_init__(self):
        object.__setattr__(self, "count", int(self.count))
        if self.count < 1:
            raise ValueError("noise count must be >= 1")
        box = tuple((float(lo), float(hi)) for lo, hi in self.box)
        if not box:
            raise ValueError("box needs at least two intervals (x and y)")
        for lo, hi in box:
            if not hi >= lo:
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
        seed = int(self.seed)
        if not 0 <= seed <= _MASK64:
            raise ValueError("seed must be an unsigned 64-bit integer")
        object.__setattr__(self, "seed", seed)

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


def _draw_x(rng: Xoshiro256, law: GaussianParams | StudentParams, n: int) -> np.ndarray:
    """n rows center + L z from the group's x-law, one point per stream
    position.  A Student row scales L z by sqrt(dof / chi2) first; its
    chi-square draw takes a variable number of words, so those rows are
    drawn one point at a time."""
    d = law.dim
    if isinstance(law, GaussianParams):
        z = rng.normals(n * d).reshape(n, d)
        return law.mean + _rank_one_sum(z, cholesky_lower(law.cov).T)
    z = np.empty((n, d))
    scale = np.empty((n, 1))
    for i in range(n):
        z[i] = [rng.normal() for _ in range(d)]
        scale[i] = math.sqrt(law.dof / rng.chi_square(law.dof))
    return law.location + _rank_one_sum(z, cholesky_lower(law.scale).T) * scale


def generate(spec: ScenarioSpec) -> Dataset:
    """Draw the scenario: per-group x and y in listed order, then noise rows,
    then one seeded row shuffle so fitting cannot exploit ordering."""
    rng = Xoshiro256(spec.seed)
    d = spec.d
    xs, ys, labels = [], [], []
    for g, group in enumerate(spec.groups, start=1):
        x = _draw_x(rng, group.x_law, group.n)
        eps = group.noise_sd * rng.normals(group.n)
        xs.append(x)
        ys.append(_rank_one_sum(x, group.slope[:, None])[:, 0] + group.intercept + eps)
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


def _gauss1(mu: float, sigma: float) -> GaussianParams:
    return GaussianParams(np.array([float(mu)]), np.array([[float(sigma) ** 2]]))


def _line_group(n, mu, sigma, intercept, slope, noise_sd) -> GroupSpec:
    return GroupSpec(n, _gauss1(mu, sigma), np.array([float(slope)]), intercept, noise_sd)


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
    x[24, 1] += float(constant)
    labels = None if data.labels is None else data.labels.copy()
    return Dataset(x, data.y.copy(), labels)


# --- JSON mirror -----------------------------------------------------------


def scenario_to_dict(spec: ScenarioSpec) -> dict:
    out = {
        "seed": spec.seed,
        "groups": [
            {
                "n": g.n,
                "x_law": law_to_dict(g.x_law),
                "slope": g.slope.tolist(),
                "intercept": g.intercept,
                "noise_sd": g.noise_sd,
            }
            for g in spec.groups
        ],
    }
    if spec.noise is not None:
        out["noise"] = {
            "count": spec.noise.count,
            "box": [list(iv) for iv in spec.noise.box],
        }
    return out


def scenario_from_dict(doc: dict) -> ScenarioSpec:
    groups = tuple(
        GroupSpec(
            g["n"],
            law_from_dict(g["x_law"]),
            np.asarray(g["slope"], dtype=float),
            g["intercept"],
            g["noise_sd"],
        )
        for g in doc["groups"]
    )
    noise = None
    if doc.get("noise") is not None:
        noise = NoiseSpec(
            doc["noise"]["count"], tuple(tuple(iv) for iv in doc["noise"]["box"])
        )
    return ScenarioSpec(groups, noise, doc.get("seed", 0))


def write_scenario(path, spec: ScenarioSpec) -> None:
    with open(path, "w") as fh:
        json.dump(scenario_to_dict(spec), fh, indent=2)
        fh.write("\n")


def read_scenario(path) -> ScenarioSpec:
    with open(path) as fh:
        return scenario_from_dict(json.load(fh))
