"""Independent reference implementations used as test oracles.

Everything here is computed by a different route than the library under test:
direct formulas in mpmath extended precision, scipy special functions, or
brute-force enumeration.  Nothing imports from cwmix.
"""

import math

import mpmath as mp
import numpy as np

mp.mp.dps = 50


def _vec(v):
    return mp.matrix([mp.mpf(float(x)) for x in np.atleast_1d(v)])


def _mat(m):
    return mp.matrix([[mp.mpf(float(x)) for x in row] for row in np.atleast_2d(m)])


def mvn_logpdf(z, mean, cov):
    """Multivariate normal log-density via the direct determinant formula."""
    z = _vec(z)
    mean = _vec(mean)
    cov = _mat(cov)
    q = len(mean)
    diff = z - mean
    quad = (diff.T * cov**-1 * diff)[0]
    det = mp.det(cov)
    return float(-mp.mpf(q) / 2 * mp.log(2 * mp.pi) - mp.log(det) / 2 - quad / 2)


def mvt_logpdf(z, loc, scale, dof):
    """Multivariate Student-t log-density, direct formula.

    p(z) = Gamma((nu+q)/2) nu^(nu/2) / (Gamma(nu/2) |pi*Sigma|^(1/2)
           [nu + delta]^((nu+q)/2)),  delta = (z-mu)' Sigma^-1 (z-mu).
    """
    z = _vec(z)
    loc = _vec(loc)
    scale = _mat(scale)
    nu = mp.mpf(float(dof))
    q = len(loc)
    diff = z - loc
    delta = (diff.T * scale**-1 * diff)[0]
    det = mp.det(scale)
    logp = (
        mp.loggamma((nu + q) / 2)
        + nu / 2 * mp.log(nu)
        - mp.loggamma(nu / 2)
        - mp.log(mp.pi**q * det) / 2
        - (nu + q) / 2 * mp.log(nu + delta)
    )
    return float(logp)


def log_gamma(x):
    return float(mp.loggamma(mp.mpf(x)))


def digamma(x):
    return float(mp.digamma(mp.mpf(x)))


def trigamma(x):
    return float(mp.psi(1, mp.mpf(x)))


def cwm_joint_terms(components, x, y):
    """Per-component log[pi * p(x|g) * p(y|x,g)] for linear Gaussian components.

    components: list of dicts with keys pi, mu, sigma (x scale, std dev),
    slope, intercept, noise_sd.
    """
    terms = []
    for c in components:
        lx = mvn_logpdf([x], [c["mu"]], [[c["sigma"] ** 2]])
        mean_y = c["slope"] * x + c["intercept"]
        ly = mvn_logpdf([y], [mean_y], [[c["noise_sd"] ** 2]])
        terms.append(float(mp.log(mp.mpf(c["pi"])) + lx + ly))
    return terms


def logsumexp(vals):
    vals = [mp.mpf(v) for v in vals]
    m = max(vals)
    return float(m + mp.log(mp.fsum(mp.e ** (v - m) for v in vals)))


def posterior_from_terms(terms):
    tot = logsumexp(terms)
    return [float(mp.e ** (mp.mpf(t) - tot)) for t in terms]


# --- 64-bit generator references (independent transcriptions) --------------

_M64 = (1 << 64) - 1


def splitmix64_stream(seed):
    """Reference splitmix64; for seed 0 the first word is 0xE220A8397B1DCDAF."""
    state = int(seed) & _M64
    while True:
        state = (state + 0x9E3779B97F4A7C15) & _M64
        z = state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _M64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _M64
        yield z ^ (z >> 31)


def xoshiro256pp_stream(seed):
    """Reference xoshiro256++ whose four state words come from splitmix64."""
    g = splitmix64_stream(seed)
    s = [next(g) for _ in range(4)]

    def rotl(x, k):
        return ((x << k) | (x >> (64 - k))) & _M64

    while True:
        yield (rotl((s[0] + s[3]) & _M64, 23) + s[0]) & _M64
        t = (s[1] << 17) & _M64
        s[2] ^= s[0]
        s[3] ^= s[1]
        s[1] ^= s[2]
        s[0] ^= s[3]
        s[2] ^= t
        s[3] = rotl(s[3], 45)


def box_muller_stream(seed):
    """Reference standard-normal stream: 53-bit uniforms off xoshiro256++,
    Box-Muller pairs emitted cosine first, then sine."""
    g = xoshiro256pp_stream(seed)
    while True:
        u1 = (next(g) >> 11) * 2.0**-53
        while u1 == 0.0:
            u1 = (next(g) >> 11) * 2.0**-53
        u2 = (next(g) >> 11) * 2.0**-53
        r = math.sqrt(-2.0 * math.log(u1))
        yield r * math.cos(2.0 * math.pi * u2)
        yield r * math.sin(2.0 * math.pi * u2)


def kmeans_labels(z, G, rng, max_iter=20):
    """Lloyd's k-means on the N-by-D points z as the library first wrote it:
    an N-by-G-by-D difference summed over its last axis, and each centroid
    the mean of its boolean-masked rows.  Same draws, restarts and stops."""
    n = z.shape[0]
    for _ in range(50):
        centers = z[rng.choice(n, size=G, replace=False)]
        assign = None
        ok = True
        for _ in range(max_iter):
            dist = ((z[:, None, :] - centers[None, :, :]) ** 2).sum(axis=2)
            new_assign = dist.argmin(axis=1)
            if assign is not None and np.array_equal(new_assign, assign):
                break
            assign = new_assign
            counts = np.bincount(assign, minlength=G)
            if np.any(counts == 0):
                ok = False
                break
            centers = np.stack([z[assign == g].mean(axis=0) for g in range(G)])
        if ok:
            return assign
    raise ValueError("k-means produced an empty cluster in every attempt")


class ScalarStream:
    """The generator's draws one value at a time, as cwmix first wrote them:
    53-bit uniforms, Box-Muller normals whose sine waits as a spare, Lemire
    bounded ints (rejecting a low half below 2^64 mod n), Marsaglia-Tsang
    gamma.  Words come from ``words`` when given (a scripted source), else
    from xoshiro256pp_stream(seed)."""

    def __init__(self, seed=0, words=None):
        self.next_u64 = (xoshiro256pp_stream(seed) if words is None else iter(words)).__next__
        self._spare = None

    def random(self):
        return (self.next_u64() >> 11) * 2.0**-53

    def normal(self):
        if self._spare is not None:
            z, self._spare = self._spare, None
            return z
        u1 = self.random()
        while u1 == 0.0:
            u1 = self.random()
        u2 = self.random()
        r = math.sqrt(-2.0 * math.log(u1))
        theta = 2.0 * math.pi * u2
        self._spare = r * math.sin(theta)
        return r * math.cos(theta)

    def normals(self, n):
        return np.array([self.normal() for _ in range(n)])

    def bounded_int(self, n):
        m = self.next_u64() * n
        low = m & _M64
        if low < n:
            threshold = (1 << 64) % n  # (-n) mod n in 64-bit arithmetic
            while low < threshold:
                m = self.next_u64() * n
                low = m & _M64
        return m >> 64

    def gamma(self, shape):
        if shape < 1.0:
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

    def permutation(self, n):
        perm = np.arange(n)
        for i in range(n - 1, 0, -1):
            j = self.bounded_int(i + 1)
            perm[i], perm[j] = perm[j], perm[i]
        return perm


def _sum_ltr(a, b):
    """a @ b for a matrix a and vector b, summed left to right with one
    rounding per product and per addition."""
    out = a[:, 0] * b[0]
    for j in range(1, len(b)):
        out = out + a[:, j] * b[j]
    return out


def generate_scalar(spec, factor):
    """cwmix's generate() as first written, one point at a time: (x, y,
    labels) of the scenario ``spec``, whose x-laws are factored by
    ``factor``.  Only chol @ z and x @ slope are written as left-to-right
    sums, where the original called BLAS."""
    rng = ScalarStream(spec.seed)
    d = spec.d
    xs, ys, labels = [], [], []
    for g, group in enumerate(spec.groups, start=1):
        law = group.x_law
        student = hasattr(law, "dof")
        chol = factor(law.scale if student else law.cov)
        center = law.location if student else law.mean
        x = np.empty((group.n, d))
        for i in range(group.n):
            z = _sum_ltr(chol, rng.normals(d))
            if student:
                z *= math.sqrt(law.dof / (2.0 * rng.gamma(0.5 * law.dof)))
            x[i] = center + z
        eps = group.noise_sd * rng.normals(group.n)
        xs.append(x)
        ys.append(_sum_ltr(x, group.slope) + group.intercept + eps)
        labels.append(np.full(group.n, g))
    if spec.noise is not None:
        pts = np.array([[lo + (hi - lo) * rng.random() for lo, hi in spec.noise.box]
                        for _ in range(spec.noise.count)])
        xs.append(pts[:, :d])
        ys.append(pts[:, d])
        labels.append(np.full(spec.noise.count, 0))  # the NOISE label
    x = np.vstack(xs)
    y = np.concatenate(ys)
    lab = np.concatenate(labels)
    perm = rng.permutation(x.shape[0])
    return x[perm], y[perm], lab[perm]
