"""Independent reference implementations used as test oracles.

Everything here is computed by a different route than the library under test:
direct formulas in mpmath extended precision, scipy special functions,
brute-force enumeration, or an earlier algorithm that the current one must
match, bit for bit or within a bound fixed beforehand.  Two reach into
cwmix.  ``plain_em`` is the library's EM loop before SQUAREM, run on the
library's own M- and E-steps, so it stands for the iteration itself.
``projected_gradient`` differentiates the library's log-likelihood by finite
differences, so it judges a fit without reading any M-step formula.
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


# --- stacked column-loop factorization ---------------------------------------

def cholesky_columns(a):
    """Lower Cholesky factor of one matrix or of each of a (G, k, k) stack,
    as cwmix computed it with one numpy column loop for the whole stack: each
    column's inner products by matmul, the same checks and messages."""
    a = np.asarray(a, dtype=float)
    if a.ndim not in (2, 3) or a.shape[-1] != a.shape[-2]:
        raise ValueError(f"expected a square matrix or a stack of them, got shape {a.shape}")
    n = a.shape[-1]
    stack = a.reshape(-1, n, n)
    flat = stack.reshape(-1, n * n)
    scale = np.abs(flat).max(axis=1)
    asym = np.abs(flat - stack.transpose(0, 2, 1).reshape(-1, n * n)).max(axis=1)
    if not ((scale < np.inf) & (asym <= 1e-8 * np.maximum(1.0, scale))).all():
        raise ValueError("matrix is not symmetric")
    diag_max = flat[:, :: n + 1].max(axis=1)
    if not (diag_max > 0.0).all():
        raise ValueError("matrix is not positive definite (non-positive diagonal)")
    floor = 1e-12 * diag_max
    L = np.zeros_like(stack)
    for j in range(n):
        pivot = stack[:, j, j]
        col = stack[:, j + 1 :, j]
        if j:
            row = L[:, j : j + 1, :j]
            pivot = pivot - (row @ row.transpose(0, 2, 1))[:, 0, 0]
            col = col - (L[:, j + 1 :, :j] @ row.transpose(0, 2, 1))[..., 0]
        if not (pivot >= floor).all():
            g = int(np.argmin(pivot >= floor))
            raise ValueError(
                f"matrix is not positive definite (pivot {pivot[g]:.3g} below {floor[g]:.3g})"
            )
        L[:, j, j] = np.sqrt(pivot)
        L[:, j + 1 :, j] = col / L[:, j, j, None]
    return L.reshape(a.shape)


def solve_spd_columns(a, b):
    """Solve a w = b through cholesky_columns: forward then back substitution,
    one numpy row loop for the whole stack, each row's inner products by
    matmul; b is (k,) or (k, m) per matrix, stacked like a."""
    L = cholesky_columns(a)
    L = L.reshape((-1,) + L.shape[-2:])
    b = np.asarray(b, dtype=float)
    shape = b.shape
    w = b.reshape(L.shape[:2] + (-1,))
    n = L.shape[-1]
    fwd = np.zeros_like(w)
    for i in range(n):
        rhs = w[:, i]
        if i:
            rhs = rhs - (L[:, i : i + 1, :i] @ fwd[:, :i])[:, 0]
        fwd[:, i] = rhs / L[:, i, i, None]
    out = np.zeros_like(fwd)
    for i in range(n - 1, -1, -1):
        rhs = fwd[:, i]
        if i + 1 < n:
            rhs = rhs - (L[:, None, i + 1 :, i] @ out[:, i + 1 :])[:, 0]
        out[:, i] = rhs / L[:, i, i, None]
    return out.reshape(shape)


# --- eager dof solve ---------------------------------------------------------

def estimate_dof_eager(delta, weights, q, digamma, trigamma, start=None, bracket=(0.5, 200.0)):
    """The ECME dof solve, written with plain arithmetic: the rising bracket
    edge is scored right after the start, then safeguarded Newton runs on
    the score and slope, each formed afresh from the distances.  The
    library's solve reuses its score pass's buffers in place and must
    return the same floats; ``digamma`` and ``trigamma`` are the library's,
    passed in, because the comparison is bit for bit."""
    delta = np.asarray(delta, dtype=float)
    weights = np.asarray(weights, dtype=float)
    mass = float(weights.sum())
    lo, hi = bracket

    def score(nu):
        t = delta / nu
        b = t / (1.0 + t)
        value = (mass * (digamma((nu + q) / 2.0) - digamma(nu / 2.0) - q / nu)
                 - weights @ np.log1p(t) + (1.0 + q / nu) * (weights @ b))
        return float(value), b

    def slope(nu, b):
        wb, wbb = float(weights @ b), float(weights @ (b * b))
        return (mass * (0.5 * (trigamma((nu + q) / 2.0) - trigamma(nu / 2.0)) + q / nu**2)
                + wbb / nu - q * (2.0 * wb - wbb) / nu**2)

    nu = 0.5 * (lo + hi) if start is None else min(max(float(start), lo), hi)
    value, b = score(nu)
    if not math.isfinite(value):
        raise ValueError("non-finite dof score")
    if value <= 0.0 and (nu == lo or score(lo)[0] <= 0.0):
        return float(lo)
    if value >= 0.0 and (nu == hi or score(hi)[0] >= 0.0):
        return float(hi)
    for _ in range(100):
        if value == 0.0:
            return nu
        if value > 0.0:
            lo = nu
        else:
            hi = nu
        fp = slope(nu, b)
        new = nu - value / fp if fp < 0.0 else lo
        if not lo < new < hi:
            new = 0.5 * (lo + hi)
        if abs(new - nu) < 1e-10 * nu or hi - lo < 1e-10 * nu:
            return new
        nu = new
        value, b = score(nu)
    return nu


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
    bounded ints (rejecting a low half below 2^64 mod n).  Words come from
    ``words`` when given (a scripted source), else from
    xoshiro256pp_stream(seed)."""

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
        chol = factor(group.x_law.cov)
        x = np.empty((group.n, d))
        for i in range(group.n):
            x[i] = group.x_law.mean + _sum_ltr(chol, rng.normals(d))
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


# --- plain EM ----------------------------------------------------------------

def plain_em(data, config, resp):
    """One start of EM as cwmix ran it before SQUAREM: each iteration is one
    M-step from the current responsibilities, then one E-step of the record
    it set, until the log-likelihood's relative change is below
    ``config.rel_tol`` or ``config.max_iter`` iterations have run.  Returns
    the start's ``FitResult`` (start index 0) and the responsibilities of
    its last E-step, kept here rather than read back through the result,
    which would score its model again."""
    from cwmix import em

    const = em._start_constants(data)
    stack = dist = None
    trace = []
    for _ in range(config.max_iter):
        stack, dist = em._m_step(data, config, resp, stack, dist, const)
        terms = em._log_component_terms(stack, dist)
        row_lse = em.log_sum_exp(terms, axis=1)
        loglik = float(row_lse.sum())
        if not math.isfinite(loglik):
            raise em.DegenerateFitError("non-finite log-likelihood")
        trace.append(loglik)
        resp = em._share_exp(terms - row_lse[:, None])
        converged = len(trace) > 1 and abs(trace[-1] - trace[-2]) / (1.0 + abs(trace[-1])) < config.rel_tol
        if converged:
            break
    result = em.FitResult(model=em._unstack(stack), loglik_trace=np.asarray(trace), data=data,
                          converged=converged, start_index=0)
    return result, resp


# --- KKT certificate ---------------------------------------------------------

def projected_gradient(data, model):
    """(gradient, dof): the projected gradient of the log-likelihood
    ``joint_logpdf(model, x, y).sum()`` in SQUAREM's unconstrained
    coordinates (``em._coordinates``), and a mask of the coordinates that
    are log dofs.

    Each coordinate c takes a central difference of step h = 1e-5 max(1, |c|),
    through ``em._from_coordinates`` and ``model._unstack``.  A dof on a
    ``DOF_BRACKET`` edge, where the coordinates are clamped, takes a
    one-sided difference into the bracket instead, and its entry is the
    derivative only when the likelihood rises into the bracket, and 0 when
    it rises beyond the edge: a maximum on the edge is stationary there."""
    from cwmix import em, model as cwm

    stack = cwm._stack(model)
    coords = em._coordinates(stack)

    def loglik(c):
        fitted = cwm._unstack(em._from_coordinates(stack, c))
        return math.fsum(cwm.joint_logpdf(fitted, data.x, data.y))

    dofs = [v for v in (stack.nu, stack.zeta) if v is not None]
    dof_values = np.concatenate(dofs) if dofs else np.empty(0)
    first_dof = coords.size - dof_values.size - (0 if stack.theta is None else stack.theta.size)
    dof = np.zeros(coords.size, dtype=bool)
    dof[first_dof:first_dof + dof_values.size] = True
    lo, hi = em.DOF_BRACKET
    edge = np.zeros(coords.size)  # +1 on the bracket's upper edge, -1 on its lower
    edge[dof] = (dof_values == hi).astype(float) - (dof_values == lo)
    at_centre = loglik(coords)
    gradient = np.empty_like(coords)
    for i, c in enumerate(coords):
        step = np.zeros_like(coords)
        step[i] = h = 1e-5 * max(1.0, abs(c))
        if edge[i] > 0:  # only a fall of the dof stays in the bracket
            gradient[i] = min(0.0, (at_centre - loglik(coords - step)) / h)
        elif edge[i] < 0:
            gradient[i] = max(0.0, (loglik(coords + step) - at_centre) / h)
        else:
            gradient[i] = (loglik(coords + step) - loglik(coords - step)) / (2.0 * h)
    return gradient, dof
