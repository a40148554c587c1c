"""The seeded generator and the scenario specs of cwmix.datagen.

The bulk draws (words, randoms, normals, permutation) are checked value for
value against the one-at-a-time draws and the reference streams in
oracles.py, and generate() against the one-point-at-a-time generator kept
there.
"""

import dataclasses
import hashlib
import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import ScalarStream, box_muller_stream, generate_scalar, xoshiro256pp_stream

from cwmix import datagen
from cwmix.datagen import (
    SCENARIO_NAMES,
    GroupSpec,
    NoiseSpec,
    ScenarioSpec,
    Xoshiro256,
    _apply,
    _multiply_shift,
    _splitmix64,
    _steps,
    _table,
    builtin_scenario,
    crab_perturb,
    generate,
)
from cwmix.densities import GaussianParams, StudentParams, cholesky_lower, solve_spd
from cwmix.model import Dataset

SIZES = (0, 1, 2, 7, 64, 1001, 2047, 2048, 2049, 70001)


class ScriptedWords(Xoshiro256):
    """A generator whose words come from ``script`` first, then from the
    seed-0 stream, so that rare branches can be forced: the script is loaded
    into the buffer of words drawn ahead, which every draw reads."""

    def __init__(self, script):
        super().__init__(0)
        self._ahead = np.array(script, np.uint64)


def _scripted_pair(script):
    """A scripted generator and the scalar oracle reading the same words."""
    return ScriptedWords(script), ScalarStream(words=itertools.chain(script, xoshiro256pp_stream(0)))


def _design(name):
    return _full_d3_spec() if name == "full_d3" else builtin_scenario(name)


def _scaled(name, factor):
    spec = _design(name)
    groups = tuple(dataclasses.replace(g, n=g.n * factor) for g in spec.groups)
    noise = spec.noise and dataclasses.replace(spec.noise, count=spec.noise.count * factor)
    return dataclasses.replace(spec, groups=groups, noise=noise)


def _digest(data):
    h = hashlib.sha256()
    for a in (data.x, data.y, data.labels):
        h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()


# --- the stream ---------------------------------------------------------------


def test_splitmix64_published_vector():
    g = _splitmix64(0)
    assert [next(g) for _ in range(3)] == [
        0xE220A8397B1DCDAF, 0x6E789E6AA1B965F4, 0x06C45D188009454F]


def test_xoshiro_first_words_seed_zero():
    rng = Xoshiro256(0)
    assert [rng.next_u64(), rng.next_u64()] == [0x53175D61490B23DF, 0x61DA6F3DC380D507]
    ref = xoshiro256pp_stream(0)
    assert Xoshiro256(0).words(100).tolist() == [next(ref) for _ in range(100)]


@pytest.mark.parametrize("n", SIZES)
def test_words_equal_next_u64_calls(n):
    bulk, one, ref = Xoshiro256(5), Xoshiro256(5), xoshiro256pp_stream(5)
    w = bulk.words(n)
    assert w.dtype == np.uint64 and w.shape == (n,)
    assert w.tolist() == [one.next_u64() for _ in range(n)] == [next(ref) for _ in range(n)]
    assert [bulk.next_u64() for _ in range(3)] == [one.next_u64() for _ in range(3)]


def test_interleaved_draws_read_one_stream():
    """Scalar and bulk reads across the refills of the drawn-ahead words."""
    rng, ref = Xoshiro256(21), xoshiro256pp_stream(21)
    for k in (1, 3, 2048, 5, 40000):
        assert rng.next_u64() == next(ref)
        assert rng.words(k).tolist() == [next(ref) for _ in range(k)]
    assert rng.next_u64() == next(ref)


def test_jump_matrices_move_a_state_two_to_k_steps():
    """The jump matrices, kept as XOR tables read a nibble of the state at a time."""
    g = _splitmix64(13)
    state = np.array([next(g) for _ in range(4)], np.uint64)[:, None]
    ref = list(itertools.islice(xoshiro256pp_stream(13), 2**12 + 4))
    for k in range(13):
        ahead = _apply(state.T, _table(k)).T
        assert _steps(ahead, 4)[:, 0].tolist() == ref[2**k : 2**k + 4]


_STATES = st.lists(st.integers(0, 2**64 - 1), min_size=8, max_size=8).map(
    lambda w: np.array(w, np.uint64).reshape(2, 4))


@settings(max_examples=20, deadline=None)
@given(_STATES)
def test_jump_tables_double_and_are_linear(states):
    """For every jump a x100 design takes (140,000 words: lanes of 2^8 words,
    jumps of 2^8 up to 2^17 steps), 2^(k+1) steps are 2^k steps twice, and
    a jump moves s ^ t to the XOR of where it moves s and t."""
    s, t = states[:1], states[1:]
    for k in range(18):
        table = _table(k)
        assert np.array_equal(_apply(s, _table(k + 1)), _apply(_apply(s, table), table))
        assert np.array_equal(_apply(s ^ t, table), _apply(s, table) ^ _apply(t, table))


def test_only_the_jumps_a_lane_pass_reads_stay_cached(monkeypatch):
    """From empty caches, a set-up leaves just the 32 KB tables its lane pass
    read cached: with L lanes of 2^b words, the jumps of 2^k steps for k = b
    .. b + ceil(log2 L) - 1.  The tables that derive the rows below them are
    dropped."""
    calls, steps = [], datagen._steps
    monkeypatch.setattr(datagen, "_steps", lambda s, n: calls.append((s.shape[1], n)) or steps(s, n))
    for factor in (1, 100):
        datagen._rows.cache_clear()
        datagen._table.cache_clear()
        generate(_scaled("ex4_s2", factor).with_seed(1))
        lanes, length = calls[-1]  # the lane pass is the last _steps call
        b = length.bit_length() - 1
        read = range(b, b + (lanes - 1).bit_length())
        cached = datagen._table.cache_info()
        assert cached.currsize == len(read)
        for k in read:  # each is a hit, so the cache holds these and no other
            table = _table(k)
            assert table.shape == (64, 16, 4) and table.nbytes == 64 * 16 * 4 * 8
        assert datagen._table.cache_info().hits == cached.hits + len(read)


_DRAWS = st.lists(st.tuples(
    st.sampled_from(["next_u64", "words", "randoms", "normals", "permutation"]),
    st.integers(0, 2500)), max_size=8)


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 2**64 - 1), st.integers(1, 5000), _DRAWS)
def test_sized_request_then_any_draws_read_one_stream(seed, sized, draws):
    """The exact request generate() makes, then any mix of incremental draws
    (each refilling just what it misses), read the one stream."""
    rng, ref = Xoshiro256(seed), ScalarStream(seed)
    rng._refill(sized)
    for kind, n in draws:
        if kind == "next_u64":
            assert rng.next_u64() == ref.next_u64()
        elif kind == "words":
            assert rng.words(n).tolist() == [ref.next_u64() for _ in range(n)]
        elif kind == "randoms":
            assert rng.randoms(n).tolist() == [ref.random() for _ in range(n)]
        elif kind == "normals":
            assert rng.normals(n).tolist() == [ref.normal() for _ in range(n)]
        else:
            assert np.array_equal(rng.permutation(n), ref.permutation(n))
    assert rng.next_u64() == ref.next_u64()


@pytest.mark.parametrize("n", SIZES)
def test_randoms_equal_random_calls(n):
    bulk, one = Xoshiro256(11), ScalarStream(11)
    u = bulk.randoms(n)
    assert u.tolist() == [one.random() for _ in range(n)]
    assert bulk.next_u64() == one.next_u64()


def test_normals_carry_the_spare_across_calls():
    bulk, one = Xoshiro256(3), ScalarStream(3)
    ref = box_muller_stream(3)
    for n in (1, 2, 3, 0, 4, 7, 1, 1, 64, 5):  # odd and even, with and without a spare
        z = bulk.normals(n)
        assert z.tolist() == [one.normal() for _ in range(n)]
        assert [float(v) for v in z] == [next(ref) for _ in range(n)]
    assert bulk.normals(1).tolist() == [one.normal()]
    assert bulk.next_u64() == one.next_u64()


@pytest.mark.parametrize("script", [
    [5, 1 << 63, 3 << 62],  # first u1 is zero
    [1 << 62, 1 << 61, 7, 1 << 60, 1 << 59],  # second pair's u1 is zero
    [0, 2047, 1 << 62, 1 << 61],  # two zero u1 in a row
    [1 << 62, 0, 0, 1 << 61],  # a zero u2 is kept; the next zero u1 is redrawn
])
def test_normals_redraw_a_zero_u1(script):
    bulk, one = _scripted_pair(script)
    assert bulk.normals(5).tolist() == [one.normal() for _ in range(5)]
    assert bulk.next_u64() == one.next_u64()


@pytest.mark.parametrize("n", [0, 1, 2, 3, 10, 257])
def test_permutation_equals_scalar_fisher_yates(n):
    perm = Xoshiro256(9).permutation(n)
    ref = ScalarStream(9).permutation(n)
    assert perm.dtype == ref.dtype
    assert np.array_equal(perm, ref)
    assert sorted(perm.tolist()) == list(range(n))


_HI = 0xF000000000000000  # j = n - 1 for n <= 16
_LO = 0x1000000000000000  # j = 0 for n <= 16


@pytest.mark.parametrize("n, script, sized", [
    # bound 3 rejects 0; the redraw is the second word drawn in bulk
    pytest.param(3, [0], 0, id="3-script0"),
    # same at bound 3
    pytest.param(5, [0xC000000000000000, 0x8000000000000000, 0, _HI, _LO], 0, id="5-script1"),
    # bound 5 rejects twice, bound 3 once
    pytest.param(5, [0, 0, _HI, _LO, _HI, 0, _LO], 0, id="5-script2"),
    # bound 3 rejects the last word drawn ahead, so its redo reads a refill
    pytest.param(4, [_HI, 0, 0], 0, id="last-word-drawn-ahead"),
    # bound 5 rejects twice in a row, inside the words drawn ahead
    pytest.param(6, [_HI, 0, 0, _LO, _HI, _LO, _HI], 0, id="two-in-a-row"),
    # bound 3 rejects while a sized refill holds the later draws' words
    pytest.param(5, [_HI, _LO, 0, _HI, _LO], 12, id="sized-refill"),
    # bound 2 never rejects (2^64 mod 2 = 0): a flagged low half of 0 is kept
    pytest.param(2, [1 << 63], 0, id="n-2"),
])
def test_permutation_lemire_rejection(n, script, sized):
    """A rejected word is replaced by the next word of the stream, whether it
    was drawn in bulk or not; the other words move down one bound each, and
    the draws after the shuffle read on from the word after its last."""
    bulk, ref = _scripted_pair(script)
    if sized:
        bulk._refill(sized)
    assert np.array_equal(bulk.permutation(n), ref.permutation(n))
    assert bulk.randoms(3).tolist() == [ref.random() for _ in range(3)]
    assert bulk.next_u64() == ref.next_u64()


def test_bounded_int_threshold_is_two_to_64_mod_n():
    """The shuffle's first bound n picks the last entry of the permutation."""
    for n, script, j in [
        (3, [0, _HI], 2),  # 2^64 mod 3 = 1: a low half of 0 is rejected
        (3, [0xAAAAAAAAAAAAAAAB], 2),  # 3 w = 2^65 + 1: a low half of 1 is kept
        (4, [0, _HI], 0),  # 2^64 mod 4 = 0: nothing is rejected
    ]:
        rng, ref = _scripted_pair(script)
        perm = rng.permutation(n)
        assert perm[-1] == j
        assert np.array_equal(perm, ref.permutation(n))
        assert rng.next_u64() == ref.next_u64()


def _word_with_low_half(b, low):
    """A word w with w b mod 2^64 = low, for low a multiple of b's largest
    power-of-two factor 2^s.  The top s bits of w are free (w b mod 2^64
    does not see them); they are set here, so that w b >> 64 is large."""
    s = (b & -b).bit_length() - 1
    w = (low >> s) * pow(b >> s, -1, 1 << 64) % (1 << (64 - s))
    return w + (((1 << s) - 1) << (64 - s))


def _check_multiply_shift(words, bounds):
    js, unsure = _multiply_shift(np.array(words, np.uint64), np.array(bounds, np.uint64))
    for w, b, j, flag in zip(words, bounds, js.tolist(), unsure.tolist()):
        assert j == (w * b) >> 64
        assert flag == ((w * b) % 2**64 < b)
        if not flag:
            assert ScalarStream(words=[w]).bounded_int(b) == j


def test_multiply_shift_equals_lemire_on_random_words():
    gen = np.random.default_rng(3)
    words = gen.integers(0, 2**64, 10**5, dtype=np.uint64, endpoint=False).tolist()
    bounds = gen.integers(2, 2**32, 10**5, endpoint=True).tolist()
    _check_multiply_shift(words, bounds)


def test_multiply_shift_flags_each_low_half_below_its_bound():
    """Words whose low half w b mod 2^64 sits next below, at and next above
    each bound (one apart for an odd bound; its power-of-two factor apart,
    the nearest that w b can reach, for an even one)."""
    words, bounds = [], []
    for b in (*range(2, 70), 1000, 4096, 70001, 2**31 - 1, 2**31, 2**32 - 1, 2**32):
        step = b & -b
        for low in (b - step, b, b + step):
            words.append(_word_with_low_half(b, low))
            bounds.append(b)
    _check_multiply_shift(words, bounds)
    assert sum((w * b) % 2**64 < b for w, b in zip(words, bounds)) == len(words) // 3


@pytest.mark.parametrize("draw, message", [
    pytest.param(lambda rng: rng.permutation(-3), "n must be at least 0", id="permutation-negative"),
    pytest.param(lambda rng: rng.permutation(True), "n must be an integer", id="permutation-bool"),
    pytest.param(lambda rng: rng.words(True), "n must be an integer", id="words-bool"),
    pytest.param(lambda rng: rng.randoms(True), "n must be an integer", id="randoms-bool"),
    pytest.param(lambda rng: rng.normals(True), "n must be an integer", id="normals-bool"),
    pytest.param(lambda rng: rng.words(2.5), "n must be an integer", id="words-float"),
    pytest.param(lambda rng: rng.randoms(-2), "n must be at least 0", id="randoms-negative"),
    pytest.param(lambda rng: rng.normals(-2), "n must be at least 0", id="normals-negative"),
])
def test_draw_arguments_are_checked(draw, message):
    with pytest.raises(ValueError, match=message):
        draw(Xoshiro256(0))


def test_seed_range():
    for seed in (-1, 1 << 64):
        with pytest.raises(ValueError):
            Xoshiro256(seed)


# --- generate() ---------------------------------------------------------------


@pytest.mark.parametrize("name, factor, seeds", [
    *(pytest.param(name, factor, (1, 2, 3), id=f"{factor}-{name}")
      for factor in (1, 10) for name in SCENARIO_NAMES),
    # N = 35,000: about 105,000 and 140,000 words, refilled in more than 1,000 lanes
    pytest.param("ex4_s2", 100, (1,), id="100-ex4_s2"),
    pytest.param("ex6_s2", 100, (1,), id="100-ex6_s2"),
])
def test_generate_matches_scalar_oracle(name, factor, seeds):
    spec = _scaled(name, factor)
    for seed in seeds:
        data = generate(spec.with_seed(seed))
        x, y, labels = generate_scalar(spec.with_seed(seed), cholesky_lower)
        assert np.array_equal(data.x, x)
        assert np.array_equal(data.y, y)
        assert np.array_equal(data.labels, labels)


@pytest.mark.parametrize("name", [*SCENARIO_NAMES, "full_d3"])
def test_generate_draws_in_one_sized_lane_pass(name, monkeypatch):
    """generate() counts the words its dataset reads and takes them in one
    lane pass: it reads every word it asked for, and what is left unread is
    lane rounding, less than one lane's length (the last _steps count)."""
    passes, steps_counts, rngs = [], [], []
    lanes, steps = datagen._lanes, datagen._steps
    monkeypatch.setattr(datagen, "_lanes", lambda s, n: passes.append(n) or lanes(s, n))
    monkeypatch.setattr(datagen, "_steps", lambda s, n: steps_counts.append(n) or steps(s, n))

    class Recorded(Xoshiro256):
        def __init__(self, seed):
            super().__init__(seed)
            rngs.append(self)

    monkeypatch.setattr(datagen, "Xoshiro256", Recorded)
    for factor in (1, 10, 100):  # ex1-ex3 have no noise rows to scale
        for seed in (1, 2, 3):
            del passes[:], steps_counts[:], rngs[:]
            generate(_scaled(name, factor).with_seed(seed))
            (rng,) = rngs
            assert len(passes) == 1
            assert rng._pos == passes[0]
            assert 0 <= rng._ahead.size - rng._pos < steps_counts[-1]


def test_generate_does_not_refactor_the_x_laws(monkeypatch):
    # a law holds its Cholesky factor as ``chol``: drawing x factors nothing again
    specs = [builtin_scenario("ex1").with_seed(1), _full_d3_spec()]
    calls = []
    monkeypatch.setattr(datagen, "cholesky_lower", lambda a: calls.append(1) or cholesky_lower(a))
    for spec in specs:
        generate(spec)
    assert calls == []


def _full_d3_spec():
    """Two d = 3 Gaussian groups whose covariances have no zero entry, so
    every draw reads inner products of their factors."""
    cov = np.array([[4.0, 0.9, -0.7], [0.9, 3.0, 0.9], [-0.7, 0.9, 2.5]])
    groups = (
        GroupSpec(60, GaussianParams([0.0, 1.0, -1.0], cov), [1.0, -0.5, 2.0], 0.5, 1.0),
        GroupSpec(40, GaussianParams([3.0, -2.0, 0.5], 0.7 * cov[::-1, ::-1]),
                  [-1.5, 0.3, 0.8], -1.0, 2.0),
    )
    return ScenarioSpec(groups)


@pytest.mark.parametrize("name, digest", [
    ("ex4_s2", "89fa9347a409951eddb1e4990f93a581fb823598d48bc5aad35f4f1382d21114"),
    ("ex6_s2", "cba7ebe44b137753d792e1157f7ecd7aecf01a98da5aac82985c3312229ee6b6"),
    ("full_d3", "d43e2f71ec2fe8f5233a4f3f71e41b253220e7d6b266081de7c5cb310f41bd80"),
])
def test_generate_digest(name, digest):
    """Fixed bytes for a fixed seed, under every BLAS kernel: no BLAS call
    reaches a drawn value (the stream jumps by XOR table lookups), and the
    d = 3 factors sum left to right."""
    spec = (_full_d3_spec() if name == "full_d3" else builtin_scenario(name)).with_seed(1)
    data = generate(spec)
    assert _digest(data) == digest
    x, y, labels = generate_scalar(spec, cholesky_lower)
    assert np.array_equal(data.x, x) and np.array_equal(data.y, y) and np.array_equal(data.labels, labels)


def test_generate_layout():
    spec = builtin_scenario("ex4_s2").with_seed(4)
    data = generate(spec)
    assert data.x.shape == (spec.n_total, 1) and data.y.shape == (spec.n_total,)
    assert np.bincount(data.labels).tolist() == [50, 100, 100, 100]
    noise = data.labels == 0
    assert ((data.x[noise, 0] >= -5.0) & (data.x[noise, 0] < 30.0)).all()
    assert ((data.y[noise] >= -50.0) & (data.y[noise] < 130.0)).all()
    assert _digest(generate(spec)) == _digest(data)
    assert _digest(generate(spec.with_seed(5))) != _digest(data)


# --- specs and the perturbation -----------------------------------------------


def _law(d=1):
    return GaussianParams(np.zeros(d), np.eye(d))


@pytest.mark.parametrize("kwargs, match", [
    (dict(n=0), "n >= 1"),
    (dict(slope=np.ones((1, 1))), "slope must be a vector"),
    (dict(noise_sd=0.0), "noise_sd must be positive"),
    (dict(noise_sd=float("nan")), "noise_sd must be positive"),
    (dict(slope=np.ones(2)), "slope length"),
    (dict(noise_sd=True), "noise_sd must be positive and finite, got True"),
    (dict(noise_sd="1.0"), "noise_sd must be positive and finite, got '1.0'"),
    (dict(intercept=True), "intercept must be finite, got True"),
    (dict(intercept="0"), "intercept must be finite, got '0'"),
    (dict(x_law=StudentParams(np.zeros(1), np.eye(1), 4.0)), "x_law must be a GaussianParams"),
])
def test_group_spec_validation(kwargs, match):
    args = dict(n=5, x_law=_law(), slope=np.ones(1), intercept=0.0, noise_sd=1.0)
    args.update(kwargs)
    with pytest.raises(ValueError, match=match):
        GroupSpec(**args)


@pytest.mark.parametrize("count, box, match", [
    (0, ((0.0, 1.0), (0.0, 1.0)), "count must be >= 1"),
    (3, (), "at least two intervals"),
    (3, ((1.0, 0.0), (0.0, 1.0)), "nonempty"),
    (3, ((True, 1.0), (0.0, 1.0)), "box bound must be finite, got True"),
    (3, ((0.0, "1"), (0.0, 1.0)), "box bound must be finite, got '1'"),
])
def test_noise_spec_validation(count, box, match):
    with pytest.raises(ValueError, match=match):
        NoiseSpec(count, box)


def test_scenario_spec_validation():
    g1 = GroupSpec(5, _law(1), np.ones(1), 0.0, 1.0)
    g2 = GroupSpec(5, _law(2), np.ones(2), 0.0, 1.0)
    with pytest.raises(ValueError, match="at least one group"):
        ScenarioSpec(())
    with pytest.raises(ValueError, match="share the x dimension"):
        ScenarioSpec((g1, g2))
    with pytest.raises(ValueError, match="must have 2 intervals"):
        ScenarioSpec((g1,), NoiseSpec(3, ((0.0, 1.0),) * 3))
    for seed in (-1, 1 << 64):
        with pytest.raises(ValueError, match="unsigned 64-bit"):
            ScenarioSpec((g1,), seed=seed)
    with pytest.raises(ValueError, match="unknown scenario"):
        builtin_scenario("ex7")


_NAN, _INF = float("nan"), float("inf")
_BOX = ((0.0, 1.0), (0.0, 1.0))


@pytest.mark.parametrize("build", [
    # datagen takes FitConfig's rule: any integer type but bool
    pytest.param(lambda: builtin_scenario("ex1").with_seed(1.9), id="float-seed"),
    pytest.param(lambda: builtin_scenario("ex1").with_seed(True), id="bool-seed"),
    pytest.param(lambda: Xoshiro256(2.5), id="float-generator-seed"),
    pytest.param(lambda: GroupSpec(2.5, _law(), np.ones(1), 0.0, 1.0), id="float-n"),
    pytest.param(lambda: NoiseSpec(2.5, _BOX), id="float-count"),
    # a group's line and noise, and a noise box, are finite
    pytest.param(lambda: GroupSpec(10, _law(), [_NAN], 0.0, 1.0), id="nan-slope"),
    pytest.param(lambda: GroupSpec(10, _law(), [1.0], _NAN, 1.0), id="nan-intercept"),
    pytest.param(lambda: GroupSpec(10, _law(), [1.0], 0.0, _INF), id="inf-noise-sd"),
    pytest.param(lambda: NoiseSpec(3, ((0, _INF), (0, 1))), id="inf-box-edge"),
    # a non-finite entry above the diagonal is not replaced by its mirror
    pytest.param(lambda: cholesky_lower([[1, _NAN], [0, 1]]), id="nan-cholesky"),
    pytest.param(lambda: cholesky_lower([np.eye(2), [[1, _NAN], [0, 1]]]), id="nan-cholesky-stack"),
    pytest.param(lambda: solve_spd([[2, _INF], [0.5, 1]], [1, 1]), id="inf-solve"),
    pytest.param(lambda: solve_spd([np.eye(2), [[2, _INF], [0.5, 1]]], np.ones((2, 2))),
                 id="inf-solve-stack"),
])
def test_invalid_input_raises_when_built(build):
    with pytest.raises(ValueError):
        build()


def test_crab_perturb_edits_one_cell():
    data = generate(builtin_scenario("ex6_s2").with_seed(2))
    out = crab_perturb(data, 2.5)
    diff = out.x != data.x
    assert diff.sum() == 1 and diff[24, 1]
    assert out.x[24, 1] == data.x[24, 1] + 2.5
    assert np.array_equal(out.y, data.y) and np.array_equal(out.labels, data.labels)
    assert out.x is not data.x and out.labels is not data.labels
    bare = crab_perturb(Dataset(data.x, data.y), -1.0)
    assert bare.labels is None


def test_crab_perturb_errors():
    x = np.zeros((30, 2))
    with pytest.raises(ValueError, match="25 rows"):
        crab_perturb(Dataset(x[:24], np.zeros(24)), 1.0)
    with pytest.raises(ValueError, match="2 x-columns"):
        crab_perturb(Dataset(x[:, :1], np.zeros(30)), 1.0)
    for constant in (True, "2.5", _NAN):
        with pytest.raises(ValueError, match="constant must be finite"):
            crab_perturb(Dataset(x, np.zeros(30)), constant)
