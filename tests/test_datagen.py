"""The seeded generator and the scenario mirror of cwmix.datagen.

The bulk draws (words, randoms, normals, permutation) are checked value for
value against the scalar draws and the reference streams in oracles.py, and
generate() against the one-point-at-a-time generator kept there.
"""

import dataclasses
import hashlib
import itertools

import numpy as np
import pytest

from oracles import ScalarStream, box_muller_stream, generate_scalar, xoshiro256pp_stream

from cwmix.datagen import (
    SCENARIO_NAMES,
    GroupSpec,
    NoiseSpec,
    ScenarioSpec,
    Xoshiro256,
    _splitmix64,
    builtin_scenario,
    crab_perturb,
    generate,
    read_scenario,
    scenario_from_dict,
    scenario_to_dict,
    write_scenario,
)
from cwmix.densities import GaussianParams, StudentParams, cholesky_lower, solve_spd
from cwmix.model import Dataset

SIZES = (0, 1, 2, 7, 64, 1001)


class ScriptedWords(Xoshiro256):
    """A generator whose words come from ``script`` first, then from the
    seed-0 stream, so that rare branches can be forced."""

    def __init__(self, script):
        super().__init__(0)
        self._script = list(script)

    def next_u64(self):
        return self._script.pop(0) if self._script else super().next_u64()

    def words(self, n):
        return np.array([self.next_u64() for _ in range(n)], dtype=np.uint64)


def _scaled(name, factor):
    spec = builtin_scenario(name)
    groups = tuple(dataclasses.replace(g, n=g.n * factor) for g in spec.groups)
    noise = spec.noise and dataclasses.replace(spec.noise, count=spec.noise.count * factor)
    return dataclasses.replace(spec, groups=groups, noise=noise)


def _student_spec(d, dof, seed):
    cov = 4.0 * np.eye(d) + 0.3
    groups = (
        GroupSpec(40, StudentParams(np.arange(d, dtype=float), cov, dof),
                  np.linspace(1.0, 2.0, d), 0.5, 1.0),
        GroupSpec(30, GaussianParams(-np.arange(d, dtype=float), 2.0 * np.eye(d)),
                  -np.linspace(1.0, 2.0, d), 0.5, 2.0),
    )
    return ScenarioSpec(groups, NoiseSpec(7, ((-3.0, 3.0),) * (d + 1)), seed)


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
    bulk, one = Xoshiro256(5), Xoshiro256(5)
    w = bulk.words(n)
    assert w.dtype == np.uint64 and w.shape == (n,)
    assert w.tolist() == [one.next_u64() for _ in range(n)]
    assert [bulk.next_u64() for _ in range(3)] == [one.next_u64() for _ in range(3)]


@pytest.mark.parametrize("n", SIZES)
def test_randoms_equal_random_calls(n):
    bulk, one = Xoshiro256(11), Xoshiro256(11)
    u = bulk.randoms(n)
    assert u.tolist() == [one.random() for _ in range(n)]
    assert bulk.next_u64() == one.next_u64()


def test_normals_carry_the_spare_across_calls():
    bulk, one = Xoshiro256(3), Xoshiro256(3)
    ref = box_muller_stream(3)
    for n in (1, 2, 3, 0, 4, 7, 1, 1, 64, 5):  # odd and even, with and without a spare
        z = bulk.normals(n)
        assert z.tolist() == [one.normal() for _ in range(n)]
        assert [float(v) for v in z] == [next(ref) for _ in range(n)]
    assert bulk.normal() == one.normal()
    assert bulk.next_u64() == one.next_u64()


@pytest.mark.parametrize("script", [
    [5, 1 << 63, 3 << 62],  # first u1 is zero
    [1 << 62, 1 << 61, 7, 1 << 60, 1 << 59],  # second pair's u1 is zero
    [0, 2047, 1 << 62, 1 << 61],  # two zero u1 in a row
    [1 << 62, 0, 0, 1 << 61],  # a zero u2 is kept; the next zero u1 is redrawn
])
def test_normals_redraw_a_zero_u1(script):
    bulk, one = ScriptedWords(script), ScriptedWords(script)
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


@pytest.mark.parametrize("n, script", [
    (3, [0]),  # bound 3 rejects 0; the redraw is the second word drawn in bulk
    (5, [0xC000000000000000, 0x8000000000000000, 0, _HI, _LO]),  # same at bound 3
    (5, [0, 0, _HI, _LO, _HI, 0, _LO]),  # bound 5 rejects twice, bound 3 once
])
def test_permutation_lemire_rejection(n, script):
    """A rejected word is replaced by the next word of the stream, whether it
    was drawn in bulk or not; the other words move down one bound each."""
    bulk = ScriptedWords(script)
    tail = ScriptedWords([])
    ref = ScalarStream(words=itertools.chain(script, iter(tail.next_u64, None)))
    assert np.array_equal(bulk.permutation(n), ref.permutation(n))
    assert bulk.next_u64() == ref.next_u64()


def test_bounded_int_threshold_is_two_to_64_mod_n():
    # 2^64 mod 3 = 1: a low half of 0 is rejected, a low half of 1 is kept
    rng = ScriptedWords([0, _HI])
    assert rng.bounded_int(3) == 2
    assert rng.next_u64() == 0x53175D61490B23DF  # two script words used
    rng = ScriptedWords([0xAAAAAAAAAAAAAAAB])  # 3 * w = 2^65 + 1
    assert rng.bounded_int(3) == 2
    assert rng.next_u64() == 0x53175D61490B23DF
    # 2^64 mod 4 = 0: nothing is rejected
    rng = ScriptedWords([0, _HI])
    assert rng.bounded_int(4) == 0
    assert rng.next_u64() == _HI


def test_bounded_int_rejects_nonpositive():
    with pytest.raises(ValueError):
        Xoshiro256(0).bounded_int(0)


@pytest.mark.parametrize("draw, message", [
    pytest.param(lambda rng: rng.gamma(0.0), "shape must be positive", id="gamma-zero"),
    pytest.param(lambda rng: rng.gamma(-1.0), "shape must be positive", id="gamma-negative"),
    pytest.param(lambda rng: rng.chi_square(0.0), "shape must be positive", id="chi-square-zero"),
])
def test_draw_arguments_are_checked(draw, message):
    with pytest.raises(ValueError, match=message):
        draw(Xoshiro256(0))


def test_seed_range():
    for seed in (-1, 1 << 64):
        with pytest.raises(ValueError):
            Xoshiro256(seed)


# --- generate() ---------------------------------------------------------------


@pytest.mark.parametrize("name", SCENARIO_NAMES)
@pytest.mark.parametrize("factor", [1, 10])
def test_generate_matches_scalar_oracle(name, factor):
    spec = _scaled(name, factor)
    for seed in (1, 2, 3):
        data = generate(spec.with_seed(seed))
        x, y, labels = generate_scalar(spec.with_seed(seed), cholesky_lower)
        assert np.array_equal(data.x, x)
        assert np.array_equal(data.y, y)
        assert np.array_equal(data.labels, labels)


@pytest.mark.parametrize("d", [1, 2, 3])
@pytest.mark.parametrize("dof", [0.7, 1.5, 5.0])
def test_generate_student_matches_scalar_oracle(d, dof):
    for seed in (1, 2):
        spec = _student_spec(d, dof, seed)
        data = generate(spec)
        x, y, labels = generate_scalar(spec, cholesky_lower)
        assert np.array_equal(data.x, x)
        assert np.array_equal(data.y, y)
        assert np.array_equal(data.labels, labels)


@pytest.mark.parametrize("name, digest", [
    ("ex4_s2", "89fa9347a409951eddb1e4990f93a581fb823598d48bc5aad35f4f1382d21114"),
    ("ex6_s2", "cba7ebe44b137753d792e1157f7ecd7aecf01a98da5aac82985c3312229ee6b6"),
])
def test_generate_digest(name, digest):
    """Fixed bytes for a fixed seed; the d = 2 design holds under every BLAS
    kernel only while no BLAS call reaches a drawn value."""
    assert _digest(generate(builtin_scenario(name).with_seed(1))) == digest


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


# --- specs, the JSON mirror and the perturbation --------------------------------


def _same_spec(a, b):
    return scenario_to_dict(a) == scenario_to_dict(b)


def test_scenario_dict_round_trip():
    for spec in [builtin_scenario(n).with_seed(7) for n in SCENARIO_NAMES] + [
            _student_spec(2, 0.7, 3)]:
        back = scenario_from_dict(scenario_to_dict(spec))
        assert _same_spec(back, spec)
        assert _digest(generate(back)) == _digest(generate(spec))
    law = scenario_from_dict(scenario_to_dict(_student_spec(2, 0.7, 3))).groups[0].x_law
    assert isinstance(law, StudentParams) and law.dof == 0.7


def test_scenario_file_round_trip(tmp_path):
    spec = builtin_scenario("ex6_s4").with_seed(12)
    path = tmp_path / "ex6.json"
    write_scenario(path, spec)
    assert path.read_text().endswith("}\n")
    assert _same_spec(read_scenario(path), spec)
    bare = dataclasses.replace(spec, noise=None)
    write_scenario(path, bare)
    back = read_scenario(path)
    assert back.noise is None and _same_spec(back, bare)


def test_scenario_from_dict_defaults_seed_zero():
    doc = scenario_to_dict(builtin_scenario("ex1").with_seed(9))
    del doc["seed"]
    assert scenario_from_dict(doc).seed == 0


def _law(d=1):
    return GaussianParams(np.zeros(d), np.eye(d))


@pytest.mark.parametrize("kwargs, match", [
    (dict(n=0), "n >= 1"),
    (dict(slope=np.ones((1, 1))), "slope must be a vector"),
    (dict(noise_sd=0.0), "noise_sd must be positive"),
    (dict(noise_sd=float("nan")), "noise_sd must be positive"),
    (dict(slope=np.ones(2)), "slope length"),
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
