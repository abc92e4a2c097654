"""Reference point-set constructions."""

import math

import numpy as np
import pytest

from extdisc import (
    GeneratorKind,
    GeneratorSpec,
    InvalidInputError,
    WeightKind,
    extreme_l2_exact,
    generate,
    radical_inverse,
)


def gen(kind, n, d, **kw):
    return generate(GeneratorSpec(GeneratorKind(kind), n, d, **kw))


class TestRadicalInverse:
    def test_base_two_prefix(self):
        assert np.array_equal(
            radical_inverse(2, np.arange(8)),
            np.array([0.0, 0.5, 0.25, 0.75, 0.125, 0.625, 0.375, 0.875]),
        )

    def test_base_three(self):
        assert radical_inverse(3, [1, 2, 3, 4])[2] == pytest.approx(1.0 / 9.0)
        assert np.allclose(radical_inverse(3, [1, 2]), [1 / 3, 2 / 3])

    def test_guards(self):
        with pytest.raises(InvalidInputError):
            radical_inverse(1, [0])
        with pytest.raises(InvalidInputError):
            radical_inverse(2, [-1])

    @pytest.mark.parametrize("base", [2.5, math.nan, 2.0])
    def test_non_integer_base_rejected(self, base):
        with pytest.raises(InvalidInputError, match="base must be an integer >= 2"):
            radical_inverse(base, [1])

    def test_numpy_integer_base_accepted(self):
        assert np.array_equal(radical_inverse(np.int64(3), [1, 2]), radical_inverse(3, [1, 2]))

    @pytest.mark.parametrize(
        "k", [[1.5, 2.7], [math.nan], [2**70], [2**63], [True], ["1"]],
        ids=["fraction", "nan", "huge", "past_int64", "bool", "string"],
    )
    def test_non_integer_index_rejected(self, k):
        # fractions used to truncate to the value at floor(k)
        with pytest.raises(InvalidInputError, match="integer k that fit in int64"):
            radical_inverse(2, k)

    def test_integer_index_kinds_accepted(self):
        expect = radical_inverse(3, [1, 2, 5])
        assert np.array_equal(radical_inverse(3, np.array([1, 2, 5], dtype=np.uint8)), expect)
        assert np.array_equal(radical_inverse(3, np.int32(5)), expect[2:])
        assert radical_inverse(3, []).shape == (0,)


class TestKinds:
    def test_vdc_1d(self):
        ps, ws = gen("vdc", 4, 1)
        assert np.array_equal(ps.coords[:, 0], [0.0, 0.5, 0.25, 0.75])
        assert ws.kind is WeightKind.QMC

    def test_vdc_2d_hammersley(self):
        ps, _ = gen("vdc", 4, 2)
        assert np.array_equal(ps.coords[:, 0], [0.0, 0.25, 0.5, 0.75])
        assert np.array_equal(ps.coords[:, 1], [0.0, 0.5, 0.25, 0.75])

    def test_vdc_3d_uses_next_prime(self):
        ps, _ = gen("vdc", 3, 3)
        assert np.allclose(ps.coords[:, 2], [0.0, 1 / 3, 2 / 3])

    def test_grid_midpoints(self):
        ps, _ = gen("grid", 9, 2)
        marks = {1 / 6, 1 / 2, 5 / 6}
        seen = {(round(x, 12), round(y, 12)) for x, y in ps.coords}
        assert len(seen) == 9
        assert {v for xy in seen for v in xy} == {round(m, 12) for m in marks}

    def test_grid_requires_power(self):
        with pytest.raises(InvalidInputError):
            gen("grid", 8, 2)
        gen("grid", 8, 3)

    def test_centered(self):
        ps, _ = gen("centered", 1, 4)
        assert np.all(ps.coords == 0.5)
        with pytest.raises(InvalidInputError):
            gen("centered", 2, 1)

    def test_lattice(self):
        ps, _ = gen("lattice", 5, 2, gen_vector=(1, 2))
        assert np.allclose(ps.coords[:, 0], [0.0, 0.2, 0.4, 0.6, 0.8])
        assert np.allclose(ps.coords[:, 1], [0.0, 0.4, 0.8, 0.2, 0.6])

    def test_lattice_guards(self):
        with pytest.raises(InvalidInputError):
            gen("lattice", 5, 2)
        with pytest.raises(InvalidInputError):
            gen("lattice", 5, 2, gen_vector=(1,))
        with pytest.raises(InvalidInputError):
            gen("lattice", 5, 2, gen_vector=(1, 5))
        with pytest.raises(InvalidInputError):
            gen("lattice", 1, 1, gen_vector=(1,))

    @pytest.mark.parametrize("vector", [(1.5, 2), (1, math.nan), (1, "2")])
    def test_lattice_rejects_non_integer_entries(self, vector):
        # the int64 cast once built the lattice of the truncated vector
        with pytest.raises(InvalidInputError, match="gen_vector entry must be an integer"):
            GeneratorSpec(GeneratorKind.LATTICE, 5, 2, gen_vector=vector)

    def test_lattice_range_message_kept(self):
        with pytest.raises(InvalidInputError, match=r"gen_vector in \[1, n-1\]\^d"):
            gen("lattice", 5, 2, gen_vector=(0, 2))
        a, _ = gen("lattice", 5, 2, gen_vector=(np.int64(1), np.int32(2)))
        assert np.array_equal(a.coords, gen("lattice", 5, 2, gen_vector=(1, 2))[0].coords)

    def test_random_seeded(self):
        a, _ = gen("random", 16, 3, seed=5)
        b, _ = gen("random", 16, 3, seed=5)
        c, _ = gen("random", 16, 3, seed=6)
        assert np.array_equal(a.coords, b.coords)
        assert not np.array_equal(a.coords, c.coords)

    def test_random_needs_seed(self):
        with pytest.raises(InvalidInputError):
            gen("random", 4, 2)

    @pytest.mark.parametrize("seed", [1.5, "1", math.nan])
    def test_random_rejects_non_integer_seed(self, seed):
        # a float seed once drew the points of its integer part
        with pytest.raises(InvalidInputError, match="seed must be an integer"):
            GeneratorSpec(GeneratorKind.RANDOM, 3, 2, seed=seed)

    def test_random_accepts_numpy_integer_seed(self):
        a, _ = gen("random", 3, 2, seed=np.int64(1))
        b, _ = gen("random", 3, 2, seed=np.uint32(1))
        assert np.array_equal(a.coords, gen("random", 3, 2, seed=1)[0].coords)
        assert np.array_equal(b.coords, a.coords)

    def test_all_in_unit_cube(self):
        for kind, kw in [
            ("vdc", {}),
            ("grid", {}),
            ("random", {"seed": 1}),
            ("lattice", {"gen_vector": (1, 3)}),
        ]:
            n = 16
            ps, ws = gen(kind, n, 2, **kw)
            assert ps.n == n and ps.d == 2
            assert ps.coords.min() >= 0.0 and ps.coords.max() < 1.0
            assert ws.kind is WeightKind.QMC

    def test_size_guards(self):
        for bad in (0, math.nan, 2.5):
            with pytest.raises(InvalidInputError, match="n must be an integer >= 1"):
                GeneratorSpec(GeneratorKind.RANDOM, bad, 1, seed=1)
            with pytest.raises(InvalidInputError, match="d must be an integer >= 1"):
                GeneratorSpec(GeneratorKind.RANDOM, 4, bad, seed=1)


class TestLowDiscrepancyBeatRandom:
    @pytest.mark.parametrize("n", [4, 8, 16])
    def test_vdc_below_average_random(self, n):
        ps, ws = gen("vdc", n, 1)
        vdc_val = extreme_l2_exact(ps, ws).value
        rand_vals = []
        for seed in range(30):
            rps, rws = gen("random", n, 1, seed=seed)
            rand_vals.append(extreme_l2_exact(rps, rws).value)
        assert vdc_val < np.mean(rand_vals)


@pytest.mark.parametrize("d", [42, 50])
def test_vdc_dimension_limit(d):
    # the k/n axis plus one radical-inverse axis for each of 40 primes
    with pytest.raises(InvalidInputError, match="vdc generator supports d <= 41"):
        gen("vdc", 4, d)
