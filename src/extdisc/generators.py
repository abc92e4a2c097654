"""Reference point-set constructions used by the experiments and tests.

Every generator returns an equal-weight (QMC) rule.  Randomized kinds
require an explicit seed and draw from the same counter-based streams as
the Monte Carlo engines, so generated sets are reproducible across
machines and worker counts.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from .core import InvalidInputError, PointSet, WeightSet, _check_count, equal_weights, substream

_PRIMES = (
    2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61, 67,
    71, 73, 79, 83, 89, 97, 101, 103, 107, 109, 113, 127, 131, 137, 139,
    149, 151, 157, 163, 167, 173,
)


class GeneratorKind(enum.Enum):
    RANDOM = "random"
    GRID = "grid"
    VDC_HAMMERSLEY = "vdc"
    LATTICE = "lattice"
    CENTERED = "centered"


@dataclass(frozen=True)
class GeneratorSpec:
    kind: GeneratorKind
    n: int
    d: int
    seed: int | None = None
    gen_vector: tuple[int, ...] | None = None

    def __post_init__(self) -> None:
        _check_count("n", self.n, 1)
        _check_count("d", self.d, 1)
        if self.seed is not None:
            _check_count("seed", self.seed)
        vector = () if self.gen_vector is None else self.gen_vector
        for entry in np.ravel(np.array(vector, dtype=object)):
            _check_count("gen_vector entry", entry)


def radical_inverse(base: int, k) -> np.ndarray:
    """Van der Corput radical inverse of k in the given base, in [0, 1)."""
    _check_count("radical inverse base", base, 2)
    k = np.atleast_1d(np.asarray(k))
    # an empty list reads as float64; 2.7 would truncate and 2**70 overflow
    if k.size and not (k.dtype.kind in "iu" and k.max() <= np.iinfo(np.int64).max):
        raise InvalidInputError("radical inverse needs integer k that fit in int64")
    k = k.astype(np.int64)
    if k.size and k.min() < 0:
        raise InvalidInputError("radical inverse needs k >= 0")
    out = np.zeros(k.shape)
    scale = 1.0 / base
    while np.any(k > 0):
        out += (k % base) * scale
        k //= base
        scale /= base
    return out


def _random(spec: GeneratorSpec) -> np.ndarray:
    if spec.seed is None:
        raise InvalidInputError("random generator needs a seed")
    return substream(spec.seed, 0).random((spec.n, spec.d))


def _grid(spec: GeneratorSpec) -> np.ndarray:
    m = round(spec.n ** (1.0 / spec.d))
    if m**spec.d != spec.n:
        raise InvalidInputError(
            f"grid needs n to be a d-th power; {spec.n} is not m^{spec.d}"
        )
    axes = np.meshgrid(*[(np.arange(m) + 0.5) / m] * spec.d, indexing="ij")
    return np.stack([a.ravel() for a in axes], axis=1)


def _vdc_hammersley(spec: GeneratorSpec) -> np.ndarray:
    if spec.d - 1 > len(_PRIMES):
        raise InvalidInputError(f"vdc generator supports d <= {len(_PRIMES) + 1}")
    k = np.arange(spec.n)
    if spec.d == 1:
        return radical_inverse(2, k)[:, None]
    cols = [k / spec.n]
    cols += [radical_inverse(_PRIMES[j], k) for j in range(spec.d - 1)]
    return np.stack(cols, axis=1)


def _lattice(spec: GeneratorSpec) -> np.ndarray:
    if spec.gen_vector is None:
        raise InvalidInputError("lattice generator needs gen_vector")
    g = np.asarray(spec.gen_vector, dtype=np.int64)
    if g.shape != (spec.d,):
        raise InvalidInputError("gen_vector length must equal d")
    if spec.n < 2 or g.min() < 1 or g.max() > spec.n - 1:
        raise InvalidInputError("lattice needs n >= 2 and gen_vector in [1, n-1]^d")
    k = np.arange(spec.n)
    return (np.outer(k, g) % spec.n) / spec.n


def _centered(spec: GeneratorSpec) -> np.ndarray:
    if spec.n != 1:
        raise InvalidInputError("centered generator is defined for n = 1 only")
    return np.full((1, spec.d), 0.5)


_DISPATCH = {
    GeneratorKind.RANDOM: _random,
    GeneratorKind.GRID: _grid,
    GeneratorKind.VDC_HAMMERSLEY: _vdc_hammersley,
    GeneratorKind.LATTICE: _lattice,
    GeneratorKind.CENTERED: _centered,
}


def generate(spec: GeneratorSpec) -> tuple[PointSet, WeightSet]:
    coords = _DISPATCH[spec.kind](spec)
    return PointSet(coords), equal_weights(spec.n)
