"""Seeded random generation and the product-unitary measure-zero experiment.

Reproducibility contract: all randomness flows through :class:`RngStream`,
a thin wrapper over numpy's counter-based Philox generator keyed by
``(seed, stream)``.  Streams with distinct ids are statistically independent
and the mapping from ``(seed, stream)`` to draws is fixed by the Philox
algorithm plus numpy's documented transforms (ziggurat Gaussians), so runs
are reproducible across platforms.  Per-sample work uses stream id = sample
index and is therefore embarrassingly parallel; the sequential reduction
used here is one associative order of the same per-sample results.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .causality import (
    SorkinScenario,
    _by_shape,
    _direction_runs,
    nearest_product_unitaries,
    operator_schmidt_values,
)
from .channels import KrausChannel
from .tensor import Bipartition, SystemDims, all_bipartitions, tensor_product

#: Number of histogram bins for second Schmidt values in the experiment record.
HISTOGRAM_BINS = 40

#: Samples drawn and optimized together.  It bounds a run's memory at any
#: sample count; each sample's results do not depend on it.
SAMPLE_BLOCK = 256

#: Sorkin scenarios drawn, validated and tested as one stack.  It bounds a
#: run's memory at any scenario count: at D = 64 a block's working arrays take
#: about 18 MB (72 MB for 256 scenarios), and from D = 16 up blocks of 256
#: are at most about 6% faster.  Each scenario's result does not depend on it.
SCENARIO_BLOCK = 32


@dataclass(frozen=True)
class RngStream:
    """A named, reproducible random stream: Philox keyed by (seed, stream)."""

    seed: int
    stream: int = 0

    def __post_init__(self):
        for name in ("seed", "stream"):
            v = getattr(self, name)
            if not 0 <= int(v) < 2**64:
                raise ValueError(f"{name} must be a 64-bit unsigned integer, got {v}")

    def generator(self) -> np.random.Generator:
        key = np.array([self.seed, self.stream], dtype=np.uint64)
        return np.random.Generator(np.random.Philox(key=key))

    def substream(self, i: int) -> "RngStream":
        return RngStream(self.seed, self.stream + int(i))


def _as_generator(rng) -> np.random.Generator:
    if isinstance(rng, RngStream):
        return rng.generator()
    return rng


def _complex(raw) -> np.ndarray:
    """Complex matrices from raw Gaussians of shape ``(..., 2, n, n)``: the
    real parts, then the imaginary parts, of each matrix."""
    return raw[..., 0, :, :] + 1j * raw[..., 1, :, :]


def _ginibre(raw) -> np.ndarray:
    return _complex(raw) / np.sqrt(2)


def _dagger(m) -> np.ndarray:
    return m.conj().swapaxes(-1, -2)


def _unital(gs) -> np.ndarray:
    """Right-normalise each ``(..., k, d, d)`` family so that sum_i K_i^+ K_i = 1."""
    # one Kraus operator at a time: tensor.gram_sum rounds differently
    s = sum(_dagger(g) @ g for g in np.moveaxis(gs, -3, 0))
    evals, evecs = np.linalg.eigh(s)
    s_isqrt = (evecs / np.sqrt(evals)[..., None, :]) @ _dagger(evecs)
    return gs @ s_isqrt[..., None, :, :]


def _density(g) -> np.ndarray:
    """Trace-normalized Wishart states G G^+ / tr(G G^+), one per matrix of ``g``."""
    rho = g @ _dagger(g)
    return rho / np.trace(rho, axis1=-2, axis2=-1).real[..., None, None]


def _hermitian_part(g) -> np.ndarray:
    return (g + _dagger(g)) / 2


def haar_unitary(n: int, rng) -> np.ndarray:
    """Haar-distributed unitary: Ginibre draw, QR, phase-corrected diagonal."""
    rng = _as_generator(rng)
    z = _ginibre(rng.standard_normal((2, n, n)))
    q, r = np.linalg.qr(z)
    diag = np.diagonal(r)
    phases = np.where(np.abs(diag) > 0, diag / np.abs(diag), 1.0)
    return q * phases


def haar_local_unitary(dims: SystemDims, rng) -> np.ndarray:
    """Tensor product of independent Haar unitaries, one per site, site 0 first."""
    rng = _as_generator(rng)
    return tensor_product(*[haar_unitary(d, rng) for d in dims.dims])


def random_kraus_channel(dims: SystemDims, nkraus: int, rng) -> KrausChannel:
    """Random unital channel: Ginibre Kraus draws right-normalized to unitality."""
    rng = _as_generator(rng)
    d = dims.total
    return KrausChannel(_unital(_ginibre(rng.standard_normal((nkraus, 2, d, d)))), dims)


def random_sorkin_scenario(part, intervention: KrausChannel, rng) -> SorkinScenario:
    """Random admissible scenario, or stack of them, for a given intervention.

    Each scenario draws a random unital preparation of three Kraus operators
    on its sender sites, a random state and a random Hermitian receiver
    observable, validated within ``DEFAULT_TOL`` like every
    :class:`SorkinScenario`; the preparation and the observable stay on
    their blocks, as the scenario holds them.  ``part`` is one oriented
    :class:`Bipartition` for one scenario, or a sequence of them for a stack
    with one member per entry, each drawn for its own direction (``[part] *
    n`` for ``n`` members in one direction): the two forms of
    :class:`SorkinScenario`, built from factors.  A stack
    takes one ``standard_normal`` draw per run of equal directions, in
    member order, so member ``j`` equals the ``j``-th of the single draws;
    the preparations and observables of all runs of one ``(d_S, d_R)``
    shape are normalised as one stack, member by member.
    """
    rng = _as_generator(rng)
    one = isinstance(part, Bipartition)
    parts = (part,) if one else tuple(part)
    runs = [(p, members.stop - members.start) for p, members in _direction_runs(parts)]
    dims = parts[0].dims
    d = dims.total
    nkraus_prep = 3
    raw = []  # each run's preparation, state and observable Gaussians
    for p, n in runs:
        d_s, d_r = p.left_dim, p.right_dim
        cut = nkraus_prep * 2 * d_s**2
        run = rng.standard_normal((n, cut + 2 * d * d + 2 * d_r**2))
        raw.append((
            run[:, :cut].reshape(n, nkraus_prep, 2, d_s, d_s),
            run[:, cut : cut + 2 * d * d].reshape(n, 2, d, d),
            run[:, cut + 2 * d * d :].reshape(n, 2, d_r, d_r),
        ))
    rho = _density(_ginibre(np.concatenate([r for _, r, _ in raw])))
    kraus, obs = [None] * len(runs), [None] * len(runs)
    for indices in _by_shape([p for p, _ in runs]):
        # the runs of one (d_S, d_R) shape are normalised as one stack
        ks = _unital(_ginibre(np.concatenate([raw[i][0] for i in indices])))
        hs = _hermitian_part(_complex(np.concatenate([raw[i][2] for i in indices])))
        start = 0
        for i in indices:
            stop = start + runs[i][1]
            kraus[i], obs[i] = ks[start:stop], hs[start:stop]
            start = stop
    if one:
        return SorkinScenario(
            rho[0], KrausChannel(kraus[0][0], dims.sub(part.left)), intervention,
            obs[0][0], part,
        )
    prep = tuple(KrausChannel(k, dims.sub(p.left)) for k, (p, _) in zip(kraus, runs))
    return SorkinScenario(rho, prep, intervention, tuple(obs), parts)


@dataclass
class MeasureZeroStats:
    """Aggregates and per-sample values of one measure-zero sampling run."""

    count_product_within_tol: int
    min_second_schmidt: float
    min_product_distance: float
    histogram_counts: list[int]
    histogram_edges: list[float]
    second_schmidt: list[float]  # one per sample, in sample order
    product_distance: list[float]


def measure_zero_experiment(
    dims: SystemDims,
    n_samples: int,
    tol: float,
    rng: RngStream,
    sampler: str = "global",
) -> MeasureZeroStats:
    """Sample unitaries and count how many are product within tolerance.

    ``sampler='global'`` draws Haar unitaries on the full group, for which
    the product unitaries are a measure-zero subset, so the expected count is
    zero; ``sampler='local'`` draws tensor products of local Haar unitaries
    as the control arm, for which every sample must register as product.

    Sample ``i`` uses random stream ``rng.substream(i)``, so any prefix or
    subset of samples is reproducible in isolation.  Keeps per sample: the
    worst-bipartition second operator Schmidt value and the nearest-product
    distance at that worst bipartition.  Samples are drawn in blocks of
    :data:`SAMPLE_BLOCK`; each block runs one stacked Schmidt pass per
    bipartition over all its samples, then one stacked optimizer per
    bipartition over its samples whose worst bipartition it is.
    """
    if sampler not in ("global", "local"):
        raise ValueError("sampler must be 'global' or 'local'")
    if n_samples < 1:
        raise ValueError("need at least one sample")
    if dims.nsites < 2:
        raise ValueError("the product test needs at least two sites")
    parts = all_bipartitions(dims)
    seconds = np.empty(n_samples)
    distances = np.empty(n_samples)
    for start in range(0, n_samples, SAMPLE_BLOCK):
        n = min(SAMPLE_BLOCK, n_samples - start)
        us = np.empty((n, dims.total, dims.total), dtype=complex)
        for j in range(n):
            gen = rng.substream(start + j).generator()
            if sampler == "global":
                us[j] = haar_unitary(dims.total, gen)
            else:
                us[j] = haar_local_unitary(dims, gen)
        # (n, n_parts) second Schmidt values; argmax keeps the first of ties
        by_part = np.stack([operator_schmidt_values(us, p)[:, 1] for p in parts], 1)
        worst_part = by_part.argmax(1)  # index into parts
        seconds[start : start + n] = by_part.max(1)
        for k, part in enumerate(parts):
            group = np.flatnonzero(worst_part == k)
            if group.size:
                # one group of the whole block needs no copy of the stack
                members = us if group.size == n else us[group]
                found = nearest_product_unitaries(members, part)
                distances[start + group] = [res.distance for res in found]
    upper = math.sqrt(dims.total / 2.0)  # sharp bound on the second Schmidt value
    counts, edges = np.histogram(
        np.clip(seconds, 0.0, upper), bins=HISTOGRAM_BINS, range=(0.0, upper)
    )
    return MeasureZeroStats(
        count_product_within_tol=int((seconds <= tol).sum()),
        min_second_schmidt=float(seconds.min()),
        min_product_distance=float(distances.min()),
        histogram_counts=counts.tolist(),
        histogram_edges=edges.tolist(),
        second_schmidt=seconds.tolist(),
        product_distance=distances.tolist(),
    )
