"""Seeded random generation and the product-unitary measure-zero experiment.

Reproducibility contract: all randomness flows through :class:`RngStream`,
a thin wrapper over numpy's counter-based Philox generator keyed by
``(seed, stream)``.  Streams with distinct ids are statistically independent
and the mapping from ``(seed, stream)`` to draws is fixed by the Philox
algorithm plus numpy's documented transforms (ziggurat Gaussians), so runs
are reproducible across platforms.  Per-sample work uses stream id = sample
index and is therefore embarrassingly parallel; the sequential reduction
used here is one associative order of the same per-sample records.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .causality import (
    SorkinScenario,
    nearest_product_unitary,
    operator_schmidt_values,
)
from .channels import KrausChannel, embed_local
from .tensor import (
    Bipartition,
    SystemDims,
    all_bipartitions,
    embed_operator,
    tensor_product,
)

#: Number of histogram bins for second Schmidt values in the experiment record.
HISTOGRAM_BINS = 40


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


def haar_unitary(n: int, rng) -> np.ndarray:
    """Haar-distributed unitary: Ginibre draw, QR, phase-corrected diagonal."""
    rng = _as_generator(rng)
    z = (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))) / np.sqrt(2)
    q, r = np.linalg.qr(z)
    diag = np.diagonal(r)
    phases = np.where(np.abs(diag) > 0, diag / np.abs(diag), 1.0)
    return q * phases


def haar_local_unitary(dims: SystemDims, rng) -> np.ndarray:
    """Tensor product of independent Haar unitaries, one per site, site 0 first."""
    rng = _as_generator(rng)
    return tensor_product(*[haar_unitary(d, rng) for d in dims.dims])


def random_density(n: int, rng) -> np.ndarray:
    """Trace-normalized Wishart state G G^+ / tr(G G^+) from a Ginibre draw."""
    rng = _as_generator(rng)
    g = (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))) / np.sqrt(2)
    rho = g @ g.conj().T
    return rho / np.trace(rho).real


def random_kraus_channel(dims: SystemDims, nkraus: int, rng) -> KrausChannel:
    """Random unital channel: Ginibre Kraus draws right-normalized to unitality."""
    rng = _as_generator(rng)
    d = dims.total
    gs = [
        (rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))) / np.sqrt(2)
        for _ in range(nkraus)
    ]
    s = sum(g.conj().T @ g for g in gs)
    evals, evecs = np.linalg.eigh(s)
    s_isqrt = (evecs / np.sqrt(evals)) @ evecs.conj().T
    return KrausChannel([g @ s_isqrt for g in gs], dims)


def random_hermitian(n: int, rng) -> np.ndarray:
    """Gaussian Hermitian matrix (GUE-style, unnormalized)."""
    rng = _as_generator(rng)
    g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return (g + g.conj().T) / 2


def random_sorkin_scenario(
    part: Bipartition,
    intervention: KrausChannel,
    rng,
    nkraus_prep: int = 3,
    tol: float = 1e-8,
) -> SorkinScenario:
    """Random admissible scenario for a given intervention and sender block.

    Draws a random state, a random unital preparation on the sender sites
    (embedded so it acts trivially elsewhere) and a random Hermitian receiver
    observable.
    """
    rng = _as_generator(rng)
    dims = part.dims
    sender_dims = SystemDims(tuple(dims.dims[s] for s in part.left))
    prep = embed_local(
        random_kraus_channel(sender_dims, nkraus_prep, rng), part.left, dims
    )
    rho = random_density(dims.total, rng)
    d_r = dims.block_dim(part.right)
    obs = embed_operator(random_hermitian(d_r, rng), part.right, dims)
    return SorkinScenario(
        rho=rho,
        prep=prep,
        intervention=intervention,
        observable=obs,
        partition=part,
        tol=tol,
    )


@dataclass
class MeasureZeroStats:
    """Aggregate record of one measure-zero sampling run."""

    dims: tuple[int, ...]
    n_samples: int
    tol: float
    sampler: str
    count_product_within_tol: int
    min_second_schmidt: float
    min_product_distance: float
    histogram_counts: list[int]
    histogram_edges: list[float]
    records: list[dict] = field(repr=False, default_factory=list)


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
    subset of samples is reproducible in isolation.  Records per sample: the
    worst-bipartition second operator Schmidt value and the nearest-product
    distance at that worst bipartition.
    """
    if sampler not in ("global", "local"):
        raise ValueError("sampler must be 'global' or 'local'")
    if n_samples < 1:
        raise ValueError("need at least one sample")
    parts = all_bipartitions(dims)
    count = 0
    seconds = np.empty(n_samples)
    distances = np.empty(n_samples)
    records = []
    for i in range(n_samples):
        gen = rng.substream(i).generator()
        if sampler == "global":
            u = haar_unitary(dims.total, gen)
        else:
            u = haar_local_unitary(dims, gen)
        worst_part = parts[0]
        worst = -1.0
        for part in parts:
            svals = operator_schmidt_values(u, part)
            second = float(svals[1]) if svals.size > 1 else 0.0
            if second > worst:
                worst, worst_part = second, part
        dist = nearest_product_unitary(u, worst_part).distance
        if worst <= tol:
            count += 1
        seconds[i] = worst
        distances[i] = dist
        records.append(
            {
                "sample_id": i,
                "second_schmidt": worst,
                "product_distance": dist,
                "seed": rng.seed,
            }
        )
    upper = math.sqrt(dims.total / 2.0)  # sharp bound on the second Schmidt value
    counts, edges = np.histogram(
        np.clip(seconds, 0.0, upper), bins=HISTOGRAM_BINS, range=(0.0, upper)
    )
    return MeasureZeroStats(
        dims=dims.dims,
        n_samples=n_samples,
        tol=tol,
        sampler=sampler,
        count_product_within_tol=count,
        min_second_schmidt=float(seconds.min()),
        min_product_distance=float(distances.min()),
        histogram_counts=[int(c) for c in counts],
        histogram_edges=[float(e) for e in edges],
        records=records,
    )
