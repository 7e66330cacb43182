"""Seeded workloads: generated experiment configs with their known answers.

Each workload is a fixed cycle of slots.  A slot names a size class, and an
operation is one ``qcausal.cli.run`` call on the config that class builds for
it.  The classes of a cycle are chosen so that, sorted by run time, the median
and the 90th percentile of a run each fall well inside one class (about 30 %
and 15 % of the cycle wide); a percentile that falls on the boundary between
two classes jumps between them from run to run.  Runs end on a cycle
boundary, so every run times the same mix.

The inputs (Haar and product unitaries, Kraus channels in wire format, zoo
specs, lattice geometries) are drawn here with numpy from the workload seed,
not with the package's own samplers, so a change to the package cannot
change what it is asked to do.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass, field
from functools import partial
from typing import Callable

import numpy as np


@dataclass
class Op:
    """One operation: a key naming its config, the config, and the results
    fields the config must produce."""

    key: str
    config: dict
    expect: dict = field(default_factory=dict)
    #: For nearest-product: the kind of input ("haar", "product" or the
    #: number of Haar targets the program draws itself).
    nearest: str | int | None = None


# ---------------------------------------------------------------------------
# input generation
# ---------------------------------------------------------------------------


def haar(n: int, rng) -> np.ndarray:
    z = (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))) / np.sqrt(2)
    q, r = np.linalg.qr(z)
    d = np.diagonal(r)
    return q * (d / np.abs(d))


def product(dims, rng) -> np.ndarray:
    out = np.eye(1, dtype=complex)
    for d in dims:
        out = np.kron(out, haar(d, rng))
    return out


def unital_kraus(total: int, nkraus: int, rng) -> list:
    """Ginibre Kraus family right-normalised so that sum K^+ K = 1."""
    gs = [
        (rng.standard_normal((total, total)) + 1j * rng.standard_normal((total, total)))
        / np.sqrt(2)
        for _ in range(nkraus)
    ]
    evals, evecs = np.linalg.eigh(sum(g.conj().T @ g for g in gs))
    s_isqrt = (evecs / np.sqrt(evals)) @ evecs.conj().T
    return [g @ s_isqrt for g in gs]


def matrix_json(m) -> list:
    return [[[float(z.real), float(z.imag)] for z in row] for row in m]


def _seed(rng) -> int:
    return int(rng.integers(2**31))


# ---------------------------------------------------------------------------
# workload definition
# ---------------------------------------------------------------------------


@dataclass
class SizeClass:
    """``slots`` slots per cycle; ``build(index)`` gives the index-th config."""

    name: str
    slots: int
    build: Callable[[int], Op]


class Workload:
    """A cycle of size-class slots; ``op(i)`` is the i-th operation."""

    def __init__(self, classes: list[SizeClass]):
        self.classes = {c.name: c for c in classes}
        # Spread each class evenly over the cycle.
        slots = sorted(
            ((k + 0.5) / c.slots, c.name) for c in classes for k in range(c.slots)
        )
        self.schedule = tuple(name for _, name in slots)
        self._rank = []
        seen: dict[str, int] = {}
        #: Slot index of the first op of each class.
        self.first: dict[str, int] = {}
        for i, name in enumerate(self.schedule):
            self._rank.append(seen.get(name, 0))
            seen[name] = seen.get(name, 0) + 1
            self.first.setdefault(name, i)

    @property
    def cycle(self) -> int:
        return len(self.schedule)

    def op(self, i: int) -> Op:
        """The i-th operation; the same workload and ``i`` give the same op."""
        c = self.classes[self.schedule[i % self.cycle]]
        return c.build((i // self.cycle) * c.slots + self._rank[i % self.cycle])


def _pool(name: str, slots: int, ops: list[Op]) -> SizeClass:
    """A class that cycles through a fixed list of pre-built ops."""
    return SizeClass(name, slots, lambda j: ops[j % len(ops)])


def _check_causal(cls, j, rng, dims, kind, n_scenarios, nkraus=None) -> Op:
    total = int(np.prod(dims))
    cfg = {
        "experiment": "check-causal",
        "seed": _seed(rng),
        "dims": list(dims),
        "n_scenarios": n_scenarios,
    }
    if kind == "haar":
        cfg["unitary"], causal = matrix_json(haar(total, rng)), False
    elif kind == "product":
        cfg["unitary"], causal = matrix_json(product(dims, rng)), True
    elif kind == "kraus":
        kraus = unital_kraus(total, nkraus, rng)
        cfg["channel"] = {"dims": list(dims), "kraus": [matrix_json(k) for k in kraus]}
        causal = False
    elif kind == "depolarizing":
        lam = float(rng.uniform(0.1, 0.9))
        cfg["zoo"], causal = {"name": kind, "params": {"lam": lam}}, True
    elif kind == "swap":
        cfg["zoo"], causal = {"name": kind, "params": {"d": dims[0]}}, False
    else:  # cnot signals, local-random does not
        cfg["zoo"], causal = {"name": kind}, kind == "local-random"
    return Op(f"{cls}:{j}", cfg, {"causal": causal, "deciders_agree": True})


def _cc_pool(name, slots, rng, dims, kinds, n_scenarios, copies=2, nkraus=None):
    ops = [
        _check_causal(name, j, rng, dims, kind, n_scenarios, nkraus)
        for j, kind in enumerate(kinds * copies)
    ]
    return _pool(name, slots, ops)


def _perturb(cls, j, rng, dims, causal, acausal) -> Op:
    cfg = {
        "experiment": "perturb-ball",
        "seed": _seed(rng),
        "dims": list(dims),
        "causal": causal,
        "acausal": acausal,
    }
    return Op(f"{cls}:{j}", cfg, {"linear": True})


def decide_unitary(seed: int) -> Workload:
    """check-causal on single-Kraus channels: Haar, cnot and swap signal;
    product and local-random unitaries do not."""
    rng = np.random.default_rng([seed, 1])
    zoo_causal = ["haar", "product", "local-random"]
    return Workload(
        [
            _cc_pool("d4", 4, rng, (2, 2), zoo_causal + ["cnot", "swap"], 5),
            _cc_pool("d6", 3, rng, (2, 3), zoo_causal, 5),
            _cc_pool("d9", 6, rng, (3, 3), zoo_causal + ["swap"], 5),
            _cc_pool("d8", 3, rng, (2, 2, 2), zoo_causal, 5),
            _cc_pool("d16", 3, rng, (4, 4), zoo_causal + ["swap"], 5),
            _cc_pool("d12", 1, rng, (2, 3, 2), zoo_causal, 6),
        ],
    )


def decide_kraus(seed: int) -> Workload:
    """check-causal on many-Kraus channels plus perturb-ball mixtures, D <= 9."""
    rng = np.random.default_rng([seed, 2])
    one_way = {"name": "classical-one-way"}
    endpoints = [
        ({"name": "identity"}, one_way),
        ({"name": "local-random"}, {"name": "cnot"}),
        ({"name": "depolarizing", "params": {"lam": 0.5}}, {"name": "swap"}),
        ({"name": "local-random"}, one_way),
        ({"name": "identity"}, {"name": "swap"}),
    ]
    perturb4 = [
        _perturb("p4", j, rng, (2, 2), c, a) for j, (c, a) in enumerate(endpoints * 2)
    ]
    swap3 = {"name": "swap", "params": {"d": 3}}
    heavy = [
        _perturb("heavy", 0, rng, (3, 3), {"name": "depolarizing", "params": {"lam": 0.5}}, swap3),
        _check_causal("heavy", 1, rng, (2, 2, 2), "depolarizing", 5),
        _perturb("heavy", 2, rng, (3, 3), {"name": "depolarizing", "params": {"lam": 0.3}}, swap3),
        _check_causal("heavy", 3, rng, (2, 2, 2), "depolarizing", 5),
    ]
    return Workload(
        [
            _pool("p4", 5, perturb4),
            _cc_pool("dep4", 2, rng, (2, 2), ["depolarizing"], 5, copies=4),
            _cc_pool("k9", 6, rng, (3, 3), ["kraus"], 5, copies=8, nkraus=4),
            _cc_pool("k8", 3, rng, (2, 2, 2), ["kraus"], 3, copies=6, nkraus=3),
            _cc_pool("dep9", 3, rng, (3, 3), ["depolarizing"], 5, copies=6),
            _pool("heavy", 1, heavy),
        ],
    )


def _sample_haar(cls, j, rng, dims, sampler, n) -> Op:
    cfg = {
        "experiment": "sample-haar",
        "seed": _seed(rng),
        "dims": list(dims),
        "n_samples": n,
        "sampler": sampler,
    }
    return Op(
        f"{cls}:{j}", cfg, {"count_product_within_tol": 0 if sampler == "global" else n}
    )


def _nearest(cls, j, rng, dims, kind) -> Op:
    cfg = {"experiment": "nearest-product", "seed": _seed(rng), "dims": list(dims)}
    if kind == "haar":
        cfg["unitary"] = matrix_json(haar(int(np.prod(dims)), rng))
    elif kind == "product":
        cfg["unitary"] = matrix_json(product(dims, rng))
    else:  # the program draws this many Haar targets itself
        cfg["n_samples"] = kind
    # The report is checked against the input by ``run.nearest_product_problem``.
    return Op(f"{cls}:{j}", cfg, nearest=kind)


def _fresh(name: str, slots: int, seed: int, makers) -> SizeClass:
    """A class that draws new inputs for every op, taking the makers in turn.

    Used where run time depends on the draw (optimizer sweeps), so that a
    run's percentiles average over many draws instead of a few.
    """

    def build(j: int) -> Op:
        rng = np.random.default_rng([seed, zlib.crc32(name.encode()), j])
        return makers[j % len(makers)](name, j, rng)

    return SizeClass(name, slots, build)


def haar_sampling(seed: int) -> Workload:
    """sample-haar (global and local) and nearest-product up to D = 64."""
    return Workload(
        [
            _fresh(
                "np",
                4,
                seed,
                [
                    partial(_nearest, dims=dims, kind=kind)
                    for dims in ((2, 2), (3, 3), (2, 4), (4, 4))
                    for kind in ("haar", "product")
                ],
            ),
            _fresh(
                "local",
                3,
                seed,
                [
                    partial(_sample_haar, dims=dims, sampler="local", n=10)
                    for dims in ((2, 2), (2, 3), (3, 3), (2, 2, 2))
                ],
            ),
            _fresh("g9", 6, seed, [partial(_sample_haar, dims=(3, 3), sampler="global", n=10)]),
            _fresh("g16", 2, seed, [partial(_sample_haar, dims=(4, 4), sampler="global", n=10)]),
            _fresh(
                "d64",
                1,
                seed,
                [
                    partial(_nearest, dims=(8, 8), kind="haar"),
                    partial(_sample_haar, dims=(8, 8), sampler="local", n=10),
                    partial(_nearest, dims=(8, 8), kind="product"),
                ],
            ),
            _fresh("g16x", 3, seed, [partial(_sample_haar, dims=(4, 4), sampler="global", n=30)]),
            # The (8, 8) Haar optimizer sometimes needs more than the default
            # 500 sweeps; such an op reports it, exits 2 and is counted in
            # the run's ``nonconverged`` tally.
            _fresh(
                "d64x",
                1,
                seed,
                [
                    partial(_nearest, dims=(8, 8), kind=10),
                    partial(_sample_haar, dims=(8, 8), sampler="global", n=10),
                ],
            ),
        ],
    )


#: (n_sites, n_steps, K time slices, K width) per lattice size class.
LATTICES = {
    "cli64": (64, 16, 2, 21),
    "cli128": (128, 32, 3, 30),
    "wide512": (512, 200, 3, 80),
    "leapfrog": (512, 2048, 2, 40),
}


def lattice_chain(seed: int) -> Workload:
    """lattice-sorkin with a distinct mass per op, so every op starts with a
    cold impulse-table cache, as each CLI process does."""

    def size_class(name, slots):
        n_sites, n_steps, k_t, k_x = LATTICES[name]

        def build(j: int) -> Op:
            rng = np.random.default_rng([seed, 4, n_sites, n_steps, j])
            t0 = int(rng.integers(5, 9))
            x0 = int(rng.integers(n_sites // 8, n_sites // 2 - k_x))
            # Distinct for every j, so no LatticeSpec repeats within a run.
            mass = 0.5 + (seed * 0.7548776662466927 + j * 0.6180339887498949) % 1.0
            cfg = {
                "experiment": "lattice-sorkin",
                "seed": _seed(rng),
                "lattice": {"n_sites": n_sites, "n_steps": n_steps, "mass": mass},
                "k_region": [
                    [t, x] for t in range(t0, t0 + k_t) for x in range(x0, x0 + k_x)
                ],
            }
            return Op(f"{name}:{j}", cfg, {"identity_ok": True, "delta_hg": 0.0})

        return SizeClass(name, slots, build)

    return Workload(
        [
            size_class("cli64", 7),
            size_class("cli128", 6),
            size_class("wide512", 3),
            size_class("leapfrog", 4),
        ],
    )


WORKLOADS = {
    "decide-unitary": decide_unitary,
    "decide-kraus": decide_kraus,
    "haar-sampling": haar_sampling,
    "lattice-chain": lattice_chain,
}
