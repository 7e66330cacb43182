"""Unital completely positive maps in the Heisenberg picture.

A channel is stored by its Kraus family ``{K_i}`` and acts on observables as
``O -> sum_i K_i^+ O K_i`` with ``sum_i K_i^+ K_i = 1`` (unitality).

The Choi matrix, a plain ``(D^2, D^2)`` array, is ``J = sum_ij |i><j| (x)
Phi(|i><j|)`` with no normalization factor, so the identity channel has ``J``
equal to the unnormalized maximally-entangled projector of trace ``D``.
:func:`kraus_to_choi` converts a channel to it.
"""

from __future__ import annotations

import numpy as np

from .tensor import (
    DEFAULT_TOL,
    SystemDims,
    _site_indices,
    embed_operator,
    from_re_im,
    gram_sum,
    is_unitary,
    tensor_product,
    to_re_im,
)


class KrausChannel:
    """A unital CP map on a multipartite system, Heisenberg picture.

    Parameters
    ----------
    kraus : sequence of (D, D) complex matrices, or a ``(..., k, D, D)`` stack
        of such families: one channel per leading index
    dims : SystemDims with total dimension D

    Every channel of a stack must be unital within ``DEFAULT_TOL``.  Methods
    that need one channel reject a stack.
    """

    def __init__(self, kraus, dims: SystemDims):
        self.dims = dims
        d = dims.total
        ks = np.array(kraus, dtype=complex)
        if ks.ndim < 3 or ks.shape[-2:] != (d, d):
            raise ValueError(
                f"Kraus operators must have shape (k, {d}, {d}), got {ks.shape}"
            )
        self.kraus = ks
        with np.errstate(invalid="ignore", over="ignore"):
            err = np.abs(gram_sum(ks) - np.eye(d)).max(initial=0.0)
        if not err <= DEFAULT_TOL:  # also catches NaN and inf entries
            raise ValueError(f"Kraus family is not unital: deviation {err:.3g}")

    @property
    def nkraus(self) -> int:
        return self.kraus.shape[-3]

    def single(self) -> np.ndarray:
        """The Kraus family of a channel that is not a stack; a stack raises."""
        if self.kraus.ndim != 3:
            raise ValueError(
                f"need a single channel, got a stack of shape {self.kraus.shape[:-3]}"
            )
        return self.kraus

    def apply(self, op) -> np.ndarray:
        """Heisenberg action sum_i K_i^+ op K_i; ``op`` may be a (..., D, D) stack.

        A stack of channels acts member by member on a stack of operators
        with the same leading axes (numpy broadcasting).  One Kraus operator
        at a time, so memory stays that of ``op``.
        """
        op = np.asarray(op, dtype=complex)
        return sum(
            k.conj().swapaxes(-1, -2) @ op @ k for k in np.moveaxis(self.kraus, -3, 0)
        )

    def to_json(self) -> dict:
        """Wire format: dims plus each Kraus operator as rows of [re, im] pairs."""
        return {"dims": list(self.dims.dims), "kraus": to_re_im(self.single())}

    @classmethod
    def from_json(cls, data: dict) -> "KrausChannel":
        """Inverse of :meth:`to_json`; malformed input raises ``ValueError``."""
        if not isinstance(data, dict) or data.keys() != {"dims", "kraus"}:
            raise ValueError("a channel must be an object with just 'dims' and 'kraus'")
        c = cls(from_re_im(data["kraus"]), SystemDims(data["dims"]))
        c.single()  # the wire format holds one channel
        return c


def from_unitary(u, dims: SystemDims) -> KrausChannel:
    """Conjugation channel O -> U^+ O U of a single unitary."""
    u = np.asarray(u, dtype=complex)
    if not is_unitary(u):
        raise ValueError("matrix is not unitary within tolerance")
    return KrausChannel([u], dims)


def embed_local(c: KrausChannel, sites, ambient: SystemDims) -> KrausChannel:
    """Extend a channel on a site subset to the full system, identity elsewhere.

    ``c.dims`` must equal the ambient dimensions at ``sites`` (in the order
    given).  Every operator supported on the complement is left fixed.
    """
    sites = _site_indices(sites)
    expected = tuple(ambient.dims[s] for s in sites)
    if c.dims.dims != expected:
        raise ValueError(
            f"channel dims {c.dims.dims} do not match ambient dims {expected} "
            f"at sites {sites}"
        )
    return KrausChannel(embed_operator(c.kraus, sites, ambient), ambient)


def kraus_to_choi(c: KrausChannel) -> np.ndarray:
    """Choi matrix sum_ij |i><j| (x) Phi(|i><j|) of the Heisenberg action.

    A ``(D^2, D^2)`` array, Hermitian and positive semidefinite by
    construction, with the identity as its index marginal because ``c`` is
    unital.
    """
    d = c.dims.total
    # For Phi(O) = sum_k K^+ O K one has J = sum_k v_k v_k^+ with
    # v_k = vec(conj(K_k)) in row-major order.
    vecs = c.single().conj().reshape(c.nkraus, d * d)
    return np.einsum("ki,kj->ij", vecs, vecs.conj())


def mix(a: KrausChannel, b: KrausChannel, p: float) -> KrausChannel:
    """Convex combination p*a + (1-p)*b via weighted Kraus families."""
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"mixing weight must lie in [0, 1], got {p}")
    if a.dims != b.dims:
        raise ValueError("cannot mix channels with different dims")
    kraus = [np.sqrt(p) * k for k in a.single()]
    kraus += [np.sqrt(1.0 - p) * k for k in b.single()]
    return KrausChannel(kraus, a.dims)


# ---------------------------------------------------------------------------
# named channel zoo
# ---------------------------------------------------------------------------


def identity_channel(dims: SystemDims) -> KrausChannel:
    return KrausChannel([np.eye(dims.total)], dims)


def cnot_channel() -> KrausChannel:
    """Controlled-NOT on two qubits, control on site 0."""
    u = np.zeros((4, 4), dtype=complex)
    u[0, 0] = u[1, 1] = u[2, 3] = u[3, 2] = 1
    return from_unitary(u, SystemDims((2, 2)))


def swap_channel(d: int = 2) -> KrausChannel:
    """Exchange of two d-dimensional sites."""
    u = np.zeros((d * d, d * d), dtype=complex)
    for i in range(d):
        for j in range(d):
            u[i * d + j, j * d + i] = 1
    return from_unitary(u, SystemDims((d, d)))


def depolarizing_channel(dims: SystemDims, lam: float) -> KrausChannel:
    """Global depolarizing O -> (1-lam) O + lam tr(O)/D via Weyl operators."""
    if not 0.0 <= lam <= 1.0:
        raise ValueError(f"depolarizing strength must lie in [0, 1], got {lam}")
    d = dims.total
    eye = np.eye(d, dtype=complex)
    clock = np.diag(np.exp(2j * np.pi * np.arange(d) / d))
    clocks = np.array([np.linalg.matrix_power(clock, b) for b in range(d)])
    # sqrt(w) S^a for the cyclic shift S, one matrix product per (a, b) pair
    # as before, all in one call: each keeps its bits, signed zeros included
    shifts = np.sqrt(lam / d**2) * np.array([np.roll(eye, a, axis=0) for a in range(d)])
    kraus = (shifts[:, None] @ clocks).reshape(d * d, d, d)
    # S^0 C^0, the identity, also carries the unchanged part
    kraus[0] = np.sqrt(1.0 - lam + lam / d**2) * eye
    return KrausChannel(kraus, dims)


def classical_one_way_channel() -> KrausChannel:
    """Measure site 0 in the computational basis, flip site 1 on outcome 1.

    Signals from site 0 to site 1 but not back: the classic semicausal,
    non-causal example on two qubits.
    """
    p0 = np.diag([1.0, 0.0]).astype(complex)
    p1 = np.diag([0.0, 1.0]).astype(complex)
    x = np.array([[0, 1], [1, 0]], dtype=complex)
    kraus = [tensor_product(p0, np.eye(2)), tensor_product(p1, x)]
    return KrausChannel(kraus, SystemDims((2, 2)))


def local_random_channel(dims: SystemDims, rng) -> KrausChannel:
    """Conjugation by an independent Haar unitary on every site."""
    from .sampling import haar_local_unitary  # local: avoids an import cycle

    return from_unitary(haar_local_unitary(dims, rng), dims)


def zoo(name: str, dims: SystemDims | None = None, **params) -> KrausChannel:
    """Named channel constructors for experiments and tests.

    Recognized names: identity, cnot, swap (params: d, default 2),
    depolarizing (params: lam), classical-one-way, local-random (params: rng).
    """
    if name == "identity":
        return identity_channel(dims)
    if name == "cnot":
        return cnot_channel()
    if name == "swap":
        return swap_channel(**params)
    if name == "depolarizing":
        return depolarizing_channel(dims, **params)
    if name == "classical-one-way":
        return classical_one_way_channel()
    if name == "local-random":
        return local_random_channel(dims, **params)
    raise ValueError(f"unknown channel zoo entry: {name!r}")
