"""Unital completely positive maps in the Heisenberg picture.

A channel is stored by its Kraus family ``{K_i}`` and acts on observables as
``O -> sum_i K_i^+ O K_i`` with ``sum_i K_i^+ K_i = 1`` (unitality).  The
Heisenberg picture is primary throughout the package; the Schroedinger dual
``rho -> sum_i K_i rho K_i^+`` is provided for cross-checks only.

The Choi matrix convention is ``J = sum_ij |i><j| (x) Phi(|i><j|)`` with no
normalization factor, so the identity channel has ``J`` equal to the
unnormalized maximally-entangled projector of trace ``D``.
"""

from __future__ import annotations

import numpy as np

from .tensor import (
    DEFAULT_TOL,
    SystemDims,
    embed_operator,
    from_re_im,
    is_hermitian,
    is_unitary,
    tensor_product,
    to_re_im,
)


class KrausChannel:
    """A unital CP map on a multipartite system, Heisenberg picture.

    Parameters
    ----------
    kraus : sequence of (D, D) complex matrices
    dims : SystemDims with total dimension D
    tol : absolute tolerance for the unitality check at construction
    """

    def __init__(self, kraus, dims: SystemDims, tol: float = DEFAULT_TOL):
        self.dims = dims
        d = dims.total
        ks = np.array([np.asarray(k, dtype=complex) for k in kraus])
        if ks.ndim != 3 or ks.shape[1:] != (d, d):
            raise ValueError(
                f"Kraus operators must have shape (k, {d}, {d}), got {ks.shape}"
            )
        self.kraus = ks
        unit = np.einsum("kij,kil->jl", ks.conj(), ks)
        err = np.abs(unit - np.eye(d)).max()
        if err > tol:
            raise ValueError(f"Kraus family is not unital: deviation {err:.3g}")

    @property
    def nkraus(self) -> int:
        return self.kraus.shape[0]

    def apply(self, op) -> np.ndarray:
        """Heisenberg action sum_i K_i^+ op K_i."""
        op = np.asarray(op, dtype=complex)
        return np.einsum("kji,jl,klm->im", self.kraus.conj(), op, self.kraus)

    def apply_schrodinger(self, rho) -> np.ndarray:
        """Dual (state) action sum_i K_i rho K_i^+; for tests and cross-checks."""
        rho = np.asarray(rho, dtype=complex)
        return np.einsum("kij,jl,kml->im", self.kraus, rho, self.kraus.conj())

    def to_json(self) -> dict:
        """Wire format: dims plus each Kraus operator as rows of [re, im] pairs."""
        return {"dims": list(self.dims.dims), "kraus": to_re_im(self.kraus)}

    @classmethod
    def from_json(cls, data: dict) -> "KrausChannel":
        """Inverse of :meth:`to_json`; malformed input raises ``ValueError``."""
        if not isinstance(data, dict) or not {"dims", "kraus"} <= data.keys():
            raise ValueError("a channel must be an object with 'dims' and 'kraus'")
        return cls(from_re_im(data["kraus"]), SystemDims(data["dims"]))


class ChoiMatrix:
    """Choi matrix of a Heisenberg-picture channel, trace-D normalization."""

    def __init__(self, entries, dims: SystemDims, tol: float = DEFAULT_TOL):
        self.dims = dims
        d = dims.total
        entries = np.asarray(entries, dtype=complex)
        if entries.shape != (d * d, d * d):
            raise ValueError(
                f"Choi matrix must have shape ({d * d}, {d * d}), got {entries.shape}"
            )
        self.entries = entries
        if not is_hermitian(entries, tol):
            raise ValueError("Choi matrix is not Hermitian")
        min_eig = float(np.linalg.eigvalsh(entries).min())
        if min_eig < -tol:
            raise ValueError(f"Choi matrix has negative eigenvalue {min_eig:.3g}")
        # Unitality of the channel == the marginal over the index factor is 1.
        marg = np.trace(entries.reshape(d, d, d, d), axis1=0, axis2=2)
        err = np.abs(marg - np.eye(d)).max()
        if err > tol:
            raise ValueError(
                f"Choi marginal deviates from identity by {err:.3g}; "
                "channel is not unital"
            )


def from_unitary(u, dims: SystemDims, tol: float = DEFAULT_TOL) -> KrausChannel:
    """Conjugation channel O -> U^+ O U of a single unitary."""
    u = np.asarray(u, dtype=complex)
    if not is_unitary(u, tol):
        raise ValueError("matrix is not unitary within tolerance")
    return KrausChannel([u], dims, tol=tol)


def embed_local(c: KrausChannel, sites, ambient: SystemDims) -> KrausChannel:
    """Extend a channel on a site subset to the full system, identity elsewhere.

    ``c.dims`` must equal the ambient dimensions at ``sites`` (in the order
    given).  Every operator supported on the complement is left fixed.
    """
    sites = tuple(int(s) for s in sites)
    expected = tuple(ambient.dims[s] for s in sites)
    if c.dims.dims != expected:
        raise ValueError(
            f"channel dims {c.dims.dims} do not match ambient dims {expected} "
            f"at sites {sites}"
        )
    kraus = [embed_operator(k, sites, ambient) for k in c.kraus]
    return KrausChannel(kraus, ambient)


def kraus_to_choi(c: KrausChannel) -> ChoiMatrix:
    """Choi matrix sum_ij |i><j| (x) Phi(|i><j|) of the Heisenberg action."""
    d = c.dims.total
    # For Phi(O) = sum_k K^+ O K one has J = sum_k v_k v_k^+ with
    # v_k = vec(conj(K_k)) in row-major order.
    vecs = c.kraus.conj().reshape(c.nkraus, d * d)
    entries = np.einsum("ki,kj->ij", vecs, vecs.conj())
    return ChoiMatrix(entries, c.dims)


def choi_to_kraus(
    j: ChoiMatrix, cutoff: float = 1e-12, tol: float = DEFAULT_TOL
) -> KrausChannel:
    """Kraus family from the eigendecomposition of a Choi matrix.

    Eigenvalues at or below ``cutoff`` are dropped; an eigenvalue below
    ``-tol`` is a validation error (already enforced by :class:`ChoiMatrix`).
    """
    d = j.dims.total
    evals, evecs = np.linalg.eigh(j.entries)
    if evals.min() < -tol:
        raise ValueError(f"Choi matrix has negative eigenvalue {evals.min():.3g}")
    kraus = [
        (np.sqrt(lam) * evecs[:, i]).conj().reshape(d, d)
        for i, lam in enumerate(evals)
        if lam > cutoff
    ]
    return KrausChannel(kraus, j.dims, tol=tol)


def mix(a: KrausChannel, b: KrausChannel, p: float) -> KrausChannel:
    """Convex combination p*a + (1-p)*b via weighted Kraus families."""
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"mixing weight must lie in [0, 1], got {p}")
    if a.dims != b.dims:
        raise ValueError("cannot mix channels with different dims")
    kraus = [np.sqrt(p) * k for k in a.kraus] + [np.sqrt(1.0 - p) * k for k in b.kraus]
    return KrausChannel(kraus, a.dims)


# ---------------------------------------------------------------------------
# named channel zoo
# ---------------------------------------------------------------------------


def identity_channel(dims: SystemDims) -> KrausChannel:
    return KrausChannel([np.eye(dims.total)], dims)


def product_unitary_channel(unitaries, dims: SystemDims | None = None) -> KrausChannel:
    """Conjugation by a tensor product of local unitaries, one per site."""
    if dims is None:
        dims = SystemDims(tuple(np.asarray(u).shape[0] for u in unitaries))
    if len(unitaries) != dims.nsites:
        raise ValueError("need exactly one local unitary per site")
    for i, u in enumerate(unitaries):
        if np.asarray(u).shape != (dims.dims[i], dims.dims[i]):
            raise ValueError(f"factor {i} has wrong shape for dims {dims.dims}")
    return from_unitary(tensor_product(*unitaries), dims)


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
    shift = np.roll(np.eye(d, dtype=complex), 1, axis=0)
    clock = np.diag(np.exp(2j * np.pi * np.arange(d) / d))
    kraus = [np.sqrt(1.0 - lam + lam / d**2) * np.eye(d, dtype=complex)]
    w = lam / d**2
    for a in range(d):
        for b in range(d):
            if a == 0 and b == 0:
                continue
            kraus.append(
                np.sqrt(w)
                * np.linalg.matrix_power(shift, a)
                @ np.linalg.matrix_power(clock, b)
            )
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
    from .sampling import haar_unitary  # local import keeps the module graph acyclic

    return product_unitary_channel([haar_unitary(d, rng) for d in dims.dims], dims)


def zoo(name: str, dims: SystemDims | None = None, **params) -> KrausChannel:
    """Named channel constructors for experiments and tests.

    Recognized names: identity, product-unitary (params: unitaries),
    cnot, swap (params: d), depolarizing (params: lam),
    classical-one-way, local-random (params: rng).
    """
    if name == "identity":
        return identity_channel(dims)
    if name == "product-unitary":
        return product_unitary_channel(params["unitaries"], dims)
    if name == "cnot":
        return cnot_channel()
    if name == "swap":
        return swap_channel(int(params.get("d", 2)))
    if name == "depolarizing":
        return depolarizing_channel(dims, float(params["lam"]))
    if name == "classical-one-way":
        return classical_one_way_channel()
    if name == "local-random":
        return local_random_channel(dims, params["rng"])
    raise ValueError(f"unknown channel zoo entry: {name!r}")
