"""Dense tensor-product linear algebra for small multipartite systems.

Conventions used throughout the package:

* A multipartite operator on sites with dimensions ``(d_0, ..., d_{N-1})``
  is a dense complex matrix of shape ``(D, D)`` with ``D = prod(d_i)``,
  indexed row-major: site 0 is the slowest-varying tensor factor, exactly
  as produced by ``np.kron(op_0, op_1, ...)``.
* Site indices are 0-based everywhere.
* All routines are pure functions of their arguments and allocate fresh
  output arrays, so they are safe to call from concurrent readers.

Everything is dense and targeted at desk scale (total dimension <= 64);
there is deliberately no sparse or tensor-network path.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

import numpy as np

#: Default absolute tolerance for structural checks (unitarity, Hermiticity,
#: support tests).  Every check accepts an explicit override.
DEFAULT_TOL = 1e-10

#: Largest supported total dimension.  Keeps every dense operation cheap and
#: every validation affordable.
MAX_TOTAL_DIM = 64


@dataclass(frozen=True)
class SystemDims:
    """Ordered local dimensions of a multipartite system.

    ``dims[i]`` is the dimension of site ``i``; site 0 is the slowest-varying
    factor of the composite row-major index.
    """

    dims: tuple[int, ...]

    def __post_init__(self):
        try:
            dims = tuple(int(d) for d in self.dims)
        except TypeError as exc:
            raise ValueError(
                f"dims must be a list of integers, got {self.dims!r}"
            ) from exc
        object.__setattr__(self, "dims", dims)
        if len(dims) == 0:
            raise ValueError("need at least one site")
        if any(d < 2 for d in dims):
            raise ValueError(f"every local dimension must be >= 2, got {dims}")
        if int(np.prod(dims)) > MAX_TOTAL_DIM:
            raise ValueError(
                f"total dimension {int(np.prod(dims))} exceeds supported "
                f"maximum {MAX_TOTAL_DIM}"
            )

    @property
    def total(self) -> int:
        return int(np.prod(self.dims))

    @property
    def nsites(self) -> int:
        return len(self.dims)

    def block_dim(self, sites) -> int:
        """Dimension of the tensor factor on ``sites``; 1 for no sites."""
        return int(np.prod([self.dims[s] for s in sites]))

    def __len__(self) -> int:
        return len(self.dims)

    def __iter__(self):
        return iter(self.dims)


@dataclass(frozen=True)
class Bipartition:
    """A two-block partition of the sites of a :class:`SystemDims`.

    ``left`` and ``right`` are disjoint, jointly exhaustive, non-empty
    ascending site tuples.  The left block is conventionally the sender
    side in signalling questions; use :meth:`swapped` for the reverse
    direction.
    """

    dims: SystemDims
    left: tuple[int, ...]
    right: tuple[int, ...]

    def __post_init__(self):
        left = tuple(sorted(int(s) for s in self.left))
        right = tuple(sorted(int(s) for s in self.right))
        object.__setattr__(self, "left", left)
        object.__setattr__(self, "right", right)
        n = self.dims.nsites
        if not left or not right:
            raise ValueError("both blocks of a bipartition must be non-empty")
        if sorted(left + right) != list(range(n)):
            raise ValueError(
                f"blocks {left} | {right} do not partition sites 0..{n - 1}"
            )

    @classmethod
    def split(cls, dims: SystemDims, left) -> "Bipartition":
        """Bipartition with the given left block; the right block is the rest."""
        left = tuple(sorted(int(s) for s in left))
        right = tuple(s for s in range(dims.nsites) if s not in left)
        return cls(dims, left, right)

    @property
    def left_dim(self) -> int:
        return self.dims.block_dim(self.left)

    @property
    def right_dim(self) -> int:
        return self.dims.block_dim(self.right)

    def swapped(self) -> "Bipartition":
        return Bipartition(self.dims, self.right, self.left)


def all_bipartitions(dims: SystemDims):
    """Every bipartition of ``dims`` up to block exchange.

    Site 0 is always placed in the left block, so each unordered two-block
    split appears exactly once (``2**(N-1) - 1`` entries).
    """
    n = dims.nsites
    out = []
    for k in range(1, n):
        for rest in combinations(range(1, n), k - 1):
            left = (0,) + rest
            if len(left) < n:
                out.append(Bipartition.split(dims, left))
    return out


def tensor_product(*ops) -> np.ndarray:
    """Kronecker product of the given operators, first factor slowest."""
    out = np.asarray(ops[0], dtype=complex)
    for op in ops[1:]:
        out = np.kron(out, np.asarray(op, dtype=complex))
    return out


def _check_square(op: np.ndarray, dims: SystemDims, name: str = "operator"):
    d = dims.total
    if op.shape != (d, d):
        raise ValueError(f"{name} has shape {op.shape}, expected ({d}, {d})")


def _check_sites(sites, dims: SystemDims):
    sites = tuple(int(s) for s in sites)
    if len(set(sites)) != len(sites):
        raise ValueError(f"repeated site index in {sites}")
    for s in sites:
        if not 0 <= s < dims.nsites:
            raise ValueError(f"site index {s} out of range for {dims.dims}")
    return sites


def embed_operator(op, sites, dims: SystemDims) -> np.ndarray:
    """Embed ``op`` acting on ``sites`` into the full system, identity elsewhere.

    ``op`` must act on the tensor product of the listed sites, with its
    factors ordered exactly as ``sites`` is given.
    """
    op = np.asarray(op, dtype=complex)
    sites = _check_sites(sites, dims)
    d = dims.dims
    d_sites = dims.block_dim(sites)
    if op.shape != (d_sites, d_sites):
        raise ValueError(
            f"operator shape {op.shape} does not match sites {sites} "
            f"with dims {tuple(d[s] for s in sites)}"
        )
    rest = tuple(s for s in range(dims.nsites) if s not in sites)
    d_rest = dims.block_dim(rest)
    full = np.kron(op, np.eye(d_rest, dtype=complex))
    # `full` carries the factors in order sites + rest; permute to site order.
    order = sites + rest
    n = dims.nsites
    shaped = full.reshape([d[s] for s in order] * 2)
    inv = np.argsort(order)
    shaped = shaped.transpose(list(inv) + [n + i for i in inv])
    return np.ascontiguousarray(shaped.reshape(dims.total, dims.total))


def partial_trace(op, dims: SystemDims, sites) -> np.ndarray:
    """Trace out the listed sites; the result keeps the remaining sites in order."""
    op = np.asarray(op, dtype=complex)
    _check_square(op, dims)
    sites = _check_sites(sites, dims)
    n = dims.nsites
    shaped = op.reshape(list(dims.dims) * 2)
    # Row axis i keeps index i; the column axis of a traced site repeats it.
    subs = list(range(n)) + [i if i in sites else n + i for i in range(n)]
    keep = [i for i in range(n) if i not in sites]
    out = np.einsum(shaped, subs, keep + [n + i for i in keep])
    d_keep = dims.block_dim(keep)
    return out.reshape(d_keep, d_keep)


def realign(op, part: Bipartition) -> np.ndarray:
    """Realign ``op`` across a bipartition.

    Maps the matrix with composite entries ``op[(i, j), (i', j')]`` (``i``
    indexing the left block, ``j`` the right block) to the realigned matrix
    ``R[(i, i'), (j, j')]``.  A product operator ``A (x) B`` realigns to the
    rank-one matrix ``vec(A) vec(B)^T``, so the singular values of ``R`` are
    the operator Schmidt coefficients of ``op`` across the bipartition.
    """
    op = np.asarray(op, dtype=complex)
    _check_square(op, part.dims)
    d = part.dims.dims
    n = part.dims.nsites
    order = part.left + part.right
    shaped = op.reshape(list(d) * 2)
    perm = list(order) + [n + s for s in order]
    shaped = shaped.transpose(perm)
    dl, dr = part.left_dim, part.right_dim
    # (i, j, i', j') -> (i, i', j, j')
    blocked = shaped.reshape(dl, dr, dl, dr).transpose(0, 2, 1, 3)
    return np.ascontiguousarray(blocked.reshape(dl * dl, dr * dr))


def polar_unitary(m) -> np.ndarray:
    """Closest unitary to ``m``: the unitary factor ``W V^+`` of the SVD.

    Maximizes ``Re tr(U^+ m)`` over unitaries.  For singular ``m`` the SVD
    supplies unit factors on the null directions, so the result is always
    unitary.
    """
    m = np.asarray(m, dtype=complex)
    w, _, vh = np.linalg.svd(m)
    return w @ vh


def hermitian_basis(d: int) -> np.ndarray:
    """Orthonormal Hermitian basis of the d x d matrices, Frobenius inner product.

    Fixed order: identity / sqrt(d); then for each pair j < k the symmetric
    element ``(E_jk + E_kj)/sqrt(2)`` followed by the antisymmetric element
    ``-i(E_jk - E_kj)/sqrt(2)``; then the d - 1 diagonal (generalized
    Gell-Mann) elements.
    """
    if d < 1:
        raise ValueError("dimension must be positive")
    basis = [np.eye(d, dtype=complex) / np.sqrt(d)]
    for j in range(d):
        for k in range(j + 1, d):
            sym = np.zeros((d, d), dtype=complex)
            sym[j, k] = sym[k, j] = 1 / np.sqrt(2)
            basis.append(sym)
            asym = np.zeros((d, d), dtype=complex)
            asym[j, k] = -1j / np.sqrt(2)
            asym[k, j] = 1j / np.sqrt(2)
            basis.append(asym)
    for l in range(1, d):
        diag = np.zeros((d, d), dtype=complex)
        diag[np.arange(l), np.arange(l)] = 1
        diag[l, l] = -l
        basis.append(diag / np.sqrt(l * (l + 1)))
    return np.array(basis)


def hermitian_vector(op) -> np.ndarray:
    """Real coordinates of a Hermitian matrix, isometric for the Frobenius norm.

    Stacks the diagonal with sqrt(2)-weighted real and imaginary parts of the
    strict upper triangle, so ``norm(hermitian_vector(H)) == norm(H, 'fro')``
    for Hermitian ``H``.
    """
    op = np.asarray(op)
    iu = np.triu_indices(op.shape[0], k=1)
    upper = op[iu]
    return np.concatenate(
        [np.diag(op).real, np.sqrt(2) * upper.real, np.sqrt(2) * upper.imag]
    )


def frobenius_inner(a, b) -> complex:
    """Frobenius inner product tr(a^+ b), conjugate-linear in the first slot."""
    return complex(np.vdot(np.asarray(a), np.asarray(b)))


def trace_norm(m) -> float:
    """Sum of singular values."""
    return float(np.linalg.svd(np.asarray(m, dtype=complex), compute_uv=False).sum())


def is_unitary(u, tol: float = DEFAULT_TOL) -> bool:
    u = np.asarray(u)
    if u.ndim != 2 or u.shape[0] != u.shape[1]:
        return False
    d = u.shape[0]
    return bool(np.abs(u.conj().T @ u - np.eye(d)).max() <= tol)


def is_hermitian(op, tol: float = DEFAULT_TOL) -> bool:
    op = np.asarray(op)
    if op.ndim != 2 or op.shape[0] != op.shape[1]:
        return False
    return bool(np.abs(op - op.conj().T).max() <= tol)


def check_density(rho, tol: float = DEFAULT_TOL) -> np.ndarray:
    """Validate a density matrix (Hermitian, positive, unit trace); return it."""
    rho = np.asarray(rho, dtype=complex)
    if not is_hermitian(rho, tol):
        raise ValueError("density matrix is not Hermitian")
    if abs(np.trace(rho).real - 1.0) > tol:
        raise ValueError(f"density matrix has trace {np.trace(rho):.6g}, not 1")
    evals = np.linalg.eigvalsh(rho)
    if evals.min() < -tol:
        raise ValueError(f"density matrix has negative eigenvalue {evals.min():.3g}")
    return rho


def to_re_im(m) -> list:
    """Wire format of a complex array: nested lists ending in [re, im] pairs."""
    m = np.asarray(m, dtype=complex)
    return np.stack([m.real, m.imag], -1).tolist()


def from_re_im(data) -> np.ndarray:
    """Inverse of :func:`to_re_im`, bit-exact (signed zeros included).

    Raises ``ValueError`` unless ``data`` is a regular nest of lists whose
    innermost entries are numeric ``[re, im]`` pairs.
    """
    try:
        arr = np.asarray(data)
    except ValueError as exc:  # ragged nesting
        raise ValueError(f"cannot parse [re, im] pairs: {exc}") from exc
    if arr.ndim < 2 or arr.shape[-1] != 2 or arr.dtype.kind not in "iuf":
        raise ValueError(
            "expected nested lists of numeric [re, im] pairs, got an array of "
            f"shape {arr.shape} and dtype {arr.dtype}"
        )
    out = np.empty(arr.shape[:-1], dtype=complex)
    out.real, out.imag = arr[..., 0], arr[..., 1]
    return out
