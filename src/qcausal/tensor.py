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

import math
import operator
from dataclasses import dataclass
from functools import cached_property
from itertools import combinations

import numpy as np

#: Absolute tolerance of every structural check (unitality, Hermiticity,
#: positivity, support and locality), both those an object runs on itself and
#: the predicates ``is_unitary``, ``is_hermitian``, ``check_density``,
#: ``is_supported_on`` and ``is_local_channel``.  Verdict tolerances are
#: config fields.
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
            dims = tuple(operator.index(d) for d in self.dims)  # refuses str and float
        except TypeError as exc:
            raise ValueError(
                f"dims must be a list of integers, got {self.dims!r}"
            ) from exc
        object.__setattr__(self, "dims", dims)
        if len(dims) == 0:
            raise ValueError("need at least one site")
        if any(d < 2 for d in dims):
            raise ValueError(f"every local dimension must be >= 2, got {dims}")
        if math.prod(dims) > MAX_TOTAL_DIM:
            raise ValueError(
                f"total dimension {math.prod(dims)} exceeds supported "
                f"maximum {MAX_TOTAL_DIM}"
            )

    @property
    def total(self) -> int:
        return math.prod(self.dims)

    @property
    def nsites(self) -> int:
        return len(self.dims)

    def block_dim(self, sites) -> int:
        """Dimension of the tensor factor on ``sites``; 1 for no sites."""
        return math.prod(self.dims[s] for s in sites)

    def sub(self, sites) -> "SystemDims":
        """The dims of the tensor factor on ``sites``, in the order given."""
        return SystemDims(tuple(self.dims[s] for s in sites))


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
        left = tuple(sorted(_site_indices(self.left)))
        right = tuple(sorted(_site_indices(self.right)))
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
        left = _site_indices(left)
        return cls(dims, left, tuple(s for s in range(dims.nsites) if s not in left))

    @cached_property
    def left_dim(self) -> int:
        return self.dims.block_dim(self.left)

    @cached_property
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
            out.append(Bipartition.split(dims, (0,) + rest))
    return out


def tensor_product(*ops) -> np.ndarray:
    """Kronecker product of the given operators, first factor slowest."""
    out = np.asarray(ops[0], dtype=complex)
    for op in ops[1:]:
        out = np.kron(out, np.asarray(op, dtype=complex))
    return out


def _check_square(op: np.ndarray, dims: SystemDims):
    d = dims.total
    if op.shape[-2:] != (d, d):
        raise ValueError(f"operator has shape {op.shape}, expected (..., {d}, {d})")


def _site_indices(sites) -> tuple[int, ...]:
    try:
        return tuple(operator.index(s) for s in sites)  # refuses str and float
    except TypeError as exc:
        raise ValueError(f"site indices must be integers, got {sites!r}") from exc


def _check_sites(sites, dims: SystemDims):
    sites = _site_indices(sites)
    if len(set(sites)) != len(sites):
        raise ValueError(f"repeated site index in {sites}")
    for s in sites:
        if not 0 <= s < dims.nsites:
            raise ValueError(f"site index {s} out of range for {dims.dims}")
    return sites


def embed_operator(op, sites, dims: SystemDims) -> np.ndarray:
    """Embed ``op`` acting on ``sites`` into the full system, identity elsewhere.

    ``op`` must act on the tensor product of the listed sites, with its
    factors ordered exactly as ``sites`` is given.  Leading axes of a
    ``(..., d, d)`` stack are kept.
    """
    op = np.asarray(op, dtype=complex)
    sites = _check_sites(sites, dims)
    d = dims.dims
    d_sites = dims.block_dim(sites)
    if op.shape[-2:] != (d_sites, d_sites):
        raise ValueError(
            f"operator shape {op.shape} does not match sites {sites} "
            f"with dims {tuple(d[s] for s in sites)}"
        )
    n = dims.nsites
    rest = [s for s in range(n) if s not in sites]
    eye = np.eye(dims.block_dim(rest), dtype=complex)
    # Adjoint of partial_trace: row leg i is label i, column leg i is n + i.
    out = np.einsum(
        op.reshape(op.shape[:-2] + tuple(d[s] for s in sites) * 2),
        [..., *sites, *(n + s for s in sites)],
        eye.reshape(tuple(d[s] for s in rest) * 2),
        [*rest, *(n + s for s in rest)],
        [..., *range(2 * n)],
    )
    return out.reshape(op.shape[:-2] + (dims.total, dims.total))


def partial_trace(op, dims: SystemDims, sites) -> np.ndarray:
    """Trace out the listed sites, keeping the rest in order and any leading axes."""
    op = np.asarray(op, dtype=complex)
    _check_square(op, dims)
    sites = _check_sites(sites, dims)
    n = dims.nsites
    lead = op.shape[:-2]
    shaped = op.reshape(lead + dims.dims * 2)
    # Row axis i keeps index i; the column axis of a traced site repeats it.
    subs = list(range(n)) + [i if i in sites else n + i for i in range(n)]
    keep = [i for i in range(n) if i not in sites]
    out = np.einsum(shaped, [..., *subs], [..., *keep, *(n + i for i in keep)])
    d_keep = dims.block_dim(keep)
    return out.reshape(lead + (d_keep, d_keep))


def _legs_in_order(ops: np.ndarray, order, dims: SystemDims) -> np.ndarray:
    """The legs of each op of a ``(..., D, D)`` stack, rows then columns,
    each in site ``order``: a view of ``ops``, so that the caller's one
    reshape or assignment is its one copy."""
    lead = ops.shape[:-2]
    k, n = len(lead), dims.nsites
    legs = [k + s for s in order]
    shaped = ops.reshape(*lead, *dims.dims * 2)
    return shaped.transpose(*range(k), *legs, *(n + leg for leg in legs))


def _in_order(ops: np.ndarray, order, dims: SystemDims) -> np.ndarray:
    """Each op of a ``(..., D, D)`` stack with its row and column legs in site
    ``order``; a view of ``ops`` where the reshape allows one."""
    return _legs_in_order(ops, order, dims).reshape(ops.shape)


def realign(op, part: Bipartition) -> np.ndarray:
    """Realign ``op`` across a bipartition.

    Maps the matrix with composite entries ``op[(i, j), (i', j')]`` (``i``
    indexing the left block, ``j`` the right block) to the realigned matrix
    ``R[(i, i'), (j, j')]``.  A product operator ``A (x) B`` realigns to the
    rank-one matrix ``vec(A) vec(B)^T``, so the singular values of ``R`` are
    the operator Schmidt coefficients of ``op`` across the bipartition.
    Leading axes of a ``(..., D, D)`` stack are kept.
    """
    op = np.asarray(op, dtype=complex)
    _check_square(op, part.dims)
    lead, dl, dr = op.shape[:-2], part.left_dim, part.right_dim
    n, nl = part.dims.nsites, len(part.left)
    # legs (i, j, i', j') with the left block first, then (i, i', j, j')
    legs = _legs_in_order(op, part.left + part.right, part.dims)
    legs = np.moveaxis(legs, range(-n, nl - n), range(nl - 2 * n, 2 * nl - 2 * n))
    return legs.reshape(*lead, dl * dl, dr * dr)


def gram_sum(ks) -> np.ndarray:
    """``sum_i K_i^+ K_i`` over the ``k`` axis of a ``(..., k, d, d)`` stack,
    as one matmul."""
    *lead, k, rows, cols = ks.shape
    flat = ks.reshape(*lead, k * rows, cols)
    return flat.conj().swapaxes(-1, -2) @ flat


def polar_unitary(m) -> np.ndarray:
    """Closest unitary to ``m``: the unitary factor ``W V^+`` of the SVD.

    Maximizes ``Re tr(U^+ m)`` over unitaries.  For singular ``m`` the SVD
    supplies unit factors on the null directions, so the result is always
    unitary.  Leading axes of a ``(..., d, d)`` stack are kept.
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
    basis = np.zeros((d * d, d, d), dtype=complex)
    basis[0].flat[:: d + 1] = 1 / np.sqrt(d)
    # pairs j < k, row-major as from np.triu_indices, which costs more at d = 2
    j, k = np.nonzero(np.arange(d)[:, None] < np.arange(d))
    couples = basis[1 : d * d - d + 1].reshape(-1, 2, d, d)
    q = np.arange(j.size)
    couples[q, :, j, k] = (1 / np.sqrt(2), -1j / np.sqrt(2))
    couples[q, :, k, j] = (1 / np.sqrt(2), 1j / np.sqrt(2))
    for l in range(1, d):
        diag = basis[d * d - d + l]
        scale = 1 / np.sqrt(l * (l + 1))
        diag.flat[: l * (d + 1) : d + 1] = scale
        # bit for bit the complex Gell-Mann matrix / sqrt(l (l + 1)), which numpy
        # divides through the reciprocal; -l / sqrt(l (l + 1)) differs from l = 3
        diag[l, l] = -l * scale
    return basis


def trace_norm(m) -> float:
    """Sum of singular values, rounding-level ones included: at (8,8) ``swap``
    against the identity the Choi difference reads 2.7e-14 relative off the
    closed form ``2 sqrt(4032)``, which an oracle at ``D >= 36`` should use."""
    return float(np.linalg.svd(np.asarray(m, dtype=complex), compute_uv=False).sum())


def is_unitary(u) -> bool:
    """True if ``u`` is a square matrix with ``u^+ u = 1`` within ``DEFAULT_TOL``;
    a ``(0, 0)`` matrix is."""
    u = np.asarray(u)
    if u.ndim != 2 or u.shape[0] != u.shape[1]:
        return False
    d = u.shape[0]
    return bool(np.abs(u.conj().T @ u - np.eye(d)).max(initial=0.0) <= DEFAULT_TOL)


def is_hermitian(op) -> bool:
    """True if ``op``, or every matrix of a ``(..., d, d)`` stack, is Hermitian
    within ``DEFAULT_TOL``; an empty stack is."""
    op = np.asarray(op)
    if op.ndim < 2 or op.shape[-1] != op.shape[-2]:
        return False
    return bool(np.abs(op - op.conj().swapaxes(-1, -2)).max(initial=0.0) <= DEFAULT_TOL)


def check_density(rho) -> np.ndarray:
    """Validate a density matrix (Hermitian, positive, unit trace) within
    ``DEFAULT_TOL``; return it.

    Every matrix of a ``(..., D, D)`` stack is checked, and an empty stack
    passes; an error names the first bad trace or the lowest eigenvalue of
    the stack.  Positivity is first tried as one Cholesky factorization of
    ``rho + (DEFAULT_TOL / 2) 1``: Cholesky is backward stable, so one that
    completes shows every eigenvalue >= -DEFAULT_TOL / 2 - O(D^2 eps |rho|),
    above -DEFAULT_TOL.  A stack it refuses is judged by ``eigvalsh`` alone.
    """
    rho = np.asarray(rho, dtype=complex)
    if not is_hermitian(rho):
        raise ValueError("density matrix is not Hermitian")
    traces = np.trace(rho, axis1=-2, axis2=-1)
    bad = np.abs(traces.real - 1.0) > DEFAULT_TOL
    if bad.any():
        raise ValueError(f"density matrix has trace {traces[bad][0]:.6g}, not 1")
    try:
        np.linalg.cholesky(rho + (DEFAULT_TOL / 2) * np.eye(rho.shape[-1]))
        return rho
    except np.linalg.LinAlgError:
        pass
    lowest = np.linalg.eigvalsh(rho).min(initial=0.0)
    if lowest < -DEFAULT_TOL:
        raise ValueError(f"density matrix has negative eigenvalue {lowest:.3g}")
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
