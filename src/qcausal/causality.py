"""Deciding and quantifying signalling for channels on multipartite systems.

The operational test is the Sorkin-style preparation difference: a channel
``Phi_int`` admits signalling from a sender site set M to the complementary
receiver sites exactly when some local preparation before it changes the
expectation of some receiver observable after it,

    tr(rho Phi_prep(Phi_int(O))) - tr(rho Phi_int(O)) != 0,

with ``Phi_prep`` local to M and ``O`` supported on the complement.  (Maps
compose backwards in the Heisenberg picture, so the preparation, which acts
first in time, is applied last.)

Two structural reformulations drive the fast deciders:

* No signalling sender -> receiver holds iff ``Phi(1 (x) O_R)`` lies in
  ``1 (x) M_R`` for every receiver observable; the distance from that
  containment is the semicausal defect computed here.
* A unitary signals in neither direction across any bipartition iff it is a
  tensor product of local unitaries, which is visible as an operator Schmidt
  rank condition on its realignment.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from itertools import groupby

import numpy as np

from .channels import KrausChannel, kraus_to_choi, mix
from .tensor import (
    DEFAULT_TOL,
    Bipartition,
    SystemDims,
    all_bipartitions,
    check_density,
    embed_operator,
    gram_sum,
    hermitian_basis,
    is_hermitian,
    is_unitary,
    partial_trace,
    polar_unitary,
    realign,
    trace_norm,
)


def _off_block(ops, sites, dims: SystemDims) -> np.ndarray:
    """``op - embed(tr_rest(op) / d_rest, sites)`` for each op of a (..., D, D)
    stack: the part off the algebra on ``sites``, zero exactly on that algebra."""
    rest = tuple(s for s in range(dims.nsites) if s not in sites)
    reduced = partial_trace(ops, dims, rest) / dims.block_dim(rest)
    return ops - embed_operator(reduced, sites, dims)


def is_supported_on(op, sites, dims: SystemDims, tol: float = DEFAULT_TOL) -> bool:
    """True if ``op`` equals (operator on sites) (x) identity elsewhere."""
    op = np.asarray(op, dtype=complex)
    sites = tuple(sorted(int(s) for s in sites))
    return bool(np.abs(_off_block(op, sites, dims)).max() <= tol)


def is_local_channel(
    c: KrausChannel, sites, tol: float = DEFAULT_TOL
) -> bool:
    """True if ``c`` acts as the identity on every operator supported off ``sites``.

    Tests ``max |sum_i off(K_i)^+ off(K_i)| <= tol``, ``off`` being the part
    off the algebra on ``sites``.  If ``c`` fixes every ``B`` off ``sites`` it
    fixes ``B^+ B``, so ``sum_i [B, K_i]^+ [B, K_i] = 0`` (multiplicative
    domain, Choi 1974): every ``K_i`` lies in the algebra on ``sites``; the
    converse is plain.  The Gram sum is the same for every Kraus family of
    ``c`` and, like ``c(B) - B``, linear in a mixing weight.  A stack of
    channels is local when every member is.
    """
    return _is_local(c.kraus, sites, c.dims, tol)


def _is_local(ks, sites, dims: SystemDims, tol: float = DEFAULT_TOL) -> bool:
    """:func:`is_local_channel` of the Kraus stack ``ks``."""
    sites = tuple(sorted(int(s) for s in sites))
    gram = gram_sum(_off_block(ks, sites, dims))
    return bool(np.abs(gram).max() <= tol)


def _direction_runs(partition) -> list:
    """``(part, index)`` for each run of equal directions of a scenario's
    ``partition``: the whole stack (``...``) for one :class:`Bipartition`, a
    slice of the member axis for each run of a sequence."""
    if isinstance(partition, Bipartition):
        return [(partition, ...)]
    runs, start = [], 0
    for part, members in groupby(partition):
        n = len(list(members))
        runs.append((part, slice(start, start + n)))
        start += n
    return runs


@dataclass
class SorkinScenario:
    """One complete signalling test: state, preparation, intervention, observable.

    ``partition.left`` is the sender site set M; the preparation must be
    local to it and the observable supported on the receiver sites
    ``partition.right``.  All constraints are validated at construction,
    within ``DEFAULT_TOL``.

    A stack of scenarios, tested against one intervention, has the same
    leading axes on ``rho``, ``observable`` and the Kraus stack of ``prep``;
    every member is validated.  Its ``partition`` is one oriented
    :class:`Bipartition` shared by every member, or, for a stack with one
    leading axis, a sequence of them (stored as a tuple), one per member:
    each member is then checked against its own direction.  The support and
    locality checks run once per run of equal directions.
    """

    rho: np.ndarray
    prep: KrausChannel
    intervention: KrausChannel
    observable: np.ndarray
    partition: Bipartition | tuple[Bipartition, ...]

    def __post_init__(self):
        if not isinstance(self.partition, Bipartition):
            self.partition = tuple(self.partition)
            if not self.partition:
                raise ValueError("need one partition per member, got none")
        runs = _direction_runs(self.partition)
        dims = runs[0][0].dims
        if any(part.dims != dims for part, _ in runs):
            raise ValueError("the members' partitions have different dims")
        self.rho = check_density(self.rho)
        if self.rho.shape[-2:] != (dims.total, dims.total):
            raise ValueError("state dimension does not match the partition")
        if self.prep.dims != dims or self.intervention.dims != dims:
            raise ValueError("channel dims do not match the partition")
        self.intervention.single()  # one channel, shared by every member
        self.observable = np.asarray(self.observable, dtype=complex)
        lead = self.rho.shape[:-2]
        if self.observable.shape[:-2] != lead or self.prep.kraus.shape[:-3] != lead:
            raise ValueError(
                f"state, preparation and observable stacks differ: "
                f"{lead}, {self.prep.kraus.shape[:-3]}, {self.observable.shape[:-2]}"
            )
        if isinstance(self.partition, tuple) and lead != (len(self.partition),):
            raise ValueError(
                f"need one partition per member: {len(self.partition)} "
                f"partitions for a stack of shape {lead}"
            )
        if not is_hermitian(self.observable):
            raise ValueError("observable is not Hermitian")
        for part, members in runs:
            if not is_supported_on(self.observable[members], part.right, dims):
                raise ValueError("observable is not supported on the receiver sites")
            if not _is_local(self.prep.kraus[members], part.left, dims):
                raise ValueError("preparation is not local to the sender sites")


def sorkin_violation(s: SorkinScenario):
    """Preparation difference of the scenario; zero means no signalling seen.

    A float for one scenario, an array of one difference per member for a
    stack.
    """
    evolved = s.intervention.apply(s.observable)
    with_prep = np.trace(s.rho @ s.prep.apply(evolved), axis1=-2, axis2=-1)
    without = np.trace(s.rho @ evolved, axis1=-2, axis2=-1)
    diff = (with_prep - without).real
    return float(diff) if diff.ndim == 0 else diff


@dataclass
class SignallingReport:
    """Strength and witness of signalling across one direction of a bipartition.

    ``gram`` is the Gram of the defect map over the receiver matrix units,
    from which :func:`semicausal_defect` reads the strength; the witness is
    computed from it when first read.
    """

    direction: tuple[tuple[int, ...], tuple[int, ...]]  # (sender, receiver) sites
    strength: float
    gram: np.ndarray = field(repr=False, compare=False)

    @cached_property
    def witness(self) -> np.ndarray:
        """Hermitian, unit Frobenius norm, on the receiver factor: the larger
        Hermitian part of a top eigenvector of ``gram``, signed so that its
        largest :func:`hermitian_basis` coordinate is positive."""
        d_r = math.isqrt(len(self.gram))
        x = np.linalg.eigh(self.gram)[1][:, -1].reshape(d_r, d_r)
        witness = max(((x + x.conj().T) / 2, (x - x.conj().T) / 2j), key=np.linalg.norm)
        witness = witness / np.linalg.norm(witness)
        # fix the overall sign for reproducibility
        coords = np.einsum("aji,ij->a", hermitian_basis(d_r), witness).real
        if coords[np.argmax(np.abs(coords))] < 0:
            witness = -witness
        return witness


def semicausal_defect(c: KrausChannel, part: Bipartition) -> SignallingReport:
    """How far the channel is from signalling-free in one direction.

    The sender is ``part.left``; pass ``part.swapped()`` for the reverse
    direction.  For receiver observables ``O_R`` the map

        O_R  |->  Phi(1 (x) O_R) - 1 (x) tr_S[Phi(1 (x) O_R)] / d_S

    measures the failure of ``Phi(1 (x) O_R)`` to stay inside the receiver
    algebra.  The strength is its largest singular value from Frobenius norm
    to Frobenius norm over the receiver matrix units ``E_rr'``: with each
    Kraus operator's row legs in (sender, receiver) order the family is a
    ``(k d_S, d_R D)`` matrix ``A``, and ``Phi(1 (x) E_rr')`` is the slice
    ``[r, :, r', :]`` of ``A^+ A``.  The strength is the square root of the
    top eigenvalue of the map's ``(d_R^2, d_R^2)`` Gram, from
    ``np.linalg.eigvalsh``; no eigenvector is computed here.  The map
    commutes with the adjoint, so the gains of the Hermitian parts of
    ``X = H1 + i H2`` add, and the larger part of a top eigenvector is the
    witness: a maximizing unit-norm Hermitian receiver observable, computed
    with ``np.linalg.eigh`` of the stored Gram only when
    :attr:`SignallingReport.witness` is read.  A strength within a caller's
    tolerance of zero certifies no signalling sender -> receiver.
    """
    if c.dims != part.dims:
        raise ValueError("channel dims do not match the partition")
    ks = c.single()
    s_sites, r_sites = part.left, part.right
    dims = part.dims
    n, d, d_r = dims.nsites, dims.total, dims.block_dim(r_sites)
    legs = [1 + s for s in s_sites + r_sites]
    a = ks.reshape(-1, *dims.dims, d).transpose(0, *legs, n + 1).reshape(-1, d_r * d)
    images = (a.conj().T @ a).reshape(d_r, d, d_r, d).transpose(0, 2, 1, 3)
    m = _off_block(images, r_sites, dims).reshape(d_r * d_r, d * d)
    gram = m.conj() @ m.T
    top = np.linalg.eigvalsh(gram)[-1]
    strength = float(np.sqrt(abs(top)))  # a zero Gram may give -0.0
    return SignallingReport(direction=(s_sites, r_sites), strength=strength, gram=gram)


def operator_schmidt_values(u, part: Bipartition) -> np.ndarray:
    """Descending operator Schmidt coefficients of ``u`` across the bipartition.

    These are the singular values of the realignment; their squares sum to
    ``norm(u, 'fro')**2`` (equal to the total dimension when ``u`` is
    unitary), and the second value vanishes exactly for product operators.
    Leading axes of a ``(..., D, D)`` stack are kept.
    """
    return np.linalg.svd(realign(u, part), compute_uv=False)


def is_causal_unitary(u, dims: SystemDims, tol: float = DEFAULT_TOL) -> bool:
    """True if ``u`` is a tensor product of local unitaries (signals nowhere).

    Checks that the second operator Schmidt value is at most ``tol`` across
    every bipartition of the sites; ``u`` must be unitary within
    ``DEFAULT_TOL``.
    """
    u = np.asarray(u, dtype=complex)
    if not is_unitary(u):
        raise ValueError("input is not unitary within tolerance")
    return all(operator_schmidt_values(u, p)[1] <= tol for p in all_bipartitions(dims))


@dataclass
class ProductApproximation:
    """Best product-unitary approximation found for a unitary."""

    u1: np.ndarray
    u2: np.ndarray
    overlap: float  # |tr((u1 (x) u2)^+ u)|
    distance: float  # Frobenius distance up to a global phase
    iterations: int
    converged: bool
    overlap_history: list  # overlap after each full sweep, starting value first


def nearest_product_unitary(
    u,
    part: Bipartition,
    tol: float = 1e-12,
    max_iter: int = 500,
) -> ProductApproximation:
    """Nearest product unitary to one unitary; see :func:`nearest_product_unitaries`."""
    return nearest_product_unitaries(
        np.asarray(u, dtype=complex)[None], part, tol=tol, max_iter=max_iter
    )[0]


def nearest_product_unitaries(
    us,
    part: Bipartition,
    tol: float = 1e-12,
    max_iter: int = 500,
) -> list[ProductApproximation]:
    """Alternating maximization of ``|tr((u1 (x) u2)^+ u)|`` over local unitaries.

    Fixing one factor, the optimal other factor is the closest unitary (polar
    part) to a partial contraction of the realignment, so every half step
    increases the overlap; iteration stops when the gain drops below ``tol``.
    The start point is the polar projection of the top operator Schmidt
    component, and ties (e.g. for swap-like unitaries, whose optimum is far
    from unique) are broken deterministically by the numpy SVD.

    ``us`` is an ``(n, D, D)`` stack of targets, one result each.  All
    targets still running share each sweep's stacked matmuls and polar
    SVDs, which run the same BLAS and LAPACK call per target as a stack of
    one, so every result equals that of the target run alone.  A target
    leaves the stack when it stops.

    The reported distance is the Frobenius distance from ``u`` to the phase
    orbit of ``u1 (x) u2`` (mathematically ``sqrt(2 D - 2 overlap)``).  It is
    evaluated by direct subtraction at the optimal phase rather than through
    that formula, which cancels catastrophically when ``u`` is itself close
    to a product and would floor the result near ``sqrt(eps)``.
    """
    us = np.asarray(us, dtype=complex)
    if us.ndim != 3 or len(us) == 0:
        raise ValueError(f"need a non-empty (n, D, D) stack, got shape {us.shape}")
    if not all(is_unitary(u) for u in us):
        raise ValueError("input is not unitary within tolerance")
    n = len(us)
    dl, dr = part.left_dim, part.right_dim
    r = realign(us, part)  # running targets are compacted to the front
    u1 = np.empty((n, dl, dl), dtype=complex)
    u2 = np.empty((n, dr, dr), dtype=complex)
    for i, m in enumerate(r):
        w, _, vh = np.linalg.svd(m)
        u1[i] = w[:, 0].reshape(dl, dl)
        u2[i] = vh[0].conj().reshape(dr, dr)
    u1, u2 = polar_unitary(u1), polar_unitary(u2)
    overlap = np.abs(
        u1.conj().reshape(n, 1, dl * dl) @ r @ u2.conj().reshape(n, dr * dr, 1)
    ).ravel().tolist()
    history = [[x] for x in overlap]
    # each target's factors, overlap and sweep count when it stopped
    best1, best2, best = np.empty_like(u1), np.empty_like(u2), [0.0] * n
    iterations, converged = [max_iter] * n, [False] * n
    ids = list(range(n))  # target of each running slot
    for sweep in range(1, max_iter + 1):
        k = len(ids)
        rk = r[:k]
        u1 = polar_unitary((rk @ u2.conj().reshape(k, dr * dr, 1)).reshape(k, dl, dl))
        contracted = rk.transpose(0, 2, 1) @ u1.conj().reshape(k, dl * dl, 1)
        u2 = polar_unitary(contracted.reshape(k, dr, dr))
        new = np.abs(u2.conj().reshape(k, 1, dr * dr) @ contracted).ravel().tolist()
        keep = []
        for j, t in enumerate(ids):
            history[t].append(new[j])
            if new[j] - overlap[j] < tol:
                best[t] = max(new[j], overlap[j])
                best1[t], best2[t] = u1[j], u2[j]
                iterations[t], converged[t] = sweep, True
            else:
                keep.append(j)
        overlap = new
        if len(keep) < k:
            for slot, j in enumerate(keep):
                if slot != j:
                    r[slot] = r[j]
            ids, overlap = [ids[j] for j in keep], [new[j] for j in keep]
            u1, u2 = u1[keep], u2[keep]
            if not ids:
                break
    for j, t in enumerate(ids):
        best1[t], best2[t], best[t] = u1[j], u2[j], overlap[j]
    dims = part.dims
    results = []
    for i, u in enumerate(us):
        a, b = best1[i], best2[i]
        prod = embed_operator(a, part.left, dims) @ embed_operator(b, part.right, dims)
        phase = np.trace(prod.conj().T @ u)
        phase = phase / abs(phase) if abs(phase) > 0 else 1.0
        distance = float(np.linalg.norm(u - phase * prod))
        results.append(
            ProductApproximation(
                a, b, best[i], distance, iterations[i], converged[i], history[i]
            )
        )
    return results


@dataclass
class PerturbationRow:
    """Defect and Choi displacement of one perturbed channel."""

    epsilon: float
    defect: float
    choi_distance: float


def perturbation_probe(
    causal: KrausChannel,
    acausal: KrausChannel,
    epsilons,
    part: Bipartition,
    tol: float = DEFAULT_TOL,
) -> list[PerturbationRow]:
    """Walk from a causal channel toward a signalling one and track the defect.

    For each epsilon the probe mixes ``epsilon * acausal + (1-epsilon) *
    causal`` and records the semicausal defect from ``part.left`` to
    ``part.right`` along with the trace-norm displacement of the Choi matrix
    from the causal endpoint.  The causal endpoint's defect must be at most
    ``tol`` and the acausal one's above it.  Both grow exactly linearly in
    epsilon (the defect map and the Choi map are affine in the channel), which
    is the first-order content of signalling arising at every scale under
    generic perturbations.
    """
    eps = [float(e) for e in epsilons]
    if not eps:
        raise ValueError("no epsilon values supplied")
    if any(not 0.0 <= e <= 1.0 for e in eps):
        raise ValueError("epsilon values must lie in [0, 1]")
    base = semicausal_defect(causal, part)
    if base.strength > tol:
        raise ValueError(
            f"'causal' endpoint has defect {base.strength:.3g} > tol in the "
            "tested direction"
        )
    probe = semicausal_defect(acausal, part)
    if probe.strength <= tol:
        raise ValueError("'acausal' endpoint shows no defect in the tested direction")
    j_causal = kraus_to_choi(causal)
    rows = []
    for e in eps:
        mixed = mix(acausal, causal, e)
        defect = semicausal_defect(mixed, part).strength
        dist = trace_norm(kraus_to_choi(mixed) - j_causal)
        rows.append(PerturbationRow(epsilon=e, defect=defect, choi_distance=dist))
    return rows
