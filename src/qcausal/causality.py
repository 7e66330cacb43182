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

from dataclasses import dataclass

import numpy as np

from .channels import KrausChannel, kraus_to_choi, mix
from .tensor import (
    DEFAULT_TOL,
    Bipartition,
    SystemDims,
    all_bipartitions,
    check_density,
    embed_operator,
    hermitian_basis,
    hermitian_vector,
    is_hermitian,
    is_unitary,
    partial_trace,
    polar_unitary,
    realign,
    to_re_im,
    trace_norm,
)


def is_supported_on(op, sites, dims: SystemDims, tol: float = DEFAULT_TOL) -> bool:
    """True if ``op`` equals (operator on sites) (x) identity elsewhere."""
    op = np.asarray(op, dtype=complex)
    sites = tuple(sorted(int(s) for s in sites))
    rest = tuple(s for s in range(dims.nsites) if s not in sites)
    if not rest:
        return True
    d_rest = dims.block_dim(rest)
    reduced = partial_trace(op, dims, rest) / d_rest
    return bool(np.abs(op - embed_operator(reduced, sites, dims)).max() <= tol)


def is_local_channel(
    c: KrausChannel, sites, tol: float = DEFAULT_TOL
) -> bool:
    """True if ``c`` acts as the identity on every operator supported off ``sites``.

    Checked on a Hermitian orthonormal basis of the complement algebra, which
    spans it; for a unital CP map the fixed complement algebra then lies in
    the multiplicative domain, so the check characterizes tensor-factor
    locality, not merely a necessary condition.
    """
    sites = tuple(sorted(int(s) for s in sites))
    rest = tuple(s for s in range(c.dims.nsites) if s not in sites)
    if not rest:
        return True
    d_rest = c.dims.block_dim(rest)
    for b in hermitian_basis(d_rest):
        amb = embed_operator(b, rest, c.dims)
        if np.abs(c.apply(amb) - amb).max() > tol:
            return False
    return True


@dataclass
class SorkinScenario:
    """One complete signalling test: state, preparation, intervention, observable.

    ``partition.left`` is the sender site set M; the preparation must be
    local to it and the observable supported on the receiver sites
    ``partition.right``.  All constraints are validated at construction.
    """

    rho: np.ndarray
    prep: KrausChannel
    intervention: KrausChannel
    observable: np.ndarray
    partition: Bipartition
    tol: float = DEFAULT_TOL

    def __post_init__(self):
        dims = self.partition.dims
        self.rho = check_density(self.rho, self.tol)
        if self.rho.shape != (dims.total, dims.total):
            raise ValueError("state dimension does not match the partition")
        if self.prep.dims != dims or self.intervention.dims != dims:
            raise ValueError("channel dims do not match the partition")
        self.observable = np.asarray(self.observable, dtype=complex)
        if not is_hermitian(self.observable, self.tol):
            raise ValueError("observable is not Hermitian")
        if not is_supported_on(self.observable, self.partition.right, dims, self.tol):
            raise ValueError("observable is not supported on the receiver sites")
        if not is_local_channel(self.prep, self.partition.left, self.tol):
            raise ValueError("preparation is not local to the sender sites")


def sorkin_violation(s: SorkinScenario) -> float:
    """Preparation difference of the scenario; zero means no signalling seen."""
    evolved = s.intervention.apply(s.observable)
    with_prep = np.trace(s.rho @ s.prep.apply(evolved))
    without = np.trace(s.rho @ evolved)
    return float((with_prep - without).real)


@dataclass
class SignallingReport:
    """Strength and witness of signalling across one direction of a bipartition."""

    direction: tuple[tuple[int, ...], tuple[int, ...]]  # (sender, receiver) sites
    strength: float
    witness: np.ndarray  # Hermitian, unit Frobenius norm, on the receiver factor
    tol: float

    def to_json(self) -> dict:
        return {
            "direction": [list(self.direction[0]), list(self.direction[1])],
            "strength": float(self.strength),
            "witness": to_re_im(self.witness),
            "tol": float(self.tol),
        }


def semicausal_defect(
    c: KrausChannel,
    part: Bipartition,
    sender: str = "left",
    tol: float = DEFAULT_TOL,
) -> SignallingReport:
    """How far the channel is from signalling-free in one direction.

    For receiver observables ``O_R`` the map

        O_R  |->  Phi(1 (x) O_R) - 1 (x) tr_S[Phi(1 (x) O_R)] / d_S

    measures the failure of ``Phi(1 (x) O_R)`` to stay inside the receiver
    algebra.  The strength is its largest singular value from Frobenius norm
    to Frobenius norm, computed real-linearly over a Hermitian orthonormal
    receiver basis (legitimate because the map commutes with the adjoint);
    the witness is the maximizing unit-norm Hermitian receiver observable.
    Strength <= tol certifies no signalling sender -> receiver.
    """
    if sender not in ("left", "right"):
        raise ValueError("sender must be 'left' or 'right'")
    if c.dims != part.dims:
        raise ValueError("channel dims do not match the partition")
    p = part if sender == "left" else part.swapped()
    s_sites, r_sites = p.left, p.right
    dims = part.dims
    d_s = dims.block_dim(s_sites)
    basis = hermitian_basis(dims.block_dim(r_sites))
    cols = []
    for b in basis:
        img = c.apply(embed_operator(b, r_sites, dims))
        reduced = partial_trace(img, dims, s_sites) / d_s
        cols.append(hermitian_vector(img - embed_operator(reduced, r_sites, dims)))
    mat = np.array(cols).T  # real, (D*D, d_R*d_R)
    u_, svals, vt = np.linalg.svd(mat)
    strength = float(svals[0]) if svals.size else 0.0
    v = vt[0]
    # fix the overall sign for reproducibility
    lead = v[np.argmax(np.abs(v))]
    if lead < 0:
        v = -v
    witness = np.tensordot(v, basis, axes=1)
    return SignallingReport(
        direction=(s_sites, r_sites), strength=strength, witness=witness, tol=tol
    )


def operator_schmidt_values(u, part: Bipartition) -> np.ndarray:
    """Descending operator Schmidt coefficients of ``u`` across the bipartition.

    These are the singular values of the realignment; their squares sum to
    ``norm(u, 'fro')**2`` (equal to the total dimension when ``u`` is
    unitary), and the second value vanishes exactly for product operators.
    """
    return np.linalg.svd(realign(u, part), compute_uv=False)


def is_causal_unitary(u, dims: SystemDims, tol: float = DEFAULT_TOL) -> bool:
    """True if ``u`` is a tensor product of local unitaries (signals nowhere).

    Checks that the second operator Schmidt value is at most ``tol`` across
    every bipartition of the sites.
    """
    u = np.asarray(u, dtype=complex)
    if not is_unitary(u, max(tol, DEFAULT_TOL)):
        raise ValueError("input is not unitary within tolerance")
    for part in all_bipartitions(dims):
        svals = operator_schmidt_values(u, part)
        if svals.size > 1 and svals[1] > tol:
            return False
    return True


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
    """Alternating maximization of ``|tr((u1 (x) u2)^+ u)|`` over local unitaries.

    Fixing one factor, the optimal other factor is the closest unitary (polar
    part) to a partial contraction of the realignment, so every half step
    increases the overlap; iteration stops when the gain drops below ``tol``.
    The start point is the polar projection of the top operator Schmidt
    component, and ties (e.g. for swap-like unitaries, whose optimum is far
    from unique) are broken deterministically by the numpy SVD.

    The reported distance is the Frobenius distance from ``u`` to the phase
    orbit of ``u1 (x) u2`` (mathematically ``sqrt(2 D - 2 overlap)``).  It is
    evaluated by direct subtraction at the optimal phase rather than through
    that formula, which cancels catastrophically when ``u`` is itself close
    to a product and would floor the result near ``sqrt(eps)``.
    """
    u = np.asarray(u, dtype=complex)
    if not is_unitary(u):
        raise ValueError("input is not unitary within tolerance")
    r = realign(u, part)
    dl, dr = part.left_dim, part.right_dim
    d = part.dims.total
    w, _, vh = np.linalg.svd(r)
    u1 = polar_unitary(w[:, 0].reshape(dl, dl))
    u2 = polar_unitary(vh[0].conj().reshape(dr, dr))

    def half_steps(u1, u2):
        u1 = polar_unitary((r @ u2.conj().reshape(dr * dr)).reshape(dl, dl))
        contracted = r.T @ u1.conj().reshape(dl * dl)
        u2 = polar_unitary(contracted.reshape(dr, dr))
        return u1, u2, float(np.abs(u2.conj().reshape(dr * dr) @ contracted))

    overlap = float(
        np.abs(u1.conj().reshape(dl * dl) @ r @ u2.conj().reshape(dr * dr))
    )
    history = [overlap]
    converged = False
    iterations = 0
    for iterations in range(1, max_iter + 1):
        u1, u2, new_overlap = half_steps(u1, u2)
        history.append(new_overlap)
        if new_overlap - overlap < tol:
            overlap = max(new_overlap, overlap)
            converged = True
            break
        overlap = new_overlap
    dims = part.dims
    prod = embed_operator(u1, part.left, dims) @ embed_operator(u2, part.right, dims)
    phase = np.trace(prod.conj().T @ u)
    phase = phase / abs(phase) if abs(phase) > 0 else 1.0
    distance = float(np.linalg.norm(u - phase * prod))
    return ProductApproximation(
        u1, u2, overlap, distance, iterations, converged, history
    )


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
    sender: str = "left",
    tol: float = DEFAULT_TOL,
) -> list[PerturbationRow]:
    """Walk from a causal channel toward a signalling one and track the defect.

    For each epsilon the probe mixes ``epsilon * acausal + (1-epsilon) *
    causal`` and records the semicausal defect in the tested direction along
    with the trace-norm displacement of the Choi matrix from the causal
    endpoint.  Both grow exactly linearly in epsilon (the defect map and the
    Choi map are affine in the channel), which is the first-order content of
    signalling arising at every scale under generic perturbations.
    """
    eps = [float(e) for e in epsilons]
    if not eps:
        raise ValueError("no epsilon values supplied")
    if any(not 0.0 <= e <= 1.0 for e in eps):
        raise ValueError("epsilon values must lie in [0, 1]")
    base = semicausal_defect(causal, part, sender=sender, tol=tol)
    if base.strength > tol:
        raise ValueError(
            f"'causal' endpoint has defect {base.strength:.3g} > tol in the "
            "tested direction"
        )
    probe = semicausal_defect(acausal, part, sender=sender, tol=tol)
    if probe.strength <= tol:
        raise ValueError("'acausal' endpoint shows no defect in the tested direction")
    j_causal = kraus_to_choi(causal).entries
    rows = []
    for e in eps:
        mixed = mix(acausal, causal, e)
        defect = semicausal_defect(mixed, part, sender=sender, tol=tol).strength
        dist = trace_norm(kraus_to_choi(mixed).entries - j_causal)
        rows.append(PerturbationRow(epsilon=e, defect=defect, choi_distance=dist))
    return rows
