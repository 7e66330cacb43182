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

from .channels import KrausChannel, mix
from .tensor import (
    DEFAULT_TOL,
    Bipartition,
    SystemDims,
    _check_sites,
    _check_square,
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
)


def _off_block(x, d_rest: int) -> np.ndarray:
    """Subtract ``1 (x) tr_rest(op) / d_rest`` from each op of a contiguous
    ``(..., D, D)`` stack whose legs are in (rest, sites) order, in place, and
    return it: the part off the algebra on the sites, zero exactly on it."""
    if not x.flags.c_contiguous:  # else the reshape below would copy
        raise ValueError("the stack must be C-contiguous")
    *lead, d, _ = x.shape
    d_sites = d // d_rest
    blocks = x.reshape(*lead, d_rest, d_sites, d_rest, d_sites)
    diagonal = np.einsum("...iaib->...iab", blocks)  # a writable view
    diagonal -= diagonal.sum(-3, keepdims=True) / d_rest
    return x


def _in_order(ops: np.ndarray, order, dims: SystemDims) -> np.ndarray:
    """Each op of a ``(..., D, D)`` stack with its row and column legs in site
    ``order``; a view of ``ops`` where the reshape allows one."""
    lead = ops.shape[:-2]
    k, n = len(lead), dims.nsites
    legs = [k + s for s in order]
    shaped = ops.reshape(*lead, *dims.dims * 2)
    return shaped.transpose(*range(k), *legs, *(n + leg for leg in legs)).reshape(ops.shape)


def _rest_first(ops: np.ndarray, sites, dims: SystemDims):
    """A C-contiguous copy of a ``(..., D, D)`` stack with each op's legs in
    (rest, sites) order, for :func:`_off_block`, and the dimension of the rest."""
    _check_square(ops, dims)
    sites = sorted(_check_sites(sites, dims))
    rest = [s for s in range(dims.nsites) if s not in sites]
    x = _in_order(ops, rest + sites, dims)
    if np.may_share_memory(x, ops):  # the ascending order gives a view
        x = x.copy()
    return x, dims.block_dim(rest)


def is_supported_on(op, sites, dims: SystemDims) -> bool:
    """True if ``op``, or every op of a ``(..., D, D)`` stack, equals (operator
    on sites) (x) identity elsewhere within ``DEFAULT_TOL``; an empty stack is."""
    off = _off_block(*_rest_first(np.asarray(op, dtype=complex), sites, dims))
    return bool(np.abs(off).max(initial=0.0) <= DEFAULT_TOL)


def is_local_channel(c: KrausChannel, sites) -> bool:
    """True if ``c`` acts as the identity on every operator supported off ``sites``.

    Tests ``max |sum_i off(K_i)^+ off(K_i)| <= DEFAULT_TOL``, ``off`` being
    the part off the algebra on ``sites``.  If ``c`` fixes every ``B`` off
    ``sites`` it fixes ``B^+ B``, so ``sum_i [B, K_i]^+ [B, K_i] = 0``
    (multiplicative domain, Choi 1974): every ``K_i`` lies in the algebra on
    ``sites``; the converse is plain.  The Gram sum is the same for every
    Kraus family of ``c`` and, like ``c(B) - B``, linear in a mixing weight.
    A stack of channels is local when every member is; an empty stack is.
    """
    gram = gram_sum(_off_block(*_rest_first(c.kraus, sites, c.dims)))
    return bool(np.abs(gram).max(initial=0.0) <= DEFAULT_TOL)


def _direction_runs(partition) -> list:
    """``(part, index)`` for each run of equal directions of a scenario's
    ``partition``: the whole scenario (``...``) for one :class:`Bipartition`,
    a slice of the member axis for each run of a sequence, which must be
    non-empty and of one system."""
    if isinstance(partition, Bipartition):
        return [(partition, ...)]
    if not partition:
        raise ValueError("need at least one scenario: one partition per member, got none")
    runs, start = [], 0
    for part, members in groupby(partition):
        n = len(list(members))
        runs.append((part, slice(start, start + n)))
        start += n
    if any(part.dims != runs[0][0].dims for part, _ in runs):
        raise ValueError("the members' partitions have different dims")
    return runs


def _by_shape(parts) -> list[list[int]]:
    """Indices of ``parts`` grouped by ``(d_S, d_R)``, in order of first
    appearance."""
    shapes = {}
    for i, p in enumerate(parts):
        shapes.setdefault((p.left_dim, p.right_dim), []).append(i)
    return list(shapes.values())


@dataclass
class SorkinScenario:
    """One complete signalling test, or a stack of them, against one intervention.

    ``partition.left`` is the sender site set M and ``partition.right`` the
    receiver sites.  The preparation is held as a channel on the sender
    sites alone, Kraus family ``(k, d_S, d_S)``, and the observable as a
    ``(d_R, d_R)`` operator on the receiver sites alone, so both are local by
    type; each block's sites are in ascending order.  The state must be a
    density matrix, the observable Hermitian and the preparation unital
    (checked by :class:`KrausChannel` at d_S), all within ``DEFAULT_TOL``.
    Two forms are accepted, checked by one loop over runs of equal directions
    with the same refusals; any other raises ``ValueError``:

    * One scenario: a :class:`Bipartition`, a ``(D, D)`` state, and the
      preparation and observable each as its factor or on the whole system
      (a channel with the partition's dims, a ``(D, D)`` operator), which is
      checked for locality and support and reduced to its factor.
    * A stack of ``n``, as :func:`random_sorkin_scenario` draws it: a
      sequence of ``n`` bipartitions, one per member (stored as a tuple), an
      ``(n, D, D)`` state, and ``prep`` and ``observable`` as tuples of one
      factor stack per run of equal directions, in member order (``(m, k,
      d_S, d_S)`` Kraus and ``(m, d_R, d_R)`` for a run of ``m``).
    """

    rho: np.ndarray
    prep: KrausChannel | tuple[KrausChannel, ...]
    intervention: KrausChannel
    observable: np.ndarray | tuple[np.ndarray, ...]
    partition: Bipartition | tuple[Bipartition, ...]

    def __post_init__(self):
        one = isinstance(self.partition, Bipartition)
        if not one:
            self.partition = tuple(self.partition)
        runs = _direction_runs(self.partition)
        dims = runs[0][0].dims
        self.rho = np.asarray(self.rho, dtype=complex)
        if 0 in self.rho.shape[:-2]:
            raise ValueError("need at least one scenario")
        self.rho = check_density(self.rho)
        if self.rho.shape[-2:] != (dims.total, dims.total):
            raise ValueError("state dimension does not match the partition")
        if self.intervention.dims != dims:
            raise ValueError("channel dims do not match the partition")
        self.intervention.single()  # one channel, shared by every member
        lead = self.rho.shape[:-2]
        if lead != (() if one else (len(self.partition),)):
            got = "one Bipartition" if one else f"{len(self.partition)} partitions"
            raise ValueError(
                f"need one partition per member: {got} for a stack of shape {lead}"
            )
        prep, obs = self.prep, self.observable
        if one:
            prep, obs = [prep], [obs]
        elif not all(isinstance(v, tuple) and len(v) == len(runs) for v in (prep, obs)):
            raise ValueError(f"need one factor per run of equal directions: {len(runs)} runs")
        factors = []
        for (part, members), c, o in zip(runs, prep, obs):
            # one scenario's whole-system input is reduced to its factor
            if one and isinstance(c, KrausChannel) and c.dims == dims:
                if not is_local_channel(c, part.left):
                    raise ValueError("preparation is not local to the sender sites")
                ks = partial_trace(c.kraus, dims, part.right) / part.right_dim
                c = KrausChannel(ks, dims.sub(part.left))
            elif not isinstance(c, KrausChannel) or c.dims != dims.sub(part.left):
                raise ValueError("channel dims do not match the partition")
            o = np.asarray(o, dtype=complex)
            if one and o.shape[-2:] == self.rho.shape:
                if not is_supported_on(o, part.right, dims):
                    raise ValueError("observable is not supported on the receiver sites")
                o = partial_trace(o, dims, part.left) / part.left_dim
            elif o.shape[-2:] != (part.right_dim, part.right_dim):
                raise ValueError("observable dimension does not match the partition")
            n = self.rho[members].shape[:-2]
            _same_stack("preparation", n, c.kraus.shape[:-3])
            _same_stack("observable", n, o.shape[:-2])
            if not is_hermitian(o):
                raise ValueError("observable is not Hermitian")
            factors.append((c, o))
        preps, observables = zip(*factors)
        self.prep = preps[0] if one else preps
        self.observable = observables[0] if one else observables


def _same_stack(name: str, lead, got):
    if got != lead:
        raise ValueError(f"state and {name} stacks differ: {lead}, {got}")


#: Entries per member of the products that apply a block of the
#: intervention's Kraus operators at once in :func:`sorkin_violation`: a
#: block holds ``max(1, _KRAUS_ENTRIES // D**2)`` operators, so a member's
#: products take about 64 KiB at any Kraus count.
_KRAUS_ENTRIES = 4096


def sorkin_violation(s: SorkinScenario):
    """Preparation difference of the scenario; zero means no signalling seen.

    ``tr(rho Phi_prep(E)) - tr(rho E)`` with ``E = Phi_int(1 (x) O_R)``.  The
    intervention's rows are put in (receiver, sender) order, so that ``O_R``
    acts by one matmul, and its columns in (sender, receiver) order, so that
    ``E`` has its sender legs first; the preparation's factors ``P_j`` then
    act on the sender legs of ``rho`` and ``E`` alone, as ``sum_j tr((P_j (x)
    1) rho (P_j^+ (x) 1) E)``.  Each member is computed by its own BLAS calls,
    so a stack gives its members' single results bit for bit.

    A float for one scenario, an array of one difference per member for a
    stack.
    """
    lead = s.rho.shape[:-2]
    dims = s.intervention.dims
    d = dims.total
    rho = s.rho.reshape(-1, d, d)
    ks = s.intervention.kraus
    step = max(1, _KRAUS_ENTRIES // d**2)
    out = np.empty(len(rho))
    one = isinstance(s.partition, Bipartition)
    preps, observables = ([s.prep], [s.observable]) if one else (s.prep, s.observable)
    for (part, members), prep, obs in zip(_direction_runs(s.partition), preps, observables):
        d_s, d_r = part.left_dim, part.right_dim
        legs = part.left + part.right
        # rows (receiver, Kraus index, sender), columns (sender, receiver)
        kraus = _in_order(ks, legs, dims).reshape(-1, d_s, d_r, d).transpose(2, 0, 1, 3)
        r = rho[members]
        m = len(r)
        o = obs.reshape(m, d_r, d_r)
        # sum_i K_i^+ (1 (x) O_R) K_i, a block of Kraus operators at a time
        evolved = 0
        for i in range(0, len(ks), step):
            b = kraus[:, i : i + step].reshape(d_r, -1)
            ob = (o @ b).reshape(m, -1, d)
            evolved = evolved + b.reshape(-1, d).conj().T @ ob
        # the state with its legs in (sender, receiver) order, as evolved
        r = _in_order(r, legs, dims).reshape(m, d_s, d_r * d)
        p = prep.kraus.reshape(m, -1, d_s, d_s)
        prepared = (p.reshape(m, -1, d_s) @ r).reshape(m, -1, d, d)
        p_dag = p.conj().swapaxes(-1, -2).reshape(m, -1, d_s)
        kicked = (p_dag @ evolved.reshape(m, d_s, d_r * d)).reshape(m, -1, d, d)
        with_prep = (prepared * kicked.swapaxes(-1, -2)).reshape(m, -1).sum(-1)
        without = (r.reshape(m, d, d) * evolved.swapaxes(-1, -2)).reshape(m, -1).sum(-1)
        out[members] = (with_prep - without).real
    diff = out.reshape(lead)
    return float(diff) if diff.ndim == 0 else diff


@dataclass
class SignallingReport:
    """Strength and witness of signalling across one direction of a bipartition.

    The Gram of the defect map, from which :func:`semicausal_defects` reads
    the strength, and the witness are computed from ``channel`` when first
    read, so a list of reports holds no Gram (at D = 64 one takes up to
    16 MiB).
    """

    direction: tuple[tuple[int, ...], tuple[int, ...]]  # (sender, receiver) sites
    strength: float
    channel: KrausChannel = field(repr=False, compare=False)

    @cached_property
    def gram(self) -> np.ndarray:
        """The ``(d_R^2, d_R^2)`` Gram of the defect map over the receiver
        matrix units: the bits the strength was read from, by a pass of this
        direction alone."""
        part = Bipartition(self.channel.dims, *self.direction)
        return _defect_grams(self.channel, [part])[0]

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
    """The defect in one direction; see :func:`semicausal_defects`."""
    return semicausal_defects(c, [part])[0]


#: Entries held at once by :func:`semicausal_defects`: a stacked pass takes
#: ``max(1, _DEFECT_ENTRIES // max((d_R D)**2, k D**2))`` directions of one
#: shape, so its images and its ``k``-Kraus families each take 16 MiB, or one
#: direction's where that is more.
_DEFECT_ENTRIES = 2**20


def semicausal_defects(c: KrausChannel, parts) -> list[SignallingReport]:
    """How far the channel is from signalling-free in each direction of ``parts``.

    The sender of each direction is ``part.left``; pass ``part.swapped()``
    for the reverse direction.  For receiver observables ``O_R`` the map

        O_R  |->  Phi(1 (x) O_R) - 1 (x) tr_S[Phi(1 (x) O_R)] / d_S

    measures the failure of ``Phi(1 (x) O_R)`` to stay inside the receiver
    algebra.  The strength is its largest singular value from Frobenius norm
    to Frobenius norm over the receiver matrix units ``E_rr'``: with each
    Kraus operator's legs in (sender, receiver) order the family is a
    ``(k d_S, d_R D)`` matrix ``A``, and ``Phi(1 (x) E_rr')`` is the slice
    ``[r, :, r', :]`` of ``A^+ A``, with its legs in (sender, receiver) order
    too.  The strength is the square root of the top eigenvalue of the map's
    ``(d_R^2, d_R^2)`` Gram, from ``np.linalg.eigvalsh``; no eigenvector is
    computed here.  The map commutes with the adjoint, so the gains of the
    Hermitian parts of ``X = H1 + i H2`` add, and the larger part of a top
    eigenvector is the witness: a maximizing unit-norm Hermitian receiver
    observable, computed with ``np.linalg.eigh`` of the Gram only when
    :attr:`SignallingReport.witness` is read.  A strength within a caller's
    tolerance of zero certifies no signalling sender -> receiver.

    Directions of equal ``(d_S, d_R)`` share stacked passes of at most
    :data:`_DEFECT_ENTRIES` image entries and as many Kraus family entries.
    The off-block part is taken in place, on the image legs in (sender,
    receiver) order.  A pass runs the same BLAS and LAPACK calls per
    direction as a pass of one, so every report equals that of its direction
    alone.  The reports are in the order of ``parts``.
    """
    parts = list(parts)
    if any(p.dims != c.dims for p in parts):
        raise ValueError("channel dims do not match the partition")
    c.single()  # one channel
    d, strengths = c.dims.total, [0.0] * len(parts)
    for members in _by_shape(parts):
        d_r = parts[members[0]].right_dim
        step = max(1, _DEFECT_ENTRIES // max((d_r * d) ** 2, c.nkraus * d * d))
        for start in range(0, len(members), step):
            chunk = members[start : start + step]
            grams = _defect_grams(c, [parts[i] for i in chunk])
            for i, top in zip(chunk, np.linalg.eigvalsh(grams)[:, -1]):
                strengths[i] = float(np.sqrt(abs(top)))  # a zero Gram may give -0.0
            del grams  # before the next pass: up to 16 MiB a direction at D = 64
    return [SignallingReport((p.left, p.right), s, c) for p, s in zip(parts, strengths)]


def _defect_grams(c: KrausChannel, parts) -> np.ndarray:
    """The ``(m, d_R^2, d_R^2)`` Grams of the defect maps of ``m`` directions
    of one ``(d_S, d_R)`` shape, from one stacked pass; see
    :func:`semicausal_defects`."""
    d = c.dims.total
    m, d_s, d_r = len(parts), parts[0].left_dim, parts[0].right_dim
    # each family with rows (Kraus, sender, receiver) and columns (sender,
    # receiver)
    a = np.empty((m, c.nkraus, d, d), dtype=complex)
    for j, p in enumerate(parts):
        a[j] = _in_order(c.kraus, p.left + p.right, c.dims)
    a = a.reshape(m, -1, d_r * d)
    images = (a.conj().swapaxes(-1, -2) @ a).reshape(m, d_r, d, d_r, d)
    # Phi(1 (x) E_rr') at [:, r, r'], then its off-block part
    x = _off_block(images.swapaxes(2, 3).copy(), d_s)
    del images  # at D = 64 each of the two takes up to 64 MiB a direction
    x = x.reshape(m, d_r * d_r, d * d)
    return x.conj() @ x.swapaxes(-1, -2)


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

    For each epsilon the probe records the semicausal defect from
    ``part.left`` to ``part.right`` of the mixed channel ``epsilon * acausal +
    (1-epsilon) * causal``, which grows linearly in epsilon: signalling arises
    at every scale under generic perturbations.  The causal endpoint's defect
    must be at most ``tol`` and the acausal one's above it.  The Choi map is
    affine in the channel, so each row's Choi distance is ``epsilon *
    ||J_a - J_c||_1``, computed once; its ratio spread measures only rounding,
    and the tests check the column against ``kraus_to_choi`` and ``trace_norm``.
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
    # J_a - J_c = V S V^+, V holding vec(conj K) of both families as columns
    # and S = +1 on a's, -1 on c's; with V = QR its nonzero eigenvalues are
    # those of the small Hermitian R S R^+.
    vecs = np.concatenate([acausal.single(), causal.single()]).conj()
    r = np.linalg.qr(vecs.reshape(len(vecs), -1).T, mode="r")
    signs = np.repeat([1.0, -1.0], [acausal.nkraus, causal.nkraus])
    norm = float(np.abs(np.linalg.eigvalsh((r * signs) @ r.conj().T)).sum())
    rows = []
    for e in eps:
        defect = semicausal_defect(mix(acausal, causal, e), part).strength
        rows.append(PerturbationRow(epsilon=e, defect=defect, choi_distance=e * norm))
    return rows
