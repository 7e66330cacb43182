import inspect
import json
import tracemalloc
from dataclasses import replace
from itertools import combinations, groupby, permutations

import numpy as np
import pytest

from qcausal import causality, channels, cli, sampling, tensor
from qcausal.causality import (
    DefectPasses,
    PerturbationRow,
    ProductApproximation,
    SorkinScenario,
    is_causal_unitary,
    is_local_channel,
    is_supported_on,
    nearest_product_unitaries,
    nearest_product_unitary,
    operator_schmidt_values,
    perturbation_probe,
    semicausal_defect,
    semicausal_defects,
    sorkin_violation,
)
from qcausal.channels import (
    KrausChannel,
    cnot_channel,
    classical_one_way_channel,
    depolarizing_channel,
    embed_local,
    from_unitary,
    identity_channel,
    mix,
    swap_channel,
    zoo,
)
from qcausal.sampling import (
    RngStream,
    haar_local_unitary,
    haar_unitary,
    random_kraus_channel,
    random_sorkin_scenario,
)
from qcausal.tensor import (
    DEFAULT_TOL,
    Bipartition,
    SystemDims,
    all_bipartitions,
    check_density,
    embed_operator,
    hermitian_basis,
    is_hermitian,
    is_unitary,
    partial_trace,
    polar_unitary,
    realign,
    tensor_product,
)

from conftest import _REFERENCE_DIMS, I2, X, Y, Z

QUBIT_PAIR = Bipartition.split(SystemDims((2, 2)), (0,))


def _ket(*bits):
    v = np.array([1.0])
    for b in bits:
        e = np.zeros(2)
        e[b] = 1.0
        v = np.kron(v, e)
    return v


def _apply_loop(c, op):
    """sum_i K_i^+ op K_i, one Kraus operator at a time."""
    return sum(k.conj().T @ op @ k for k in c.kraus)


def _local_deviation_loop(c, sites):
    """The former ``is_local_channel`` measure, one apply per basis element of
    the complement: max |c(1 (x) b) - 1 (x) b|; local means <= tol."""
    rest = tuple(s for s in range(c.dims.nsites) if s not in sites)
    if not rest:
        return 0.0
    dev = 0.0
    for b in hermitian_basis(c.dims.block_dim(rest)):
        amb = embed_operator(b, rest, c.dims)
        dev = max(dev, np.abs(_apply_loop(c, amb) - amb).max())
    return dev


def _off_gram(c, sites):
    """max |sum_i off(K_i)^+ off(K_i)|, built one Kraus operator at a time."""
    rest = tuple(s for s in range(c.dims.nsites) if s not in sites)
    d_rest = c.dims.block_dim(rest)
    total = 0
    for k in c.kraus:
        off = k - embed_operator(partial_trace(k, c.dims, rest) / d_rest, sites, c.dims)
        total = total + off.conj().T @ off
    return np.abs(total).max()


def _defect_loop(c, p):
    """The former ``semicausal_defect`` from ``p.left`` to ``p.right``: one
    apply per receiver basis element, full SVD.  Returns (strength, witness)."""
    dims = p.dims
    basis = hermitian_basis(dims.block_dim(p.right))
    cols = []
    for b in basis:
        img = _apply_loop(c, embed_operator(b, p.right, dims))
        reduced = partial_trace(img, dims, p.left) / dims.block_dim(p.left)
        leak = img - embed_operator(reduced, p.right, dims)
        cols.append(np.concatenate([leak.real.ravel(), leak.imag.ravel()]))
    _, svals, vt = np.linalg.svd(np.array(cols).T)
    v = vt[0] if vt[0][np.argmax(np.abs(vt[0]))] >= 0 else -vt[0]
    return svals[0], np.tensordot(v, basis, axes=1)


def _dims_id(dims):
    return "x".join(map(str, dims))


#: Mixing weights of the locality grid: the unmixed channel, then 1e-3 .. 1e-13.
_LOCALITY_EPSILONS = [1.0] + [10.0**-k for k in range(3, 14)]


class TestSupportAndLocality:
    def test_embedded_operator_is_supported(self, rng):
        dims = SystemDims((2, 3))
        b = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        assert is_supported_on(embed_operator(b, (1,), dims), (1,), dims)

    def test_entangling_operator_is_not(self):
        dims = SystemDims((2, 2))
        cnot = cnot_channel().kraus[0]
        assert not is_supported_on(cnot, (0,), dims)
        assert not is_supported_on(cnot, (1,), dims)
        assert is_supported_on(cnot, (0, 1), dims)

    def test_local_channel_detection(self):
        dims = SystemDims((2, 2))
        inner = random_kraus_channel(SystemDims((2,)), 3, RngStream(21))
        assert is_local_channel(embed_local(inner, (0,), dims), (0,))
        assert not is_local_channel(cnot_channel(), (0,))
        assert not is_local_channel(cnot_channel(), (1,))
        # a product of unitaries on both sites acts on site 1 too
        assert not is_local_channel(from_unitary(tensor_product(X, Z), dims), (0,))
        assert is_local_channel(from_unitary(tensor_product(X, I2), dims), (0,))
        # mixtures on either side of DEFAULT_TOL: the Gram sum is linear in
        # the weight
        local = embed_local(inner, (0,), dims)
        gram = _off_gram(cnot_channel(), (0,))
        for factor, expected in [(0.5, True), (2.0, False)]:
            c = mix(cnot_channel(), local, factor * DEFAULT_TOL / gram)
            assert is_local_channel(c, (0,)) is expected

    @pytest.mark.parametrize(
        "dims", [(2, 2), (2, 3), (3, 2), (2, 2, 2), (2, 3, 2), (3, 3), (4, 4)], ids=_dims_id
    )
    def test_local_channel_matches_basis_loop(self, dims):
        # Every site block; a local channel mixed with a local, a global and a
        # Haar-unitary channel.  The Kraus criterion and the former basis loop
        # measure the same first-order defect in two ways that stay within a
        # factor 2 of each other, so the verdicts agree unless the deviation
        # lies within that factor of DEFAULT_TOL (at eps == tol they may
        # differ).
        dims = SystemDims(dims)
        g = RngStream(33).generator()

        def local_channel(sites, nkraus):
            if not sites:
                return identity_channel(dims)
            inner = SystemDims(tuple(dims.dims[s] for s in sites))
            return embed_local(random_kraus_channel(inner, nkraus, g), sites, dims)

        n = dims.nsites
        for sites in [b for r in range(n + 1) for b in combinations(range(n), r)]:
            base = local_channel(sites, 3)
            perturbations = [
                local_channel(sites, 2),
                random_kraus_channel(dims, 3, g),
                from_unitary(haar_unitary(dims.total, g), dims),
            ]
            for perturbation in perturbations:
                for eps in _LOCALITY_EPSILONS:
                    c = mix(perturbation, base, eps)
                    dev, gram = _local_deviation_loop(c, sites), _off_gram(c, sites)
                    if dev > 1e-13:
                        assert 0.5 * dev <= gram <= 2.0 * dev
                    if not 0.5 * DEFAULT_TOL <= dev <= 2.0 * DEFAULT_TOL:
                        assert is_local_channel(c, sites) == (dev <= DEFAULT_TOL)


_EMPTY_STACKS = {
    "is_unitary": lambda: is_unitary(np.zeros((0, 0))),
    "is_hermitian": lambda: is_hermitian(np.zeros((0, 2, 2))),
    "check_density": lambda: check_density(np.zeros((0, 2, 2))).shape == (0, 2, 2),
    "is_supported_on": lambda: is_supported_on(
        np.zeros((0, 4, 4)), (0,), SystemDims((2, 2))
    ),
    "is_local_channel": lambda: is_local_channel(
        KrausChannel(np.zeros((0, 1, 4, 4)), SystemDims((2, 2))), (0,)
    ),
}


@pytest.mark.parametrize("name", list(_EMPTY_STACKS))
def test_empty_stack_passes_vacuously(name):
    assert _EMPTY_STACKS[name]() is True


_TWO_QUBITS = SystemDims((2, 2))

_FLOAT_SITES = {
    "Bipartition.split": lambda: Bipartition.split(_TWO_QUBITS, [0.9]),
    "Bipartition": lambda: Bipartition(_TWO_QUBITS, (1.5,), (0,)),
    "embed_operator": lambda: embed_operator(np.eye(2), [1.7], _TWO_QUBITS),
    "partial_trace": lambda: partial_trace(np.eye(4), _TWO_QUBITS, [0.2]),
    "is_supported_on": lambda: is_supported_on(np.eye(4), [0.0], _TWO_QUBITS),
    "is_local_channel": lambda: is_local_channel(identity_channel(_TWO_QUBITS), [1.0]),
    "embed_local": lambda: embed_local(
        identity_channel(SystemDims((2,))), [1.0], _TWO_QUBITS
    ),
}


@pytest.mark.parametrize("name", list(_FLOAT_SITES))
def test_float_site_indices_are_refused(name):
    with pytest.raises(ValueError, match="site indices must be integers"):
        _FLOAT_SITES[name]()


def test_integer_like_site_indices_are_kept():
    part = Bipartition.split(_TWO_QUBITS, np.array([1]))
    assert part.left == (1,) and type(part.left[0]) is int
    assert is_supported_on(np.kron(I2, Z), [np.int64(1)], _TWO_QUBITS)


class TestScenarioValidation:
    def _parts(self):
        rho = np.outer(_ket(0, 0), _ket(0, 0))
        prep = embed_local(
            from_unitary(X, SystemDims((2,))), (0,), SystemDims((2, 2))
        )
        return rho, prep

    def test_rejects_nonlocal_prep(self):
        rho, _ = self._parts()
        with pytest.raises(ValueError, match="local"):
            SorkinScenario(rho, cnot_channel(), cnot_channel(), np.kron(I2, Z), QUBIT_PAIR)

    def test_rejects_observable_on_sender(self):
        rho, prep = self._parts()
        with pytest.raises(ValueError, match="receiver"):
            SorkinScenario(rho, prep, cnot_channel(), np.kron(Z, I2), QUBIT_PAIR)

    def test_rejects_non_hermitian_observable(self):
        rho, prep = self._parts()
        bad = np.kron(I2, np.array([[0.0, 1.0], [0.0, 0.0]]))
        with pytest.raises(ValueError, match="Hermitian"):
            SorkinScenario(rho, prep, cnot_channel(), bad, QUBIT_PAIR)

    def test_rejects_bad_state(self):
        _, prep = self._parts()
        with pytest.raises(ValueError):
            SorkinScenario(np.eye(4), prep, cnot_channel(), np.kron(I2, Z), QUBIT_PAIR)

    def test_rejects_dims_mismatch(self):
        rho, prep = self._parts()
        obs = np.kron(I2, Z)
        with pytest.raises(ValueError, match="state dimension does not match"):
            SorkinScenario(np.eye(2) / 2, prep, cnot_channel(), obs, QUBIT_PAIR)
        on_one_site = KrausChannel(cnot_channel().kraus, SystemDims((4,)))
        with pytest.raises(ValueError, match="channel dims do not match"):
            SorkinScenario(rho, on_one_site, cnot_channel(), obs, QUBIT_PAIR)
        with pytest.raises(ValueError, match="channel dims do not match"):
            SorkinScenario(rho, prep, on_one_site, obs, QUBIT_PAIR)

    @pytest.mark.parametrize(
        "part",
        [
            Bipartition.split(SystemDims((2, 3)), (0,)),
            Bipartition.split(SystemDims((2, 2, 2)), (0, 2)),
            Bipartition.split(SystemDims((2, 2, 2)), (0, 2)).swapped(),
        ],
        ids=["2x3", "2x2x2-outer", "2x2x2-middle"],
    )
    def test_each_input_as_factor_or_on_the_whole_system(self, part):
        g = RngStream(28).generator()
        s = random_sorkin_scenario(part, random_kraus_channel(part.dims, 2, g), g)
        preps = (s.prep, embed_local(s.prep, part.left, part.dims))
        observables = (s.observable, embed_operator(s.observable, part.right, part.dims))
        want = sorkin_violation(s)
        for prep in preps:
            for obs in observables:
                got = SorkinScenario(s.rho, prep, s.intervention, obs, part)
                assert got.prep.dims == s.prep.dims
                np.testing.assert_allclose(got.prep.kraus, s.prep.kraus, rtol=0, atol=1e-15)
                np.testing.assert_allclose(got.observable, s.observable, rtol=0, atol=1e-15)
                assert abs(sorkin_violation(got) - want) <= 1e-15

    def test_rejects_a_stacked_whole_system_input(self):
        rho, prep = self._parts()
        obs = np.kron(I2, Z)
        c = cnot_channel()
        stacked_prep = KrausChannel([prep.kraus] * 2, QUBIT_PAIR.dims)
        with pytest.raises(ValueError, match="state and preparation stacks differ"):
            SorkinScenario(rho, stacked_prep, c, obs, QUBIT_PAIR)
        with pytest.raises(ValueError, match="state and observable stacks differ"):
            SorkinScenario(rho, prep, c, np.array([obs] * 2), QUBIT_PAIR)


def _factor_stack(parts, kraus, obs):
    """A stack over ``parts`` with member ``j``'s sender Kraus family
    ``kraus[j]`` and receiver observable ``obs[j]``, grouped into one factor
    stack per run of equal directions: (prep, observable) tuples."""
    preps, observables, start = [], [], 0
    for part, members in groupby(parts):
        stop = start + len(list(members))
        preps.append(KrausChannel(kraus[start:stop], part.dims.sub(part.left)))
        observables.append(obs[start:stop])
        start = stop
    return tuple(preps), tuple(observables)


def _four_scenarios():
    """(states, sender Kraus families, receiver observables) of four copies of
    the CNOT scenario: |00>, a flip on the sender, Z on the receiver."""
    rho = np.outer(_ket(0, 0), _ket(0, 0))
    return np.array([rho] * 4), np.array([[X]] * 4), np.array([Z] * 4)


class TestStackedScenarioValidation:
    """Stacks of four scenarios in one direction in which only member 2 is bad."""

    PARTS = [QUBIT_PAIR] * 4

    _stacks = staticmethod(_four_scenarios)

    def _scenario(self, rho, kraus, obs):
        prep = KrausChannel(kraus, SystemDims((2,)))
        return SorkinScenario(rho, (prep,), cnot_channel(), (obs,), self.PARTS)

    def test_good_stack_gives_each_violation(self):
        got = sorkin_violation(self._scenario(*self._stacks()))
        assert got.shape == (4,)
        np.testing.assert_allclose(got, -2.0, atol=1e-14)

    def test_rejects_non_hermitian_observable(self):
        rho, kraus, obs = self._stacks()
        obs[2] = np.array([[0.0, 1.0], [0.0, 0.0]])
        with pytest.raises(ValueError, match="observable is not Hermitian"):
            self._scenario(rho, kraus, obs)

    def test_rejects_state_with_wrong_trace(self):
        rho, kraus, obs = self._stacks()
        rho[2] = 2 * rho[2]
        with pytest.raises(ValueError, match="density matrix has trace 2\\+0j, not 1"):
            self._scenario(rho, kraus, obs)

    def test_rejects_stacks_of_different_lengths(self):
        rho, kraus, obs = self._stacks()
        with pytest.raises(ValueError, match="stacks differ"):
            self._scenario(rho, kraus, obs[:3])
        with pytest.raises(ValueError, match="stacks differ"):
            self._scenario(rho, kraus[:3], obs)

    def test_rejects_a_stacked_intervention(self):
        rho, kraus, obs = self._stacks()
        prep = KrausChannel(kraus, SystemDims((2,)))
        stacked = KrausChannel([cnot_channel().kraus] * 4, QUBIT_PAIR.dims)
        with pytest.raises(ValueError, match="single channel"):
            SorkinScenario(rho, (prep,), stacked, (obs,), self.PARTS)

    def test_rejects_a_shared_bipartition_over_a_stack(self):
        rho, kraus, obs = self._stacks()
        prep = KrausChannel(kraus, SystemDims((2,)))
        with pytest.raises(ValueError, match="one partition per member: one Bipartition"):
            SorkinScenario(rho, prep, cnot_channel(), obs, QUBIT_PAIR)

    def test_rejects_whole_system_factors_in_a_stack(self):
        rho, kraus, obs = self._stacks()
        prep = KrausChannel(kraus, SystemDims((2,)))
        whole_prep = embed_local(prep, QUBIT_PAIR.left, QUBIT_PAIR.dims)
        whole_obs = embed_operator(obs, QUBIT_PAIR.right, QUBIT_PAIR.dims)
        c = cnot_channel()
        with pytest.raises(ValueError, match="one factor per run"):
            SorkinScenario(rho, whole_prep, c, (obs,), self.PARTS)
        with pytest.raises(ValueError, match="one factor per run"):
            SorkinScenario(rho, (prep,), c, whole_obs, self.PARTS)
        with pytest.raises(ValueError, match="channel dims do not match"):
            SorkinScenario(rho, (whole_prep,), c, (obs,), self.PARTS)
        with pytest.raises(ValueError, match="observable dimension does not match"):
            SorkinScenario(rho, (prep,), c, (whole_obs,), self.PARTS)


class TestMixedDirectionStacks:
    """Stacks of four scenarios: members 0 and 1 send from site 0, members 2
    and 3 from site 1, each checked against its own direction."""

    PARTS = [QUBIT_PAIR] * 2 + [QUBIT_PAIR.swapped()] * 2

    _stacks = staticmethod(_four_scenarios)

    def _scenario(self, rho, kraus, obs, parts=PARTS):
        prep, observable = _factor_stack(self.PARTS, kraus, obs)
        return SorkinScenario(rho, prep, cnot_channel(), observable, parts)

    def test_good_stack_gives_each_violation(self):
        rho, kraus, obs = self._stacks()
        s = self._scenario(rho, kraus, obs)
        assert s.partition == tuple(self.PARTS)
        got = sorkin_violation(s)
        want = [
            sorkin_violation(
                SorkinScenario(
                    rho[j], KrausChannel(kraus[j], SystemDims((2,))), cnot_channel(),
                    obs[j], self.PARTS[j],
                )
            )
            for j in range(4)
        ]
        assert np.array_equal(got, want)
        np.testing.assert_allclose(got, [-2.0, -2.0, 0.0, 0.0], atol=1e-14)

    def test_rejects_factors_of_the_other_block(self):
        # on (2, 3) the blocks differ in dimension, so each run's factors
        # drawn for the other direction have the wrong shape
        part = Bipartition.split(SystemDims((2, 3)), (0,))
        parts = [part, part.swapped()]
        rho = np.array([np.eye(6) / 6] * 2)
        kraus = [KrausChannel([[np.eye(d)]], SystemDims((d,))) for d in (2, 3)]
        obs = (np.zeros((1, 3, 3)), np.zeros((1, 2, 2)))
        c = identity_channel(part.dims)
        assert np.array_equal(
            sorkin_violation(SorkinScenario(rho, tuple(kraus), c, obs, parts)), [0, 0]
        )
        with pytest.raises(ValueError, match="channel dims do not match"):
            SorkinScenario(rho, tuple(kraus[::-1]), c, obs, parts)
        with pytest.raises(ValueError, match="observable dimension does not match"):
            SorkinScenario(rho, tuple(kraus), c, obs[::-1], parts)

    def test_rejects_a_partition_count_unlike_the_stack(self):
        rho, kraus, obs = self._stacks()
        with pytest.raises(ValueError, match="one partition per member"):
            self._scenario(rho, kraus, obs, self.PARTS[:3])
        with pytest.raises(ValueError, match="one partition per member"):
            self._scenario(rho, kraus, obs, [])

    def test_rejects_partitions_of_other_dims(self):
        rho, kraus, obs = self._stacks()
        other = Bipartition.split(SystemDims((2, 3)), (0,))
        with pytest.raises(ValueError, match="different dims"):
            self._scenario(rho, kraus, obs, self.PARTS[:3] + [other])

    def test_refuses_partitions_as_random_sorkin_scenario_does(self):
        rho, kraus, obs = self._stacks()
        other = Bipartition.split(SystemDims((2, 3)), (0,))
        for parts in ([], self.PARTS[:3] + [other]):
            with pytest.raises(ValueError) as built:
                self._scenario(rho, kraus, obs, parts)
            with pytest.raises(ValueError) as drawn:
                random_sorkin_scenario(parts, cnot_channel(), RngStream(42))
            assert str(built.value) == str(drawn.value)


def _unitality_probe(eps):
    KrausChannel([np.sqrt(1.0 + eps) * I2], SystemDims((2,)))


def _scenario_probe(kind):
    def probe(eps):
        rho = np.outer(_ket(0, 0), _ket(0, 0))
        obs = np.kron(I2, Z)
        kraus = [np.kron(X, I2)]
        if kind == "state":
            rho = np.diag([1.0 + eps, -eps, 0.0, 0.0])
        elif kind == "observable":
            obs = obs + eps * np.kron(Z, I2)
        else:  # mixes in a flip on the receiver with weight eps
            kraus = [np.sqrt(1.0 - eps) * kraus[0], np.sqrt(eps) * np.kron(I2, X)]
        prep = KrausChannel(kraus, QUBIT_PAIR.dims)
        SorkinScenario(rho, prep, cnot_channel(), obs, QUBIT_PAIR)

    return probe


def _random_scenario_prep_probe(eps):
    """A drawn scenario's preparation, embedded, gets its Kraus operators
    times the unitary sqrt(1 - eps) - i sqrt(eps) (1 (x) Z (x) 1), whose
    off-sender Gram is eps."""
    part = Bipartition.split(SystemDims((2, 2, 2)), (0,))
    g = RngStream(41).generator()
    s = random_sorkin_scenario(part, random_kraus_channel(part.dims, 2, g), g)
    flip = embed_operator(Z, (1,), part.dims)
    kraus = embed_operator(s.prep.kraus, part.left, part.dims)
    kraus = kraus @ (np.sqrt(1.0 - eps) * np.eye(8) - 1j * np.sqrt(eps) * flip)
    prep = KrausChannel(kraus, part.dims)
    obs = embed_operator(s.observable, part.right, part.dims)
    SorkinScenario(s.rho, prep, s.intervention, obs, part)


def _sender_unitality_probe(eps):
    """Member 2 of a drawn stack gets its sender Kraus factors times
    sqrt(1 + eps), which moves their Gram sum off the identity by eps."""
    part = Bipartition.split(SystemDims((2, 3, 2)), (0, 2))
    g = RngStream(42).generator()
    s = random_sorkin_scenario([part] * 4, random_kraus_channel(part.dims, 2, g), g)
    kraus = s.prep[0].kraus.copy()
    kraus[2] = np.sqrt(1.0 + eps) * kraus[2]
    prep = KrausChannel(kraus, SystemDims((2, 2)))
    SorkinScenario(s.rho, (prep,), s.intervention, s.observable, [part] * 4)


_TOL_PROBES = {
    "kraus-unitality": (_unitality_probe, "not unital"),
    "scenario-state": (_scenario_probe("state"), "negative eigenvalue"),
    "scenario-observable": (_scenario_probe("observable"), "receiver sites"),
    "scenario-prep": (_scenario_probe("prep"), "not local"),
    "random-scenario-prep": (_random_scenario_prep_probe, "not local"),
    "random-stack-sender-unitality": (_sender_unitality_probe, "not unital"),
}


@pytest.mark.parametrize(
    "predicate", [is_unitary, is_hermitian, check_density, is_supported_on, is_local_channel]
)
def test_structural_predicates_take_no_tol(predicate):
    assert "tol" not in inspect.signature(predicate).parameters


@pytest.mark.parametrize("name", list(_TOL_PROBES))
def test_self_checks_use_default_tol(name):
    """Every structural self-check reads DEFAULT_TOL = 1e-10: a defect of
    1e-9 raises, one of 1e-12 passes."""
    probe, match = _TOL_PROBES[name]
    probe(1e-12)
    with pytest.raises(ValueError, match=match):
        probe(1e-9)


class TestSorkinViolation:
    def test_cnot_against_dense_matrix_oracle(self):
        # Everything below is raw 4x4 matrix algebra, no channel machinery.
        cnot = np.array(
            [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]], dtype=float
        )
        rho = np.outer(_ket(0, 0), _ket(0, 0))
        obs = np.kron(I2, Z)
        flip = np.kron(X, I2)
        evolved = cnot.conj().T @ obs @ cnot
        oracle = np.trace(rho @ flip.conj().T @ evolved @ flip) - np.trace(
            rho @ evolved
        )

        s = SorkinScenario(
            rho=rho,
            prep=embed_local(
                from_unitary(X, SystemDims((2,))), (0,), SystemDims((2, 2))
            ),
            intervention=cnot_channel(),
            observable=obs,
            partition=QUBIT_PAIR,
        )
        got = sorkin_violation(s)
        np.testing.assert_allclose(got, oracle.real, atol=1e-14)
        np.testing.assert_allclose(got, -2.0, atol=1e-14)

    def test_classical_one_way_signals(self):
        rho = np.outer(_ket(0, 0), _ket(0, 0))
        s = SorkinScenario(
            rho=rho,
            prep=embed_local(
                from_unitary(X, SystemDims((2,))), (0,), SystemDims((2, 2))
            ),
            intervention=classical_one_way_channel(),
            observable=np.kron(I2, Z),
            partition=QUBIT_PAIR,
        )
        np.testing.assert_allclose(sorkin_violation(s), -2.0, atol=1e-14)

    def test_product_interventions_never_signal(self):
        stream = RngStream(22)
        for i in range(20):
            g = stream.substream(i).generator()
            dims = SystemDims((2, 2)) if i % 2 == 0 else SystemDims((2, 3))
            part = Bipartition.split(dims, (0,))
            u = haar_local_unitary(dims, g)
            s = random_sorkin_scenario(part, from_unitary(u, dims), g)
            assert abs(sorkin_violation(s)) < 1e-10

    def test_linear_in_the_intervention(self):
        g = RngStream(26).generator()
        part = QUBIT_PAIR
        a = random_kraus_channel(part.dims, 2, g)
        b = random_kraus_channel(part.dims, 3, g)
        s = random_sorkin_scenario(part, a, g)
        w = 0.4
        va = sorkin_violation(s)
        vb = sorkin_violation(replace(s, intervention=b))
        vm = sorkin_violation(replace(s, intervention=mix(a, b, w)))
        np.testing.assert_allclose(vm, w * va + (1 - w) * vb, atol=1e-12)

    def test_swap_signals_both_ways(self):
        part = QUBIT_PAIR
        g = RngStream(23).generator()
        hits = 0
        for _ in range(10):
            s = random_sorkin_scenario(part, swap_channel(2), g)
            if abs(sorkin_violation(s)) > 1e-3:
                hits += 1
        assert hits > 0

    def test_six_qubit_scenario_peak_memory(self):
        # one Kraus block at a time; reading E from the defect's receiver
        # matrix-unit images took 128 MiB here
        dims = SystemDims((2,) * 6)
        part = Bipartition.split(dims, (0,))
        intervention = from_unitary(_six_qubit_haar(1)[0], dims)
        s = random_sorkin_scenario(part, intervention, RngStream(49).generator())
        tracemalloc.start()
        try:
            sorkin_violation(s)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * 2**20


def _one_way_defect_oracle():
    """Largest gain of the leakage map of the classical one-way channel,
    computed from scratch: explicit Kraus conjugation, real stacking of
    matrix entries, one SVD.  Shares no code with the implementation."""
    k0 = np.kron(np.diag([1.0, 0.0]), I2)
    k1 = np.kron(np.diag([0.0, 1.0]), X)
    paulis = [I2 / np.sqrt(2), X / np.sqrt(2), Y / np.sqrt(2), Z / np.sqrt(2)]
    cols = []
    for p in paulis:
        full = np.kron(I2, p)
        img = k0.conj().T @ full @ k0 + k1.conj().T @ full @ k1
        red = img.reshape(2, 2, 2, 2).trace(axis1=0, axis2=2) / 2.0
        leak = img - np.kron(I2, red)
        cols.append(np.concatenate([leak.real.ravel(), leak.imag.ravel()]))
    return np.linalg.svd(np.array(cols).T, compute_uv=False)[0]


class TestSemicausalDefect:
    def test_one_way_channel_against_oracle(self):
        rep = semicausal_defect(classical_one_way_channel(), QUBIT_PAIR)
        np.testing.assert_allclose(rep.strength, _one_way_defect_oracle(), atol=1e-12)
        np.testing.assert_allclose(rep.strength, np.sqrt(2.0), atol=1e-12)

    def test_one_way_channel_is_silent_backwards(self):
        rep = semicausal_defect(classical_one_way_channel(), QUBIT_PAIR.swapped())
        assert rep.strength < 1e-12

    def test_cnot_signals_both_directions(self):
        for oriented in (QUBIT_PAIR, QUBIT_PAIR.swapped()):
            rep = semicausal_defect(cnot_channel(), oriented)
            np.testing.assert_allclose(rep.strength, np.sqrt(2.0), atol=1e-12)

    def test_product_channel_has_no_defect(self):
        g = RngStream(28).generator()
        u = haar_local_unitary(SystemDims((2, 3)), g)
        c = from_unitary(u, SystemDims((2, 3)))
        part = Bipartition.split(SystemDims((2, 3)), (0,))
        for oriented in (part, part.swapped()):
            assert semicausal_defect(c, oriented).strength < 1e-12

    def test_depolarizing_has_no_defect(self):
        c = depolarizing_channel(SystemDims((2, 2)), 0.7)
        for oriented in (QUBIT_PAIR, QUBIT_PAIR.swapped()):
            assert semicausal_defect(c, oriented).strength < 1e-12

    def test_witness_is_valid_and_achieves_strength(self):
        # swap and the one-way channel have degenerate top singular spaces
        cases = [(cnot_channel(), QUBIT_PAIR)]
        for c in (swap_channel(3), classical_one_way_channel()):
            part = Bipartition.split(c.dims, (0,))
            cases += [(c, part), (c, part.swapped())]
        for c, oriented in cases:
            rep = semicausal_defect(c, oriented)
            w = rep.witness
            np.testing.assert_allclose(w, w.conj().T, atol=1e-12)
            np.testing.assert_allclose(np.linalg.norm(w), 1.0, atol=1e-12)
            # feed the witness back through the leakage map by hand
            s_sites, r_sites = rep.direction
            img = c.apply(embed_operator(w, r_sites, c.dims))
            red = partial_trace(img, c.dims, s_sites) / c.dims.block_dim(s_sites)
            leak = img - embed_operator(red, r_sites, c.dims)
            np.testing.assert_allclose(np.linalg.norm(leak), rep.strength, atol=1e-10)

    @pytest.mark.parametrize("phi", [0.0, np.pi / 2, np.pi, 2.0])
    def test_witness_ignores_eigenvector_phase(self, monkeypatch, phi):
        # at some phase the Hermitian part of the eigenvector alone vanishes
        c = random_kraus_channel(SystemDims((2, 3)), 3, RngStream(36).generator())
        part = Bipartition.split(c.dims, (0,))
        directions = (part, part.swapped())
        expected = [semicausal_defect(c, p).witness for p in directions]
        eigh = np.linalg.eigh

        def rotated(a):
            evals, evecs = eigh(a)
            return evals, evecs * np.exp(1j * phi)

        monkeypatch.setattr(np.linalg, "eigh", rotated)
        for oriented, w in zip(directions, expected):
            rep = semicausal_defect(c, oriented)
            np.testing.assert_allclose(rep.witness, w, atol=1e-12)

    def test_defect_is_convex_in_the_channel(self):
        g = RngStream(29).generator()
        a = random_kraus_channel(SystemDims((2, 2)), 3, g)
        b = random_kraus_channel(SystemDims((2, 2)), 3, g)
        w = 0.35
        da = semicausal_defect(a, QUBIT_PAIR).strength
        db = semicausal_defect(b, QUBIT_PAIR).strength
        dm = semicausal_defect(mix(a, b, w), QUBIT_PAIR).strength
        assert dm <= w * da + (1 - w) * db + 1e-10

    @pytest.mark.parametrize("dims", [(2, 2), (2, 3), (2, 2, 2), (3, 3)], ids=_dims_id)
    def test_matches_basis_loop(self, dims):
        dims = SystemDims(dims)
        g = RngStream(34).generator()
        for part in all_bipartitions(dims):
            for nkraus in (1, 3):
                c = random_kraus_channel(dims, nkraus, g)
                for oriented in (part, part.swapped()):
                    rep = semicausal_defect(c, oriented)
                    strength, witness = _defect_loop(c, oriented)
                    np.testing.assert_allclose(rep.strength, strength, rtol=1e-12)
                    np.testing.assert_allclose(rep.witness, witness, atol=1e-12)

    @pytest.mark.parametrize("kind", ["haar", "depolarizing", "kraus"])
    @pytest.mark.parametrize("dims", [(2, 2), (2, 3), (2, 2, 2), (3, 3)], ids=_dims_id)
    def test_strength_matches_basis_loop(self, dims, kind):
        dims = SystemDims(dims)
        g = RngStream(35).generator()
        if kind == "haar":
            c = from_unitary(haar_unitary(dims.total, g), dims)
        elif kind == "depolarizing":  # no defect in any direction
            c = depolarizing_channel(dims, 0.37)
        else:
            c = random_kraus_channel(dims, 3, g)
        for part in all_bipartitions(dims):
            for oriented in (part, part.swapped()):
                rep = semicausal_defect(c, oriented)
                want = _defect_loop(c, oriented)[0]
                if kind != "depolarizing":
                    np.testing.assert_allclose(rep.strength, want, rtol=1e-12)
                    continue
                # zero to rounding: both read the rounding of the off-block
                # part, and the top eigenvalue agrees with that of eigh
                assert rep.strength <= 1e-14 and want <= 1e-14
                top = np.linalg.eigh(rep.gram)[0][-1]
                assert abs(rep.strength - np.sqrt(abs(top))) <= 1e-15

    def test_strength_needs_no_eigenvectors(self, monkeypatch):
        def refuse(a):
            raise AssertionError("eigh called")

        monkeypatch.setattr(np.linalg, "eigh", refuse)
        rep = semicausal_defect(cnot_channel(), QUBIT_PAIR)
        np.testing.assert_allclose(rep.strength, np.sqrt(2.0), atol=1e-12)
        rows = perturbation_probe(
            identity_channel(QUBIT_PAIR.dims), cnot_channel(), [0.5], QUBIT_PAIR
        )
        np.testing.assert_allclose(rows[0].defect, np.sqrt(2.0) / 2, atol=1e-12)
        with pytest.raises(AssertionError, match="eigh called"):
            rep.witness

    def test_rejects_dims_mismatch(self):
        with pytest.raises(ValueError, match="dims"):
            semicausal_defect(
                identity_channel(SystemDims((2, 3))), QUBIT_PAIR
            )


_STACK_DIMS = [(2, 2), (2, 3), (3, 3), (2, 4), (2, 2, 2), (2, 3, 2)]


def _directions(dims):
    return [p for q in all_bipartitions(dims) for p in (q, q.swapped())]


def _defect_channels(dims):
    """A Haar unitary, a 3-Kraus random unital channel and every zoo entry
    that fits ``dims``."""
    g = RngStream(37).generator()
    out = {
        "haar": from_unitary(haar_unitary(dims.total, g), dims),
        "kraus": random_kraus_channel(dims, 3, g),
        "depolarizing": zoo("depolarizing", dims, lam=0.37),
        "local-random": zoo("local-random", dims, rng=g),
    }
    if dims.dims == (2, 2):
        out["cnot"] = zoo("cnot")
        out["classical-one-way"] = zoo("classical-one-way")
    if dims.nsites == 2 and dims.dims[0] == dims.dims[1]:
        out["swap"] = zoo("swap", d=dims.dims[0])
    return out


def _strengths(reports):
    return [(r.direction, r.strength) for r in reports]


@pytest.mark.parametrize("dims", _STACK_DIMS, ids=_dims_id)
class TestStackedDefects:
    def test_stack_is_each_direction_alone(self, dims):
        dims = SystemDims(dims)
        directions = _directions(dims)
        for c in _defect_channels(dims).values():
            alone = [semicausal_defect(c, p) for p in directions]
            assert _strengths(semicausal_defects(c, directions)) == _strengths(alone)
            # the Grams of one stacked pass per shape, bit for bit
            for idx in causality._by_shape(directions):
                parts = [directions[i] for i in idx]
                grams = causality._defect_grams(c, parts)
                for gram, p in zip(grams, parts, strict=True):
                    assert gram.tobytes() == semicausal_defect(c, p).gram.tobytes()

    def test_one_direction_per_pass_gives_the_same_bits(self, dims, monkeypatch):
        dims = SystemDims(dims)
        directions = _directions(dims)
        cs = _defect_channels(dims).values()
        stacked = [_strengths(semicausal_defects(c, directions)) for c in cs]
        monkeypatch.setattr(causality, "_DEFECT_ENTRIES", 1)
        assert [_strengths(semicausal_defects(c, directions)) for c in cs] == stacked

    def test_strengths_match_basis_loop(self, dims):
        dims = SystemDims(dims)
        directions = _directions(dims)
        for c in _defect_channels(dims).values():
            for rep, p in zip(semicausal_defects(c, directions), directions):
                want = _defect_loop(c, p)[0]
                if max(rep.strength, want) < 1e-12:
                    assert abs(rep.strength - want) <= 1e-14
                else:
                    np.testing.assert_allclose(rep.strength, want, rtol=1e-12)


@pytest.mark.parametrize("dims", [(2, 3), (3, 2), (2, 2, 2), (2, 3, 2), (4, 4)], ids=_dims_id)
def test_defect_trace_is_the_schmidt_entangling_power(dims):
    """For a unitary U and a direction S -> R, tr G(S->R) = d_S d_R² E(U)
    with E(U) = 1 - sum (s_i²/D)² over U's operator Schmidt values: the
    Schmidt path is an oracle for ``_defect_grams``'s legs and off-block part.
    """
    dims = SystemDims(dims)
    g = RngStream(41).generator()
    product = from_unitary(haar_local_unitary(dims, g), dims)
    for c in (from_unitary(haar_unitary(dims.total, g), dims), product):
        for p in _directions(dims):
            s = operator_schmidt_values(c.kraus[0], p)
            entangling = 1 - np.sum((s**2 / dims.total) ** 2)
            trace = np.trace(causality._defect_grams(c, [p])[0]).real
            if c is product:  # reads 0 on both sides
                assert abs(trace) <= 1e-12 and abs(entangling) <= 1e-12
            else:
                want = p.left_dim * p.right_dim**2 * entangling
                assert abs(trace - want) <= 1e-12 * want


def _frozen_in_order(ops, order, dims):
    """Each op's row and column legs in site ``order``, by the transpose that
    ``_rest_first``, ``_defect_grams`` and ``sorkin_violation`` each wrote out."""
    lead = ops.shape[:-2]
    k, n = len(lead), dims.nsites
    legs = [k + s for s in order]
    shaped = ops.reshape(*lead, *dims.dims * 2)
    x = shaped.transpose(*range(k), *legs, *(n + leg for leg in legs)).copy()
    return x.reshape(ops.shape)


class TestLegOrder:
    @pytest.mark.parametrize("dims", _REFERENCE_DIMS, ids=_dims_id)
    def test_in_order_is_the_frozen_transpose(self, rng, dims):
        dims = SystemDims(dims)
        d = dims.total
        ops = rng.standard_normal((2, 3, d, d)) + 1j * rng.standard_normal((2, 3, d, d))
        for p in _directions(dims):
            order = p.left + p.right
            for x in (ops[0, 0], ops[0], ops):
                got = causality._in_order(x, order, dims)
                assert got.shape == x.shape
                assert got.tobytes() == _frozen_in_order(x, order, dims).tobytes()

    def test_in_order_puts_the_factors_in_order(self, rng):
        dims = SystemDims((2, 3, 2))
        factors = [
            rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d)) for d in dims.dims
        ]
        for order in permutations(range(3)):
            got = causality._in_order(tensor_product(*factors), order, dims)
            want = tensor_product(*[factors[s] for s in order])
            np.testing.assert_allclose(got, want, atol=1e-14)

    # (2,), (1, 2) and all sites: the (rest, sites) order is ascending
    @pytest.mark.parametrize("sites", [(0,), (1,), (2,), (0, 2), (1, 2), (0, 1, 2)])
    def test_rest_first_is_a_copy_off_block_may_change(self, rng, sites):
        dims = SystemDims((2, 3, 2))
        big = rng.standard_normal((4, 12, 12)) + 1j * rng.standard_normal((4, 12, 12))
        for ops in (big[0], big, big[::2]):
            before = ops.copy()
            x, d_rest = causality._rest_first(ops, sites, dims)
            assert not np.shares_memory(x, ops)
            causality._off_block(x, d_rest)
            assert np.array_equal(ops, before)


class TestDefectPasses:
    def test_reports_keep_the_order_of_parts(self):
        dims = SystemDims((2, 3, 2))
        c = random_kraus_channel(dims, 2, RngStream(38))
        directions = _directions(dims)[::-1]
        reps = semicausal_defects(c, directions)
        assert [r.direction for r in reps] == [(p.left, p.right) for p in directions]
        assert semicausal_defects(c, []) == []
        # no report holds its Gram until it is read
        assert all("gram" not in vars(r) for r in reps)
        d_r = directions[0].right_dim
        assert reps[0].gram.shape == (d_r**2, d_r**2) and "gram" in vars(reps[0])

    @pytest.mark.parametrize(
        "kind, entries, passes",
        [
            # 3 Kraus operators, k D**2 = 192 entries a direction: the
            # images bound the pass, (d_R D)**2 = 256 for d_R = 2 and 1024
            # for d_R = 4
            ("kraus", 512, [1, 1, 1, 1, 2]),
            # 64 Kraus operators, k D**2 = 4096 entries a direction: the
            # families bound the pass
            ("depolarizing", 8192, [1, 1, 2, 2]),
        ],
    )
    def test_a_pass_holds_at_most_its_entries(self, monkeypatch, kind, entries, passes):
        # (2, 2, 2): three directions of each shape
        dims = SystemDims((2, 2, 2))
        c = _defect_channels(dims)[kind]
        d = dims.total
        counts = []
        off_block = causality._off_block

        def spy(x, d_rest):
            counts.append(len(x))
            # a pass of more than one direction holds at most `entries` image
            # entries, and as many in its stacked Kraus families
            assert len(x) == 1 or max(x.size, len(x) * c.nkraus * d * d) <= entries
            return off_block(x, d_rest)

        monkeypatch.setattr(causality, "_off_block", spy)
        monkeypatch.setattr(causality, "_DEFECT_ENTRIES", entries)
        semicausal_defects(c, _directions(dims))
        assert sorted(counts) == passes

    def test_off_block_changes_its_input_in_place(self):
        # legs in (rest, sites) order, rest = site 0 of (2, 3)
        dims = SystemDims((2, 3))
        g = RngStream(41).generator()
        x = g.standard_normal((2, 6, 6)) + 1j * g.standard_normal((2, 6, 6))
        traced = partial_trace(x, dims, (0,)) / 2
        want = x - np.stack([np.kron(np.eye(2), t) for t in traced])
        assert causality._off_block(x, 2) is x
        np.testing.assert_allclose(x, want, atol=1e-14)
        # a reshape of a strided view would copy, so the view is refused
        with pytest.raises(ValueError, match="contiguous"):
            causality._off_block(want.swapaxes(-1, -2), 2)

    def test_embeds_traces_and_applies_nothing(self, monkeypatch):
        calls = []

        def spy(owner, name):
            original = getattr(owner, name)

            def counted(*args, **kwargs):
                calls.append(name)
                return original(*args, **kwargs)

            monkeypatch.setattr(owner, name, counted)

        for module in (tensor, causality, channels, sampling):
            for name in ("embed_operator", "partial_trace"):
                if hasattr(module, name):
                    spy(module, name)
        spy(KrausChannel, "apply")
        dims = SystemDims((2, 3, 2))
        c = random_kraus_channel(dims, 2, RngStream(40))
        assert len(semicausal_defects(c, _directions(dims))) == 6
        assert calls == []
        # the spies do count
        c.apply(np.eye(dims.total))
        causality.partial_trace(np.eye(dims.total), dims, (0,))
        assert calls == ["apply", "partial_trace"]

    def test_rejects_dims_mismatch(self):
        with pytest.raises(ValueError, match="dims"):
            semicausal_defects(identity_channel(SystemDims((2, 3))), [QUBIT_PAIR])


def _image_channels(dims):
    g = RngStream(53).generator()
    return {
        "haar": from_unitary(haar_unitary(dims.total, g), dims),
        "kraus": random_kraus_channel(dims, 3, g),
        "depolarizing": depolarizing_channel(dims, 0.37),
    }


def _kraus_is_cheaper(c, part):
    """The contraction rule, restated: d_R^2 > k (d_R + D)."""
    d_r = part.right_dim
    return d_r * d_r > c.nkraus * (d_r + c.dims.total)


_IMAGE_DIMS = [(2, 2), (2, 3), (3, 2), (2, 2, 2), (2, 3, 2), (4, 4)]


class TestSorkinFromImages:
    """A member's Phi(1 (x) O_R) read from its direction's defect images
    against the Kraus contraction of ``sorkin_violation``."""

    @pytest.mark.parametrize("dims", _IMAGE_DIMS, ids=_dims_id)
    @pytest.mark.parametrize("kind", ["haar", "kraus", "depolarizing"])
    def test_images_equal_the_kraus_path(self, dims, kind):
        dims = SystemDims(dims)
        c = _image_channels(dims)[kind]
        directions = _directions(dims)
        n = 3
        passes = DefectPasses(c, directions, n)
        stack = [p for p in directions for _ in range(n)]
        s = random_sorkin_scenario(stack, c, RngStream(54))
        got = sorkin_violation(s, passes)
        want = sorkin_violation(s)
        assert np.all(np.abs(got - want) <= 1e-12 * np.maximum(1.0, np.abs(want)))
        assert np.abs(want).max() > 1e-3 or kind == "depolarizing"
        # each strength is that of a pass of its direction alone, bit for bit
        assert passes.strengths() == [semicausal_defect(c, p).strength for p in directions]

    @pytest.mark.parametrize("dims", [(2, 3), (2, 3, 2)], ids=_dims_id)
    @pytest.mark.parametrize("kind", ["haar", "kraus"])
    def test_images_are_the_off_block_part(self, dims, kind):
        # the Sorkin value cannot tell: a unital preparation fixes 1_S (x) Y
        dims = SystemDims(dims)
        c = _image_channels(dims)[kind]
        g = RngStream(63).generator()
        for part in _directions(dims):
            if _kraus_is_cheaper(c, part):
                continue
            d_r = part.right_dim
            obs = g.normal(size=(2, d_r, d_r)) + 1j * g.normal(size=(2, d_r, d_r))
            obs = obs + obs.conj().swapaxes(-1, -2)
            got = DefectPasses(c, [part], 2).image(0, obs, [0])
            full = causality._kraus_image(c.kraus, obs, part)
            want = causality._off_block(full.copy(), part.left_dim)
            np.testing.assert_allclose(got, want, rtol=0, atol=1e-12 * np.abs(full).max())
            assert np.abs(full - want).max() > 1e-3  # the in-block part is not zero

    def test_both_sides_of_the_rule_are_covered(self):
        sides = set()
        for dims in map(SystemDims, _IMAGE_DIMS):
            for c in _image_channels(dims).values():
                sides |= {_kraus_is_cheaper(c, p) for p in _directions(dims)}
        assert sides == {True, False}

    @pytest.mark.parametrize("dims", [(2, 2, 2), (2, 3, 2), (4, 4)], ids=_dims_id)
    @pytest.mark.parametrize("kind", ["haar", "kraus", "depolarizing"])
    def test_the_rule_picks_the_path(self, dims, kind, monkeypatch):
        dims = SystemDims(dims)
        c = _image_channels(dims)[kind]
        directions = _directions(dims)
        by_kraus = []
        kraus_image = causality._kraus_image

        def spy(ks, obs, part):
            by_kraus.append(part)
            return kraus_image(ks, obs, part)

        monkeypatch.setattr(causality, "_kraus_image", spy)
        passes = DefectPasses(c, directions, 2)
        s = random_sorkin_scenario([p for p in directions for _ in range(2)], c, RngStream(55))
        sorkin_violation(s, passes)
        assert by_kraus == [p for p in directions if _kraus_is_cheaper(c, p)]

    def test_a_stack_gives_each_member_alone(self):
        # each member is its own product of one shape, whatever the stack
        dims = SystemDims((2, 3, 2))
        c = _image_channels(dims)["kraus"]
        directions = _directions(dims)
        stack = [p for p in directions for _ in range(3)]
        s = random_sorkin_scenario(stack, c, RngStream(56))
        together = sorkin_violation(s, DefectPasses(c, directions, 3))
        alone = DefectPasses(c, directions, 3)
        g = RngStream(56).generator()
        for j, p in enumerate(stack):
            one = random_sorkin_scenario(p, c, g)
            assert sorkin_violation(one, alone) == together[j]

    def test_images_go_with_the_last_member(self):
        dims = SystemDims((2, 2, 2))
        c = _image_channels(dims)["kraus"]
        directions = _directions(dims)
        passes = DefectPasses(c, directions, 4)
        g = RngStream(57).generator()
        first = random_sorkin_scenario([directions[0]] * 3, c, g)
        sorkin_violation(first, passes)
        held = [x is not None for x in passes._images]
        assert held == [True] + [False] * (len(directions) - 1)
        sorkin_violation(random_sorkin_scenario([directions[0]], c, g), passes)
        assert all(x is None for x in passes._images)
        # a direction the stacks have not reached has not run its pass
        ran = [s is not None for s in passes._strength]
        assert ran == [True] + [False] * (len(directions) - 1)

    def test_refuses_other_channels_and_directions(self):
        dims = SystemDims((2, 3))
        c = _image_channels(dims)["kraus"]
        part = _directions(dims)[0]
        s = random_sorkin_scenario(part, c, RngStream(58))
        with pytest.raises(ValueError, match="another channel"):
            sorkin_violation(s, DefectPasses(random_kraus_channel(dims, 3, RngStream(59)), [part]))
        with pytest.raises(ValueError, match="not one of"):
            sorkin_violation(s, DefectPasses(c, [part.swapped()]))


@pytest.mark.parametrize("dims", [(2, 2, 2), (2, 3, 2)], ids=_dims_id)
def test_check_causal_report_does_not_depend_on_the_block(dims, monkeypatch, tmp_path):
    dims = SystemDims(dims)
    c = _image_channels(dims)["kraus"]
    cfg = cli.ExperimentConfig.from_dict({
        "experiment": "check-causal", "seed": 62, "dims": list(dims.dims),
        "n_scenarios": 5, "channel": c.to_json(),
    })
    results = []
    for block in (1, 3, 32):
        monkeypatch.setattr(cli, "SCENARIO_BLOCK", block)
        results.append(cli._run_check_causal(cfg, tmp_path))
    assert results[0] == results[1] == results[2]


def test_check_causal_keeps_at_most_a_pass_of_images():
    """A 16-Kraus (2,)*5 channel reads every member from images.  Its traced
    peak stays within that of its defect passes alone plus the largest pass's
    images; holding every direction's images would add their sum."""
    dims = SystemDims((2,) * 5)
    c = random_kraus_channel(dims, 16, RngStream(60))
    cfg = cli.ExperimentConfig.from_dict({
        "experiment": "check-causal", "seed": 61, "dims": list(dims.dims),
        "n_scenarios": 2, "channel": c.to_json(),
    })
    directions = _directions(dims)
    assert not any(_kraus_is_cheaper(c, p) for p in directions)

    def peak(run):
        tracemalloc.start()
        try:
            run()
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    passes = peak(lambda: semicausal_defects(c, directions))
    checked = peak(lambda: cli._run_check_causal(cfg, None))
    d = dims.total
    image_bytes = [16 * (p.right_dim * d) ** 2 for p in directions]
    largest_pass = max(
        min(n, max(1, causality._DEFECT_ENTRIES // max((d_r * d) ** 2, 16 * d * d)))
        * 16 * (d_r * d) ** 2
        for d_r, n in ((d_r, sum(p.right_dim == d_r for p in directions)) for d_r in (2, 4, 8, 16))
    )
    assert checked <= passes + largest_pass
    assert sum(image_bytes) > largest_pass


class TestOperatorSchmidt:
    def test_frozen_values(self):
        np.testing.assert_allclose(
            operator_schmidt_values(np.eye(4), QUBIT_PAIR), [2.0, 0.0, 0.0, 0.0],
            atol=1e-12,
        )
        np.testing.assert_allclose(
            operator_schmidt_values(cnot_channel().kraus[0], QUBIT_PAIR),
            [np.sqrt(2.0), np.sqrt(2.0), 0.0, 0.0],
            atol=1e-12,
        )
        np.testing.assert_allclose(
            operator_schmidt_values(swap_channel(2).kraus[0], QUBIT_PAIR),
            [1.0, 1.0, 1.0, 1.0],
            atol=1e-12,
        )

    def test_squares_sum_to_dimension_for_unitaries(self):
        stream = RngStream(30)
        for i in range(10):
            u = haar_unitary(6, stream.substream(i))
            part = Bipartition.split(SystemDims((2, 3)), (0,))
            s = operator_schmidt_values(u, part)
            np.testing.assert_allclose(np.sum(s**2), 6.0, atol=1e-10)


    def test_stack_matches_each_element(self):
        stream = RngStream(37)
        part = Bipartition.split(SystemDims((2, 3, 2)), (0, 2))
        us = np.array([haar_unitary(12, stream.substream(i)) for i in range(6)])
        got = operator_schmidt_values(us.reshape(2, 3, 12, 12), part)
        assert got.shape == (2, 3, 9)
        for i, u in enumerate(us):
            assert np.array_equal(got[divmod(i, 3)], operator_schmidt_values(u, part))


class TestIsCausalUnitary:
    def test_products_pass_and_entanglers_fail(self):
        g = RngStream(31).generator()
        dims = SystemDims((2, 2))
        assert is_causal_unitary(haar_local_unitary(dims, g), dims)
        assert not is_causal_unitary(cnot_channel().kraus[0], dims)
        assert not is_causal_unitary(swap_channel(2).kraus[0], dims)
        assert not is_causal_unitary(haar_unitary(4, g), dims)

    def test_rejects_non_unitary(self):
        with pytest.raises(ValueError, match="unitary"):
            is_causal_unitary(np.diag([1.0, 1.0, 1.0, 2.0]), SystemDims((2, 2)))


class TestNearestProductUnitary:
    def test_product_input_recovered(self):
        g = RngStream(32).generator()
        dims = SystemDims((2, 3))
        part = Bipartition.split(dims, (0,))
        u = haar_local_unitary(dims, g)
        approx = nearest_product_unitary(u, part)
        assert approx.distance < 1e-8
        np.testing.assert_allclose(approx.overlap, 6.0, atol=1e-10)
        assert approx.converged
        # the reconstruction matches u up to a global phase
        prod = np.kron(approx.u1, approx.u2)
        phase = np.trace(prod.conj().T @ u)
        phase /= abs(phase)
        np.testing.assert_allclose(phase * prod, u, atol=1e-7)

    def test_swap_frozen_values(self):
        approx = nearest_product_unitary(swap_channel(2).kraus[0], QUBIT_PAIR)
        np.testing.assert_allclose(approx.overlap, 2.0, atol=1e-9)
        np.testing.assert_allclose(approx.distance, 2.0, atol=1e-9)

    def test_overlap_history_is_monotone(self):
        stream = RngStream(33)
        for d in (2, 4, 8):
            part = Bipartition.split(SystemDims((d, d)), (0,))
            for i in range(5):
                u = haar_unitary(d * d, stream.substream(i))
                approx = nearest_product_unitary(u, part)
                h = np.array(approx.overlap_history)
                assert np.all(np.diff(h) > -1e-12)
                assert approx.converged
                if d > 2:
                    # the tail step fires at these sizes and saves sweeps
                    ref = _nearest_product_reference(u, part)
                    assert approx.iterations < ref.iterations

    def test_converges_where_the_plain_sweep_hits_max_iter(self):
        # sample 54 of the (2,)*6 sample-haar run with seed 7; the plain
        # sweep stops here after 500 sweeps at overlap 28.488027240488584
        u = haar_unitary(64, RngStream(7, 54).generator())
        part = Bipartition.split(SystemDims((2,) * 6), (0, 1, 2, 4, 5))
        approx = nearest_product_unitary(u, part)
        assert approx.converged
        assert approx.overlap > 28.488027240488584

    def test_distance_overlap_identity(self):
        u = haar_unitary(4, RngStream(34))
        approx = nearest_product_unitary(u, QUBIT_PAIR)
        np.testing.assert_allclose(
            approx.distance**2 + 2 * approx.overlap, 8.0, atol=1e-10
        )

    def test_no_phase_beats_reported_distance(self):
        u = haar_unitary(4, RngStream(35))
        approx = nearest_product_unitary(u, QUBIT_PAIR)
        prod = np.kron(approx.u1, approx.u2)
        for phi in np.linspace(0.0, 2 * np.pi, 97):
            d = np.linalg.norm(u - np.exp(1j * phi) * prod)
            assert d >= approx.distance - 1e-9

    def test_matches_random_restart_search(self):
        # The deterministic start must not lose to brute-force restarts.
        stream = RngStream(36)
        part = QUBIT_PAIR
        for i in range(3):
            u = haar_unitary(4, stream.substream(i))
            approx = nearest_product_unitary(u, part)
            r = realign(u, part)
            g = stream.substream(100 + i).generator()
            best = 0.0
            for _ in range(10):
                u1 = haar_unitary(2, g)
                u2 = haar_unitary(2, g)
                for _ in range(300):
                    u1 = polar_unitary((r @ u2.conj().reshape(4)).reshape(2, 2))
                    u2 = polar_unitary((r.T @ u1.conj().reshape(4)).reshape(2, 2))
                ov = abs(u1.conj().reshape(4) @ r @ u2.conj().reshape(4))
                best = max(best, ov)
            assert approx.overlap >= best - 1e-9

    def test_rejects_non_unitary(self):
        with pytest.raises(ValueError, match="unitary"):
            nearest_product_unitary(np.ones((4, 4)), QUBIT_PAIR)


def _nearest_product_reference(u, part, tol=1e-12, max_iter=500):
    """Frozen single-target loop of plain sweeps, without the tail step."""
    r = realign(u, part)
    dl, dr = part.left_dim, part.right_dim
    d = part.dims.total
    w, _, vh = np.linalg.svd(r, full_matrices=False)
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


def _assert_single_target_runs(us, part, got, max_iter=500):
    """Each stacked result equals that target run alone, bit for bit."""
    assert len(got) == len(us)
    for u, res in zip(us, got):
        one = nearest_product_unitary(u, part, max_iter=max_iter)
        assert np.array_equal(res.u1, one.u1)
        assert np.array_equal(res.u2, one.u2)
        assert res.overlap == one.overlap
        assert res.distance == one.distance
        assert res.iterations == one.iterations
        assert res.converged == one.converged
        assert res.overlap_history == one.overlap_history


def _assert_no_worse_than(res, ref):
    """The optimizer against the frozen loop: the same maximum where that
    converges, in no more sweeps; at least its overlap where it stops at
    ``max_iter``."""
    if not ref.converged:
        assert res.overlap >= ref.overlap
        return
    assert res.converged
    assert res.iterations <= ref.iterations
    np.testing.assert_allclose(res.overlap, ref.overlap, rtol=1e-12, atol=0)
    np.testing.assert_allclose(res.distance, ref.distance, rtol=1e-12, atol=0)


def _basis_permutation(dims, f):
    """Permutation unitary sending basis state ``|i_0 ... i_{n-1}>`` to ``|f(i)>``."""
    d = int(np.prod(dims))
    u = np.zeros((d, d), dtype=complex)
    for col, i in enumerate(np.ndindex(*dims)):
        u[np.ravel_multi_index(f(i), dims), col] = 1.0
    return u


def _mixed_targets(dims, seed):
    """Haar, product, CNOT-like and (for equal first two sites) swap targets."""
    stream = RngStream(seed)
    sd = SystemDims(dims)
    us = [haar_unitary(sd.total, stream.substream(i)) for i in range(4)]
    us += [haar_local_unitary(sd, stream.substream(10 + i)) for i in range(2)]
    # the controlled shift |a, b> -> |a, b + a> is CNOT on two qubits
    shift = _basis_permutation(dims, lambda i: (i[0], (i[1] + i[0]) % dims[1], *i[2:]))
    us.append(shift)
    if dims[0] == dims[1]:
        us.append(_basis_permutation(dims, lambda i: (i[1], i[0], *i[2:])))
    return np.array(us)


_STACK_GRID = [
    ((2, 2), (0,)),
    ((2, 3), (0,)),
    ((3, 3), (0,)),
    ((2, 4), (0,)),
    ((4, 4), (0,)),
    ((2, 2, 2), (0,)),
    ((2, 2, 2), (0, 2)),
]


def _full_matrices_reference(u, part, max_iter=500):
    """The frozen single-target loop with its former start, the full-matrices SVD.

    Every other SVD on the path is square or values-only, where
    ``full_matrices`` changes nothing.
    """
    svd = np.linalg.svd

    def full_svd(a, full_matrices=True, **kwargs):
        return svd(a, full_matrices=True, **kwargs)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(np.linalg, "svd", full_svd)
        return _nearest_product_reference(u, part, max_iter=max_iter)


def _six_qubit_haar(n):
    stream = RngStream(48)
    return np.array([haar_unitary(64, stream.substream(i)) for i in range(n)])


_UNBALANCED_CUTS = [(0,), (0, 1, 2, 3, 4)]


class TestEconomyStart:
    """The start reads the economy SVD, never the unread square factor."""

    @pytest.mark.parametrize(
        "dims,left",
        [
            (dims, left)
            for dims, left in _STACK_GRID
            if np.prod([dims[i] for i in left]) ** 2 != np.prod(dims)
        ]
        + [((2,) * 6, left) for left in _UNBALANCED_CUTS],
    )
    def test_matches_full_matrices_start(self, dims, left):
        part = Bipartition.split(SystemDims(dims), left)
        if len(dims) == 6:
            us = _six_qubit_haar(2)
        else:
            us = _mixed_targets(dims, seed=40 + len(dims) * 10 + sum(dims))
        got = nearest_product_unitaries(us, part)
        _assert_single_target_runs(us, part, got)
        for u, res in zip(us, got):
            _assert_no_worse_than(res, _full_matrices_reference(u, part))

    @pytest.mark.parametrize("left", _UNBALANCED_CUTS)
    def test_unbalanced_cut_peak_memory(self, left):
        # a full-matrices start would build a 1024 x 1024 factor (16 MiB) here
        us = _six_qubit_haar(1)
        part = Bipartition.split(SystemDims((2,) * 6), left)
        tracemalloc.start()
        try:
            nearest_product_unitaries(us, part)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20


class TestStackedNearestProduct:
    @pytest.mark.parametrize("dims,left", _STACK_GRID)
    @pytest.mark.parametrize("max_iter", [500, 3])
    def test_matches_single_target_reference(self, dims, left, max_iter):
        part = Bipartition.split(SystemDims(dims), left)
        us = _mixed_targets(dims, seed=40 + len(dims) * 10 + sum(dims))
        got = nearest_product_unitaries(us, part, max_iter=max_iter)
        _assert_single_target_runs(us, part, got, max_iter=max_iter)
        for u, res in zip(us, got):
            _assert_no_worse_than(res, _nearest_product_reference(u, part, max_iter=max_iter))
        # targets leave the stack at different sweeps
        if max_iter == 3:
            assert {res.converged for res in got} == {True, False}
        else:
            assert all(res.converged for res in got)
            assert len({res.iterations for res in got}) > 2

    @pytest.mark.parametrize("max_iter", [500, 3])
    def test_each_result_owns_its_factors(self, max_iter):
        # a view into a sweep's stack would keep the whole stack alive
        us = _mixed_targets((2, 2), seed=42)
        got = nearest_product_unitaries(us, QUBIT_PAIR, max_iter=max_iter)
        assert len({res.iterations for res in got}) > 1
        for res in got:
            assert res.u1.base is None and res.u2.base is None

    def test_rejects_empty_stack(self):
        with pytest.raises(ValueError, match="non-empty"):
            nearest_product_unitaries(np.zeros((0, 4, 4)), QUBIT_PAIR)

    def test_rejects_one_non_unitary_member(self):
        us = _mixed_targets((2, 2), seed=42)
        us[3] = np.diag([1.0, 1.0, 1.0, 2.0])
        with pytest.raises(ValueError, match="unitary"):
            nearest_product_unitaries(us, QUBIT_PAIR)


class TestPerturbationProbe:
    @pytest.mark.parametrize("dims", [(2, 2), (2, 3), (3, 3), (2, 2, 2)])
    def test_choi_distance_matches_the_choi_oracle(self, dims):
        dims = SystemDims(dims)
        part = Bipartition.split(dims, (0,))
        rng = np.random.default_rng(5)
        # (causal, acausal); the 2-Kraus draw acts on the receiver only, so it
        # cannot signal from the sender
        local = random_kraus_channel(dims.sub(part.right), 2, rng)
        pairs = [
            (identity_channel(dims), random_kraus_channel(dims, 3, rng)),
            (
                embed_local(local, part.right, dims),
                from_unitary(haar_unitary(dims.total, rng), dims),
            ),
        ]
        if dims.dims == (3, 3):
            # 81 + 1 Kraus vectors in C^81: the QR factor R is wide
            pairs.append((depolarizing_channel(dims, 0.5), swap_channel(3)))
        for causal, acausal in pairs:
            # no mixed channel, so no cancellation against the causal Choi
            norm = tensor.trace_norm(
                channels.kraus_to_choi(acausal) - channels.kraus_to_choi(causal)
            )
            rows = perturbation_probe(causal, acausal, [0.1, 1e-4], part)
            for row in rows:
                np.testing.assert_allclose(
                    row.choi_distance, row.epsilon * norm, rtol=1e-14, atol=0
                )

    def test_runs_without_an_svd(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("svd called")

        monkeypatch.setattr(np.linalg, "svd", refuse)
        rows = perturbation_probe(
            identity_channel(QUBIT_PAIR.dims), cnot_channel(), [0.5, 0.1], QUBIT_PAIR
        )
        assert [r.epsilon for r in rows] == [0.5, 0.1]

    def test_full_size_swap_through_the_cli(self, tmp_path):
        cfg = tmp_path / "c.json"
        cfg.write_text(
            json.dumps(
                {
                    "experiment": "perturb-ball",
                    "seed": 1,
                    "dims": [8, 8],
                    "causal": {"name": "identity"},
                    "acausal": {"name": "swap", "params": {"d": 8}},
                }
            )
        )
        code = cli.main(
            ["perturb-ball", "--config", str(cfg), "--out-dir", str(tmp_path)]
        )
        assert code == 0
        res = json.loads((tmp_path / "perturb-ball-report.json").read_text())["results"]
        assert res["linear"] is True
        # J_swap and J_id are rank one, each of trace D, with overlap tr(SWAP) = d:
        # ||J_swap - J_id||_1 = 2 sqrt(D^2 - d^2)
        np.testing.assert_allclose(
            [r["choi_distance"] for r in res["rows"]],
            [r["epsilon"] * 2 * np.sqrt(64**2 - 8**2) for r in res["rows"]],
            rtol=1e-14,
            atol=0,
        )

    def test_linear_growth_from_causal_endpoint(self):
        causal = identity_channel(SystemDims((2, 2)))
        eps = [0.5, 0.25, 0.125, 0.0625]
        rows = perturbation_probe(causal, cnot_channel(), eps, QUBIT_PAIR)
        assert [r.epsilon for r in rows] == eps
        defect_ratios = np.array([r.defect / r.epsilon for r in rows])
        choi_ratios = np.array([r.choi_distance / r.epsilon for r in rows])
        np.testing.assert_allclose(defect_ratios, defect_ratios[0], rtol=1e-9)
        np.testing.assert_allclose(choi_ratios, choi_ratios[0], rtol=1e-9)
        np.testing.assert_allclose(defect_ratios[0], np.sqrt(2.0), atol=1e-9)
        assert all(isinstance(r, PerturbationRow) for r in rows)

    def test_rejects_signalling_base_point(self):
        with pytest.raises(ValueError, match="causal"):
            perturbation_probe(
                cnot_channel(), cnot_channel(), [0.1], QUBIT_PAIR
            )

    def test_rejects_defect_free_probe(self):
        ident = identity_channel(SystemDims((2, 2)))
        with pytest.raises(ValueError, match="no defect"):
            perturbation_probe(ident, ident, [0.1], QUBIT_PAIR)

    def test_rejects_bad_epsilons(self):
        ident = identity_channel(SystemDims((2, 2)))
        with pytest.raises(ValueError, match="epsilon"):
            perturbation_probe(ident, cnot_channel(), [], QUBIT_PAIR)
        with pytest.raises(ValueError, match="epsilon"):
            perturbation_probe(ident, cnot_channel(), [1.5], QUBIT_PAIR)
