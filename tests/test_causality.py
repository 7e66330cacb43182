from dataclasses import replace

import numpy as np
import pytest

from qcausal.causality import (
    PerturbationRow,
    ProductApproximation,
    SorkinScenario,
    is_causal_unitary,
    is_local_channel,
    is_supported_on,
    nearest_product_unitary,
    operator_schmidt_values,
    perturbation_probe,
    semicausal_defect,
    sorkin_violation,
)
from qcausal.channels import (
    cnot_channel,
    classical_one_way_channel,
    depolarizing_channel,
    embed_local,
    from_unitary,
    identity_channel,
    mix,
    product_unitary_channel,
    swap_channel,
)
from qcausal.sampling import (
    RngStream,
    haar_local_unitary,
    haar_unitary,
    random_density,
    random_kraus_channel,
    random_sorkin_scenario,
)
from qcausal.tensor import Bipartition, SystemDims, embed_operator, polar_unitary, realign

from conftest import I2, X, Y, Z

QUBIT_PAIR = Bipartition.split(SystemDims((2, 2)), (0,))


def _ket(*bits):
    v = np.array([1.0])
    for b in bits:
        e = np.zeros(2)
        e[b] = 1.0
        v = np.kron(v, e)
    return v


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
        rep = semicausal_defect(classical_one_way_channel(), QUBIT_PAIR, sender="left")
        np.testing.assert_allclose(rep.strength, _one_way_defect_oracle(), atol=1e-12)
        np.testing.assert_allclose(rep.strength, np.sqrt(2.0), atol=1e-12)

    def test_one_way_channel_is_silent_backwards(self):
        rep = semicausal_defect(classical_one_way_channel(), QUBIT_PAIR, sender="right")
        assert rep.strength < 1e-12

    def test_cnot_signals_both_directions(self):
        for sender in ("left", "right"):
            rep = semicausal_defect(cnot_channel(), QUBIT_PAIR, sender=sender)
            np.testing.assert_allclose(rep.strength, np.sqrt(2.0), atol=1e-12)

    def test_product_channel_has_no_defect(self):
        g = RngStream(28).generator()
        u = haar_local_unitary(SystemDims((2, 3)), g)
        c = from_unitary(u, SystemDims((2, 3)))
        part = Bipartition.split(SystemDims((2, 3)), (0,))
        for sender in ("left", "right"):
            assert semicausal_defect(c, part, sender=sender).strength < 1e-12

    def test_depolarizing_has_no_defect(self):
        c = depolarizing_channel(SystemDims((2, 2)), 0.7)
        for sender in ("left", "right"):
            assert semicausal_defect(c, QUBIT_PAIR, sender=sender).strength < 1e-12

    def test_witness_is_valid_and_achieves_strength(self):
        c = cnot_channel()
        rep = semicausal_defect(c, QUBIT_PAIR, sender="left")
        w = rep.witness
        np.testing.assert_allclose(w, w.conj().T, atol=1e-12)
        np.testing.assert_allclose(np.linalg.norm(w), 1.0, atol=1e-12)
        # feed the witness back through the leakage map by hand
        dims = QUBIT_PAIR.dims
        img = c.apply(embed_operator(w, (1,), dims))
        red = img.reshape(2, 2, 2, 2).trace(axis1=0, axis2=2) / 2.0
        leak = img - embed_operator(red, (1,), dims)
        np.testing.assert_allclose(np.linalg.norm(leak), rep.strength, atol=1e-10)

    def test_defect_is_convex_in_the_channel(self):
        g = RngStream(29).generator()
        a = random_kraus_channel(SystemDims((2, 2)), 3, g)
        b = random_kraus_channel(SystemDims((2, 2)), 3, g)
        w = 0.35
        da = semicausal_defect(a, QUBIT_PAIR).strength
        db = semicausal_defect(b, QUBIT_PAIR).strength
        dm = semicausal_defect(mix(a, b, w), QUBIT_PAIR).strength
        assert dm <= w * da + (1 - w) * db + 1e-10

    def test_report_json_is_serializable(self):
        import json

        rep = semicausal_defect(cnot_channel(), QUBIT_PAIR)
        blob = json.dumps(rep.to_json())
        parsed = json.loads(blob)
        assert parsed["direction"] == [[0], [1]]
        np.testing.assert_allclose(parsed["strength"], np.sqrt(2.0), atol=1e-12)

    def test_rejects_bad_sender(self):
        with pytest.raises(ValueError, match="sender"):
            semicausal_defect(cnot_channel(), QUBIT_PAIR, sender="top")

    def test_rejects_dims_mismatch(self):
        with pytest.raises(ValueError, match="dims"):
            semicausal_defect(
                identity_channel(SystemDims((2, 3))), QUBIT_PAIR
            )


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
        for i in range(5):
            u = haar_unitary(4, stream.substream(i))
            approx = nearest_product_unitary(u, QUBIT_PAIR)
            h = np.array(approx.overlap_history)
            assert np.all(np.diff(h) > -1e-12)
            assert approx.converged

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


class TestPerturbationProbe:
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
