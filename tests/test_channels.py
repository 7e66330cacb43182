import json

import numpy as np
import pytest

from qcausal.channels import (
    KrausChannel,
    classical_one_way_channel,
    cnot_channel,
    depolarizing_channel,
    embed_local,
    from_unitary,
    identity_channel,
    kraus_to_choi,
    mix,
    swap_channel,
    zoo,
)
from qcausal.causality import nearest_product_unitary, semicausal_defect
from qcausal.cli import ExperimentConfig, run
from qcausal.sampling import RngStream, haar_unitary, random_kraus_channel
from qcausal.tensor import (
    Bipartition,
    SystemDims,
    embed_operator,
    from_re_im,
    tensor_product,
    to_re_im,
)

from conftest import I2, X, Z


def _rand_op(rng, d):
    return rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))


def _choi_to_kraus(entries, dims):
    """Frozen inverse of ``kraus_to_choi``: a Kraus family from the
    eigendecomposition, eigenvalues at or below 1e-12 dropped."""
    d = dims.total
    evals, evecs = np.linalg.eigh(entries)
    kraus = [
        (np.sqrt(lam) * evecs[:, i]).conj().reshape(d, d)
        for i, lam in enumerate(evals)
        if lam > 1e-12
    ]
    return KrausChannel(kraus, dims)


def _schrodinger(c, rho):
    """Frozen Schroedinger dual sum_i K_i rho K_i^+ of a single channel."""
    ks = c.single()
    return np.einsum("kij,jl,kml->im", ks, np.asarray(rho, dtype=complex), ks.conj())


class TestKrausChannel:
    def test_rejects_non_unital(self):
        with pytest.raises(ValueError, match="unital"):
            KrausChannel([0.5 * np.eye(2)], SystemDims((2,)))
        for bad in (np.nan, np.inf):
            k = np.eye(2, dtype=complex)
            k[0, 1] = bad
            with pytest.raises(ValueError, match="unital"):
                KrausChannel([k], SystemDims((2,)))

    def test_rejects_bad_shape(self):
        with pytest.raises(ValueError, match="shape"):
            KrausChannel([np.eye(3)], SystemDims((2,)))

    def test_stack_checks_every_member(self):
        stack = np.array([[np.eye(2)], [X], [Z]], dtype=complex)  # (3, 1, 2, 2)
        c = KrausChannel(stack, SystemDims((2,)))
        assert c.nkraus == 1
        stack[1, 0] = 0.5 * np.eye(2)
        with pytest.raises(ValueError, match="not unital: deviation 0.75"):
            KrausChannel(stack, SystemDims((2,)))

    def test_stack_applies_member_by_member(self):
        dims = SystemDims((2, 2))
        members = [random_kraus_channel(dims, 3, RngStream(90 + i)) for i in range(4)]
        stack = KrausChannel([m.kraus for m in members], dims)
        ops = np.array([_rand_op(np.random.default_rng(i), 4) for i in range(4)])
        got = stack.apply(ops)
        for m, op, g in zip(members, ops, got):
            assert np.array_equal(g, m.apply(op))

    def test_single_channel_methods_reject_a_stack(self):
        dims = SystemDims((2, 2))
        stack = KrausChannel([cnot_channel().kraus] * 2, dims)
        part = Bipartition.split(dims, (0,))
        for call in (
            stack.to_json,
            lambda: _schrodinger(stack, np.eye(4)),
            lambda: kraus_to_choi(stack),
            lambda: mix(stack, cnot_channel(), 0.5),
            lambda: semicausal_defect(stack, part),
        ):
            with pytest.raises(ValueError, match="single channel"):
                call()

    def test_apply_matches_naive_sum(self, rng):
        c = random_kraus_channel(SystemDims((2, 2)), 3, RngStream(5))
        op = _rand_op(rng, 4)
        naive = sum(k.conj().T @ op @ k for k in c.kraus)
        np.testing.assert_allclose(c.apply(op), naive, atol=1e-12)
        stack = np.array([[_rand_op(rng, 4) for _ in range(3)] for _ in range(2)])
        per_element = [[c.apply(o) for o in row] for row in stack]
        np.testing.assert_allclose(c.apply(stack), per_element, atol=1e-12)

    def test_unitality_fixed_point(self):
        c = random_kraus_channel(SystemDims((2, 3)), 4, RngStream(6))
        np.testing.assert_allclose(c.apply(np.eye(6)), np.eye(6), atol=1e-10)

    def test_schrodinger_dual_trace_preserving(self, rng):
        c = random_kraus_channel(SystemDims((2, 2)), 3, RngStream(7))
        g = _rand_op(rng, 4)
        rho = g @ g.conj().T
        rho /= np.trace(rho).real
        np.testing.assert_allclose(
            np.trace(_schrodinger(c, rho)), 1.0, atol=1e-10
        )

    def test_heisenberg_schrodinger_duality(self, rng):
        c = random_kraus_channel(SystemDims((2, 2)), 2, RngStream(8))
        op = _rand_op(rng, 4)
        rho = _rand_op(rng, 4)
        lhs = np.trace(rho @ c.apply(op))
        rhs = np.trace(_schrodinger(c, rho) @ op)
        np.testing.assert_allclose(lhs, rhs, atol=1e-11)


class TestFromUnitary:
    def test_conjugation(self, rng):
        u = haar_unitary(4, rng)
        c = from_unitary(u, SystemDims((2, 2)))
        op = _rand_op(rng, 4)
        np.testing.assert_allclose(c.apply(op), u.conj().T @ op @ u, atol=1e-12)

    def test_rejects_non_unitary(self):
        with pytest.raises(ValueError, match="unitary"):
            from_unitary(np.diag([1.0, 2.0]), SystemDims((2,)))


class TestEmbedLocal:
    def test_acts_trivially_off_sites(self, rng):
        inner = random_kraus_channel(SystemDims((2,)), 3, RngStream(9))
        d = SystemDims((2, 3))
        c = embed_local(inner, (0,), d)
        for _ in range(5):
            b = _rand_op(rng, 3)
            b = (b + b.conj().T) / 2
            amb = embed_operator(b, (1,), d)
            np.testing.assert_allclose(c.apply(amb), amb, atol=1e-11)

    def test_acts_as_inner_channel_on_its_sites(self, rng):
        inner = random_kraus_channel(SystemDims((2,)), 2, RngStream(10))
        d = SystemDims((2, 2))
        c = embed_local(inner, (1,), d)
        a = _rand_op(rng, 2)
        got = c.apply(np.kron(I2, a))
        np.testing.assert_allclose(got, np.kron(I2, inner.apply(a)), atol=1e-11)

    def test_dims_mismatch(self):
        inner = identity_channel(SystemDims((3,)))
        with pytest.raises(ValueError, match="dims"):
            embed_local(inner, (0,), SystemDims((2, 2)))


class TestChoi:
    def test_identity_channel_choi(self):
        # Maximally entangled projector, unnormalized: trace equals D.
        c = identity_channel(SystemDims((2, 2)))
        j = kraus_to_choi(c)
        omega = np.eye(4).reshape(16)
        np.testing.assert_allclose(j, np.outer(omega, omega), atol=1e-14)
        np.testing.assert_allclose(np.trace(j), 4.0)

    def test_choi_positive_and_marginal(self):
        c = random_kraus_channel(SystemDims((2, 2)), 3, RngStream(11))
        j = kraus_to_choi(c)
        evals = np.linalg.eigvalsh(j)
        assert evals.min() > -1e-12
        marg = np.trace(j.reshape(4, 4, 4, 4), axis1=0, axis2=2)
        np.testing.assert_allclose(marg, np.eye(4), atol=1e-12)

    def test_roundtrip_preserves_action(self, rng):
        for dims in (SystemDims((2, 2)), SystemDims((2, 3))):
            c = random_kraus_channel(dims, 3, RngStream(12))
            back = _choi_to_kraus(kraus_to_choi(c), dims)
            assert back.dims == dims
            op = _rand_op(rng, dims.total)
            np.testing.assert_allclose(back.apply(op), c.apply(op), atol=1e-10)
            # rank can only shrink
            assert back.nkraus <= dims.total**2


class TestMix:
    def test_convexity_of_action(self, rng):
        a = random_kraus_channel(SystemDims((2, 2)), 2, RngStream(13))
        b = random_kraus_channel(SystemDims((2, 2)), 2, RngStream(14))
        m = mix(a, b, 0.3)
        op = _rand_op(rng, 4)
        np.testing.assert_allclose(
            m.apply(op), 0.3 * a.apply(op) + 0.7 * b.apply(op), atol=1e-11
        )
        assert m.nkraus == a.nkraus + b.nkraus

    def test_rejects_bad_weight(self):
        a = identity_channel(SystemDims((2,)))
        with pytest.raises(ValueError, match="weight"):
            mix(a, a, 1.5)

    def test_rejects_dims_mismatch(self):
        with pytest.raises(ValueError, match="dims"):
            mix(identity_channel(SystemDims((2,))), identity_channel(SystemDims((3,))), 0.5)


def _depolarizing_kraus_loop(d, lam):
    """depolarizing_channel's Kraus family with one matrix_power pair per
    operator, frozen as the reference."""
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
    return np.array(kraus)


class TestZoo:
    def test_cnot_action(self):
        c = cnot_channel()
        # CNOT maps 1(x)Z to Z(x)Z under conjugation
        np.testing.assert_allclose(
            c.apply(np.kron(I2, Z)), np.kron(Z, Z), atol=1e-14
        )

    def test_swap_action(self, rng):
        c = swap_channel(3)
        a, b = _rand_op(rng, 3), _rand_op(rng, 3)
        np.testing.assert_allclose(
            c.apply(np.kron(a, b)), np.kron(b, a), atol=1e-12
        )

    def test_depolarizing_action(self, rng):
        d = SystemDims((2, 2))
        lam = 0.35
        c = depolarizing_channel(d, lam)
        op = _rand_op(rng, 4)
        expected = (1 - lam) * op + lam * np.trace(op) / 4 * np.eye(4)
        np.testing.assert_allclose(c.apply(op), expected, atol=1e-12)

    def test_fully_depolarizing(self, rng):
        c = depolarizing_channel(SystemDims((3,)), 1.0)
        op = _rand_op(rng, 3)
        np.testing.assert_allclose(
            c.apply(op), np.trace(op) / 3 * np.eye(3), atol=1e-12
        )

    @pytest.mark.parametrize("dims", [(2, 2), (3, 3), (2, 2, 2), (4, 4)])
    def test_depolarizing_matches_double_loop(self, dims):
        dims = SystemDims(dims)
        got = depolarizing_channel(dims, 0.35).kraus
        want = _depolarizing_kraus_loop(dims.total, 0.35)
        assert got.shape == want.shape
        assert got.tobytes() == want.tobytes()  # sign bits included

    def test_depolarizing_rejects_bad_strength(self):
        with pytest.raises(ValueError, match="strength"):
            depolarizing_channel(SystemDims((2,)), -0.1)

    def test_classical_one_way_kraus(self):
        c = classical_one_way_channel()
        np.testing.assert_allclose(c.kraus[0], tensor_product(np.diag([1.0, 0.0]), I2))
        np.testing.assert_allclose(c.kraus[1], tensor_product(np.diag([0.0, 1.0]), X))

    def test_product_unitary_channel(self, rng):
        u1, u2 = haar_unitary(2, rng), haar_unitary(3, rng)
        c = from_unitary(tensor_product(u1, u2), SystemDims((2, 3)))
        op = _rand_op(rng, 6)
        u = np.kron(u1, u2)
        np.testing.assert_allclose(c.apply(op), u.conj().T @ op @ u, atol=1e-12)

    def test_zoo_dispatch_and_unknown(self):
        d = SystemDims((2, 2))
        assert zoo("cnot").dims == d
        assert zoo("identity", d).nkraus == 1
        assert zoo("local-random", d, rng=RngStream(3).generator()).nkraus == 1
        with pytest.raises(ValueError, match="unknown"):
            zoo("teleport", d)


def _old_encode(m):
    """Frozen copy of the list-comprehension encoder the shared codec replaced."""
    return [[[float(z.real), float(z.imag)] for z in row] for row in np.asarray(m)]


def _old_decode(rows):
    """Frozen copy of the complex(re, im) decoder the shared codec replaced."""
    return np.array(
        [[complex(re, im) for re, im in row] for row in rows], dtype=complex
    )


def _signed_zero_op(rng, d):
    m = _rand_op(rng, d)
    m[0, 0] = complex(-0.0, 0.5)
    m[1, 0] = complex(0.25, -0.0)
    m[-1, -1] = complex(-0.0, -0.0)
    return m


class TestWireFormat:
    def test_roundtrip_bit_exact(self):
        c = random_kraus_channel(SystemDims((2, 3)), 3, RngStream(15))
        back = KrausChannel.from_json(c.to_json())
        assert back.dims == c.dims
        assert np.array_equal(back.kraus, c.kraus)

    def test_json_is_plain_data(self):
        data = cnot_channel().to_json()
        parsed = json.loads(json.dumps(data))
        assert parsed["dims"] == [2, 2]
        assert np.array_equal(
            KrausChannel.from_json(parsed).kraus[0], cnot_channel().kraus[0]
        )

    def test_codec_matches_old_codec(self, rng):
        ints = rng.integers(-3, 4, (5, 5)) + 1j * rng.integers(-3, 4, (5, 5))
        for m in (_rand_op(rng, 4), _signed_zero_op(rng, 6), ints, np.eye(3)):
            text = json.dumps(to_re_im(m))
            assert text == json.dumps(_old_encode(m))
            new, old = from_re_im(json.loads(text)), _old_decode(json.loads(text))
            assert new.tobytes() == old.tobytes()
        int_pairs = rng.integers(-3, 4, (3, 3, 2)).tolist()
        assert from_re_im(int_pairs).tobytes() == _old_decode(int_pairs).tobytes()

    def test_kraus_family_matches_old_codec(self, rng):
        # signed zeros in a non-unital family: the codec alone
        family = np.array([_signed_zero_op(rng, 6) for _ in range(2)])
        text = json.dumps(to_re_im(family))
        assert text == json.dumps([_old_encode(k) for k in family])
        old = np.array([_old_decode(k) for k in json.loads(text)])
        assert from_re_im(json.loads(text)).tobytes() == old.tobytes()
        # a unital family on (2, 3) through to_json / from_json
        c = random_kraus_channel(SystemDims((2, 3)), 3, RngStream(16))
        text = json.dumps(c.to_json())
        assert text == json.dumps(
            {"dims": [2, 3], "kraus": [_old_encode(k) for k in c.kraus]}
        )
        back = KrausChannel.from_json(json.loads(text))
        old = np.array([_old_decode(k) for k in json.loads(text)["kraus"]])
        assert back.kraus.tobytes() == old.tobytes()

    def test_reports_match_old_codec(self, tmp_path):
        part = Bipartition.split(SystemDims((2, 2)), (0,))
        rep = semicausal_defect(classical_one_way_channel(), part)
        assert to_re_im(rep.witness) == _old_encode(rep.witness)
        target = to_re_im(haar_unitary(4, RngStream(17).generator()))
        cfg = {"experiment": "nearest-product", "seed": 1, "dims": [2, 2]}
        report, _ = run(ExperimentConfig.from_dict(dict(cfg, unitary=target)), tmp_path)
        row = report["results"]["rows"][0]
        res = nearest_product_unitary(from_re_im(target), part)
        assert json.dumps(row["u1"]) == json.dumps(_old_encode(res.u1))
        assert json.dumps(row["u2"]) == json.dumps(_old_encode(res.u2))
