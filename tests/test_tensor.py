import numpy as np
import pytest

from qcausal.tensor import (
    Bipartition,
    SystemDims,
    all_bipartitions,
    check_density,
    embed_operator,
    frobenius_inner,
    hermitian_basis,
    hermitian_vector,
    is_hermitian,
    is_unitary,
    partial_trace,
    polar_unitary,
    realign,
    tensor_product,
    trace_norm,
)

from conftest import I2, X, Y, Z


class TestSystemDims:
    def test_basic(self):
        d = SystemDims((2, 3))
        assert d.total == 6
        assert d.nsites == 2
        assert tuple(d) == (2, 3)

    def test_rejects_trivial_site(self):
        with pytest.raises(ValueError):
            SystemDims((2, 1))

    def test_rejects_oversized_total(self):
        with pytest.raises(ValueError):
            SystemDims((2,) * 7)  # 128 > 64

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            SystemDims(())

    def test_rejects_non_integer_dims(self):
        for bad in (5, [None], [[2], 2]):
            with pytest.raises(ValueError, match="list of integers"):
                SystemDims(bad)


class TestBipartition:
    def test_split_and_swap(self):
        d = SystemDims((2, 3, 2))
        p = Bipartition.split(d, (0, 2))
        assert p.left == (0, 2)
        assert p.right == (1,)
        assert p.left_dim == 4
        assert p.right_dim == 3
        q = p.swapped()
        assert q.left == (1,)
        assert q.right == (0, 2)

    def test_rejects_bad_blocks(self):
        d = SystemDims((2, 2))
        with pytest.raises(ValueError):
            Bipartition(d, (0,), (0, 1))
        with pytest.raises(ValueError):
            Bipartition(d, (0, 1), ())
        with pytest.raises(ValueError):
            Bipartition(d, (0,), (2,))

    def test_enumeration_counts(self):
        assert len(all_bipartitions(SystemDims((2, 2)))) == 1
        assert len(all_bipartitions(SystemDims((2, 2, 2)))) == 3
        # each split appears once, with site 0 on the left
        for p in all_bipartitions(SystemDims((2, 2, 2))):
            assert 0 in p.left


class TestTensorProduct:
    def test_matches_kron(self, rng):
        a = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        b = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        np.testing.assert_allclose(tensor_product(a, b), np.kron(a, b))

    def test_three_factors(self):
        out = tensor_product(I2, X, Z)
        assert out.shape == (8, 8)
        np.testing.assert_allclose(out, np.kron(I2, np.kron(X, Z)))


class TestPartialTrace:
    def test_bell_state_reduction(self):
        # Oracle by hand: |Phi+><Phi+| reduces to I/2 on either side.
        bell = np.zeros(4, dtype=complex)
        bell[0] = bell[3] = 1 / np.sqrt(2)
        rho = np.outer(bell, bell.conj())
        d = SystemDims((2, 2))
        np.testing.assert_allclose(partial_trace(rho, d, (1,)), I2 / 2, atol=1e-15)
        np.testing.assert_allclose(partial_trace(rho, d, (0,)), I2 / 2, atol=1e-15)

    def test_product_operator(self, rng):
        a = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        b = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        d = SystemDims((2, 3))
        np.testing.assert_allclose(
            partial_trace(np.kron(a, b), d, (1,)), np.trace(b) * a, atol=1e-12
        )
        np.testing.assert_allclose(
            partial_trace(np.kron(a, b), d, (0,)), np.trace(a) * b, atol=1e-12
        )

    def test_middle_site_of_three(self, rng):
        mats = [rng.standard_normal((2, 2)) + 0j for _ in range(3)]
        d = SystemDims((2, 2, 2))
        got = partial_trace(tensor_product(*mats), d, (1,))
        np.testing.assert_allclose(got, np.trace(mats[1]) * np.kron(mats[0], mats[2]))

    def test_full_trace(self, rng):
        op = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        d = SystemDims((2, 2))
        got = partial_trace(op, d, (0, 1))
        np.testing.assert_allclose(got[0, 0], np.trace(op))

    def test_invalid_site(self):
        with pytest.raises(ValueError):
            partial_trace(np.eye(4), SystemDims((2, 2)), (2,))
        with pytest.raises(ValueError):
            partial_trace(np.eye(3), SystemDims((2, 2)), (0,))


class TestEmbedOperator:
    def test_single_site(self):
        d = SystemDims((2, 2))
        np.testing.assert_allclose(embed_operator(Z, (1,), d), np.kron(I2, Z))
        np.testing.assert_allclose(embed_operator(Z, (0,), d), np.kron(Z, I2))

    def test_permuted_sites(self, rng):
        # op given with factors in order (site 1, site 0)
        a = rng.standard_normal((2, 2)) + 0j  # acts on site 1
        b = rng.standard_normal((3, 3)) + 0j  # acts on site 0
        d = SystemDims((3, 2))
        got = embed_operator(np.kron(a, b), (1, 0), d)
        np.testing.assert_allclose(got, np.kron(b, a), atol=1e-13)

    def test_outer_sites_of_three(self, rng):
        a = rng.standard_normal((2, 2)) + 0j
        c = rng.standard_normal((2, 2)) + 0j
        d = SystemDims((2, 2, 2))
        got = embed_operator(np.kron(a, c), (0, 2), d)
        np.testing.assert_allclose(got, np.kron(a, np.kron(I2, c)), atol=1e-13)

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            embed_operator(np.eye(3), (0,), SystemDims((2, 2)))


def _realign_oracle(op, dl, dr):
    """Index-by-index realignment, independent of the library routine."""
    out = np.zeros((dl * dl, dr * dr), dtype=complex)
    for i in range(dl):
        for ip in range(dl):
            for j in range(dr):
                for jp in range(dr):
                    out[i * dl + ip, j * dr + jp] = op[i * dr + j, ip * dr + jp]
    return out


class TestRealign:
    @pytest.mark.parametrize("dl,dr", [(2, 2), (2, 3), (3, 2)])
    def test_matches_index_oracle(self, rng, dl, dr):
        op = rng.standard_normal((dl * dr,) * 2) + 1j * rng.standard_normal(
            (dl * dr,) * 2
        )
        part = Bipartition.split(SystemDims((dl, dr)), (0,))
        np.testing.assert_allclose(realign(op, part), _realign_oracle(op, dl, dr))

    def test_product_realigns_to_rank_one(self, rng):
        a = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        b = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        part = Bipartition.split(SystemDims((2, 3)), (0,))
        r = realign(np.kron(a, b), part)
        np.testing.assert_allclose(r, np.outer(a.ravel(), b.ravel()), atol=1e-13)
        assert np.linalg.matrix_rank(r, tol=1e-10) == 1

    def test_noncontiguous_blocks(self, rng):
        # grouping sites (0, 2) against site 1 must realign the permuted kron
        a = rng.standard_normal((4, 4)) + 0j  # on sites (0, 2)
        b = rng.standard_normal((2, 2)) + 0j  # on site 1
        d = SystemDims((2, 2, 2))
        op = embed_operator(a, (0, 2), d) @ embed_operator(b, (1,), d)
        part = Bipartition(d, (0, 2), (1,))
        r = realign(op, part)
        np.testing.assert_allclose(r, np.outer(a.ravel(), b.ravel()), atol=1e-12)


class TestPolarUnitary:
    def test_sign_matrix(self):
        # SVD of diag(3, -2) leaves the unitary factor diag(1, -1).
        np.testing.assert_allclose(
            polar_unitary(np.diag([3.0, -2.0])), np.diag([1.0, -1.0]), atol=1e-14
        )

    def test_output_unitary(self, rng):
        for _ in range(20):
            m = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
            u = polar_unitary(m)
            assert is_unitary(u, 1e-12)

    def test_singular_input_still_unitary(self):
        m = np.zeros((3, 3))
        m[0, 0] = 2.0
        assert is_unitary(polar_unitary(m), 1e-12)
        assert is_unitary(polar_unitary(np.zeros((2, 2))), 1e-12)

    def test_maximizes_real_trace_overlap(self, rng):
        m = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        u = polar_unitary(m)
        best = np.trace(u.conj().T @ m).real
        for _ in range(100):
            z = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
            q, r = np.linalg.qr(z)
            v = q * (np.diagonal(r) / np.abs(np.diagonal(r)))
            assert np.trace(v.conj().T @ m).real <= best + 1e-10


class TestHermitianBasis:
    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_orthonormal_hermitian_complete(self, d):
        basis = hermitian_basis(d)
        assert basis.shape == (d * d, d, d)
        for b in basis:
            assert is_hermitian(b, 1e-14)
        gram = np.einsum("aij,bij->ab", basis.conj(), basis)
        np.testing.assert_allclose(gram, np.eye(d * d), atol=1e-13)

    def test_expansion_reconstructs(self, rng):
        h = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        h = (h + h.conj().T) / 2
        basis = hermitian_basis(3)
        coeffs = np.einsum("aij,ij->a", basis.conj(), h)
        np.testing.assert_allclose(coeffs.imag, 0, atol=1e-13)
        np.testing.assert_allclose(np.tensordot(coeffs, basis, axes=1), h, atol=1e-13)


class TestSmallHelpers:
    def test_hermitian_vector_isometry(self, rng):
        h = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        h = (h + h.conj().T) / 2
        v = hermitian_vector(h)
        assert v.shape == (16,)
        np.testing.assert_allclose(np.linalg.norm(v), np.linalg.norm(h), rtol=1e-13)

    def test_frobenius_inner(self, rng):
        a = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        b = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        np.testing.assert_allclose(frobenius_inner(a, b), np.trace(a.conj().T @ b))

    def test_trace_norm(self, rng):
        m = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        np.testing.assert_allclose(
            trace_norm(m), np.linalg.svd(m, compute_uv=False).sum()
        )

    def test_is_unitary(self):
        assert is_unitary(np.eye(3))
        assert is_unitary(X)
        assert not is_unitary(np.diag([1.0, 2.0]))
        assert not is_unitary(np.ones((2, 3)))

    def test_is_hermitian(self):
        assert is_hermitian(Y)
        assert not is_hermitian(X + 1j * np.eye(2))
        assert not is_hermitian(np.array([[0.0, 1.0], [0.0, 0.0]]))


class TestCheckDensity:
    def test_accepts_valid(self, rng):
        g = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        rho = g @ g.conj().T
        rho /= np.trace(rho).real
        check_density(rho)

    def test_rejects_bad_trace(self):
        with pytest.raises(ValueError, match="trace"):
            check_density(np.eye(2))

    def test_rejects_non_hermitian(self):
        m = np.array([[0.5, 0.5], [0.0, 0.5]])
        with pytest.raises(ValueError, match="Hermitian"):
            check_density(m)

    def test_rejects_negative_eigenvalue(self):
        with pytest.raises(ValueError, match="negative"):
            check_density(np.diag([1.5, -0.5]))
