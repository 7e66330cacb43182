import itertools
import tracemalloc

import numpy as np
import pytest

from qcausal.sampling import haar_unitary
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
    trace_norm,
)

from conftest import _REFERENCE_DIMS, I2, X, Y, Z


class TestSystemDims:
    def test_basic(self):
        d = SystemDims((2, 3))
        assert d.total == 6
        assert d.nsites == 2
        assert d.dims == (2, 3)

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
        for bad in (5, [None], [[2], 2], ["2", 2], [2.9, 2]):
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
        # a (2, 3, 8, 8) stack traces element by element
        stack = rng.standard_normal((2, 3, 8, 8)) + 1j * rng.standard_normal((2, 3, 8, 8))
        for sites in [(1,), (0, 2), ()]:
            per_element = [[partial_trace(op, d, sites) for op in row] for row in stack]
            np.testing.assert_array_equal(partial_trace(stack, d, sites), per_element)

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

    def test_repeated_site(self):
        with pytest.raises(ValueError, match=r"repeated site index in \(1, 1\)"):
            partial_trace(np.eye(8), SystemDims((2, 2, 2)), (1, 1))


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
        # a (2, 3, 4, 4) stack embeds element by element
        stack = rng.standard_normal((2, 3, 4, 4)) + 1j * rng.standard_normal((2, 3, 4, 4))
        for sites in [(0, 2), (2, 0)]:
            per_element = [[embed_operator(op, sites, d) for op in row] for row in stack]
            np.testing.assert_array_equal(embed_operator(stack, sites, d), per_element)

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            embed_operator(np.eye(3), (0,), SystemDims((2, 2)))

    def test_repeated_site(self):
        with pytest.raises(ValueError, match=r"repeated site index in \(0, 0\)"):
            embed_operator(np.eye(4), (0, 0), SystemDims((2, 2)))


def _embed_kron_reference(op, sites, dims):
    """Frozen kron-then-permute embedding that the einsum form replaced."""
    op = np.asarray(op, dtype=complex)
    d = dims.dims
    rest = tuple(s for s in range(dims.nsites) if s not in sites)
    lead = op.shape[:-2]
    full = np.kron(op, np.eye(dims.block_dim(rest), dtype=complex))
    order = tuple(sites) + rest
    n, k = dims.nsites, len(lead)
    shaped = full.reshape(lead + tuple(d[s] for s in order) * 2)
    inv = [k + i for i in np.argsort(order)]
    shaped = shaped.transpose(list(range(k)) + inv + [n + i for i in inv])
    return np.ascontiguousarray(shaped.reshape(lead + (dims.total, dims.total)))


def _realign_two_stage_reference(op, part):
    """Frozen two-stage realignment that the single leg transpose replaced."""
    d, n = part.dims.dims, part.dims.nsites
    order = part.left + part.right
    shaped = np.asarray(op).reshape(list(d) * 2)
    shaped = shaped.transpose(list(order) + [n + s for s in order])
    dl, dr = part.left_dim, part.right_dim
    blocked = shaped.reshape(dl, dr, dl, dr).transpose(0, 2, 1, 3)
    return np.ascontiguousarray(blocked.reshape(dl * dl, dr * dr))


def _site_choices(n):
    """Single, partial, unsorted and all-site selections of ``n`` sites."""
    choices = {(0,), (n - 1,), tuple(range(n)), tuple(reversed(range(n)))}
    if n > 2:
        choices |= {(0, n - 1), (n - 1, 1), (n - 1, 0, 1)}
    return sorted(choices)


class TestReferenceForms:
    @pytest.mark.parametrize("dims", _REFERENCE_DIMS)
    @pytest.mark.parametrize("lead", [(), (2, 3)])
    def test_embed_matches_kron_form(self, rng, dims, lead):
        dims = SystemDims(dims)
        for sites in _site_choices(dims.nsites):
            ds = dims.block_dim(sites)
            op = rng.standard_normal(lead + (ds, ds)) + 1j * rng.standard_normal(
                lead + (ds, ds)
            )
            got = embed_operator(op, sites, dims)
            assert got.flags.c_contiguous
            assert np.array_equal(got, _embed_kron_reference(op, sites, dims))

    @pytest.mark.parametrize("dims", _REFERENCE_DIMS)
    def test_realign_matches_two_stage_form(self, rng, dims):
        # a (2, 3) stack realigns each element as the frozen form does alone
        dims = SystemDims(dims)
        d = dims.total
        for lead in [(), (2, 3)]:
            op = rng.standard_normal(lead + (d, d)) + 1j * rng.standard_normal(
                lead + (d, d)
            )
            for k in range(1, dims.nsites):
                for left in itertools.combinations(range(dims.nsites), k):
                    part = Bipartition.split(dims, left)
                    got = realign(op, part)
                    assert got.flags.c_contiguous
                    assert got.shape == lead + (
                        part.left_dim**2,
                        part.right_dim**2,
                    )
                    for idx in np.ndindex(lead):
                        ref = _realign_two_stage_reference(op[idx], part)
                        assert np.array_equal(got[idx], ref)

    @pytest.mark.parametrize("dims", _REFERENCE_DIMS)
    def test_embed_is_adjoint_of_partial_trace(self, rng, dims):
        # tr(embed(A)^+ B) == tr(A^+ tr_rest(B)), sites kept in ascending order
        dims = SystemDims(dims)
        d = dims.total
        b = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        for sites in _site_choices(dims.nsites):
            sites = tuple(sorted(sites))
            rest = [s for s in range(dims.nsites) if s not in sites]
            ds = dims.block_dim(sites)
            a = rng.standard_normal((ds, ds)) + 1j * rng.standard_normal((ds, ds))
            lhs = np.vdot(embed_operator(a, sites, dims), b)
            rhs = np.vdot(a, partial_trace(b, dims, rest))
            assert abs(lhs - rhs) <= 1e-12 * d * np.abs(b).max() * np.abs(a).max()


def _frozen_realign(op, part):
    """The leg transpose that ``realign`` wrote out before it went through
    ``_in_order``."""
    n = part.dims.nsites
    lead = op.shape[:-2]
    k = len(lead)
    legs = [*part.left, *(n + s for s in part.left)]
    legs += [*part.right, *(n + s for s in part.right)]
    shaped = op.reshape(lead + part.dims.dims * 2)
    shaped = shaped.transpose([*range(k), *(k + leg for leg in legs)])
    return shaped.reshape(lead + (part.left_dim**2, part.right_dim**2))


@pytest.mark.parametrize("dims", [(2, 3, 2), (2, 2, 2, 2), (3, 2, 2), (2, 4, 2), (8, 8)])
def test_realign_is_the_frozen_transpose(rng, dims):
    # every oriented bipartition, on one operator and on stacks
    dims = SystemDims(dims)
    d = dims.total
    ops = rng.standard_normal((2, 3, d, d)) + 1j * rng.standard_normal((2, 3, d, d))
    for k in range(1, dims.nsites):
        for left in itertools.combinations(range(dims.nsites), k):
            part = Bipartition.split(dims, left)
            for op in (ops[0, 0], ops[0], ops):
                got, want = realign(op, part), _frozen_realign(op, part)
                assert got.shape == want.shape and got.flags.c_contiguous
                assert got.tobytes() == want.tobytes()


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

    @pytest.mark.parametrize("left", [(0, 2, 4), (0, 1, 2)])
    def test_one_copy_of_the_stack(self, left):
        # a left block that is not a prefix of the sites is copied once, as a
        # prefix is: two copies of a 16 x 64 x 64 stack would peak at 2 MiB
        dims = SystemDims((2,) * 6)
        ops = np.zeros((16, 64, 64), dtype=complex)
        part = Bipartition.split(dims, left)
        tracemalloc.start()
        try:
            out = realign(ops, part)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert out.nbytes == ops.nbytes
        assert ops.nbytes <= peak <= 1.25 * ops.nbytes


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
            np.testing.assert_allclose(u.conj().T @ u, np.eye(4), rtol=0, atol=1e-12)

    def test_singular_input_still_unitary(self):
        m = np.zeros((3, 3))
        m[0, 0] = 2.0
        for u in (polar_unitary(m), polar_unitary(np.zeros((2, 2)))):
            np.testing.assert_allclose(u.conj().T @ u, np.eye(len(u)), rtol=0, atol=1e-12)

    def test_stack_matches_each_element(self, rng):
        m = rng.standard_normal((2, 3, 4, 4)) + 1j * rng.standard_normal((2, 3, 4, 4))
        got = polar_unitary(m)
        assert got.shape == m.shape
        for idx in np.ndindex(2, 3):
            assert np.array_equal(got[idx], polar_unitary(m[idx]))

    def test_maximizes_real_trace_overlap(self, rng):
        m = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        u = polar_unitary(m)
        best = np.trace(u.conj().T @ m).real
        for _ in range(100):
            z = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
            q, r = np.linalg.qr(z)
            v = q * (np.diagonal(r) / np.abs(np.diagonal(r)))
            assert np.trace(v.conj().T @ m).real <= best + 1e-10


def _hermitian_basis_loop(d):
    """hermitian_basis as built element by element, frozen as the reference."""
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


class TestHermitianBasis:
    @pytest.mark.parametrize("d", [1, 2, 3, 4, 7, 16, 32])
    def test_matches_loop_builder_bit_for_bit(self, d):
        got, want = hermitian_basis(d), _hermitian_basis_loop(d)
        assert got.shape == want.shape and got.dtype == want.dtype
        # tobytes compares sign bits too, so -0.0 against 0.0 fails
        assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_orthonormal_hermitian_complete(self, d):
        basis = hermitian_basis(d)
        assert basis.shape == (d * d, d, d)
        np.testing.assert_allclose(basis, basis.conj().swapaxes(-1, -2), rtol=0, atol=1e-14)
        gram = np.einsum("aij,bij->ab", basis.conj(), basis)
        np.testing.assert_allclose(gram, np.eye(d * d), atol=1e-13)

    def test_refuses_dimension_zero(self):
        with pytest.raises(ValueError, match="dimension must be positive"):
            hermitian_basis(0)

    def test_expansion_reconstructs(self, rng):
        h = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        h = (h + h.conj().T) / 2
        basis = hermitian_basis(3)
        coeffs = np.einsum("aij,ij->a", basis.conj(), h)
        np.testing.assert_allclose(coeffs.imag, 0, atol=1e-13)
        np.testing.assert_allclose(np.tensordot(coeffs, basis, axes=1), h, atol=1e-13)


class TestSmallHelpers:
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
        # one matrix, not a stack: only the (0, 0) matrix is empty
        assert is_unitary(np.zeros((0, 0)))
        assert not is_unitary(np.eye(4)[None])
        assert not is_unitary(np.zeros((0, 4, 4)))

    def test_is_hermitian(self):
        assert is_hermitian(Y)
        assert not is_hermitian(X + 1j * np.eye(2))
        assert not is_hermitian(np.array([[0.0, 1.0], [0.0, 0.0]]))

    def test_is_hermitian_checks_every_member_of_a_stack(self):
        stack = np.array([Y, Z, X, Y])
        assert is_hermitian(stack)
        stack[2] = X + 1j * np.eye(2)
        assert not is_hermitian(stack)
        assert not is_hermitian(np.zeros((3, 2, 4)))
        assert not is_hermitian(np.zeros(4))


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

    def test_stack_rejects_one_bad_member(self):
        good = np.array([np.diag([0.25, 0.75])] * 4, dtype=complex)
        assert np.array_equal(check_density(good), good)
        for bad, match in (
            (np.diag([1.0, 1.0]), "trace 2\\+0j, not 1"),
            (np.array([[0.5, 0.5], [0.0, 0.5]]), "not Hermitian"),
            (np.diag([1.5, -0.5]), "negative eigenvalue -0.5"),
        ):
            stack = good.copy()
            stack[2] = bad
            with pytest.raises(ValueError, match=match):
                check_density(stack)

    def test_valid_states_need_no_eigensolve(self, rng, monkeypatch):
        g = rng.standard_normal((5, 4, 4)) + 1j * rng.standard_normal((5, 4, 4))
        wishart = g @ g.conj().swapaxes(-1, -2)
        wishart /= np.trace(wishart, axis1=-2, axis2=-1).real[:, None, None]
        psi = rng.standard_normal(6) + 1j * rng.standard_normal(6)
        psi /= np.linalg.norm(psi)
        pure = np.outer(psi, psi.conj())

        def refuse(*args, **kwargs):
            raise AssertionError("eigvalsh called")

        monkeypatch.setattr(np.linalg, "eigvalsh", refuse)
        for rho in (wishart, pure, wishart[3]):
            assert np.array_equal(check_density(rho), rho)

    @staticmethod
    def _rotated_state(lowest, rng):
        # eigenvalues (lowest, 0.2, 0.3, 0.5 - lowest) in a Haar-random basis
        u = haar_unitary(4, rng)
        rho = (u * [lowest, 0.2, 0.3, 0.5 - lowest]) @ u.conj().T
        return (rho + rho.conj().T) / 2

    def test_slightly_negative_state_passes_through_the_eigensolve(self, rng, monkeypatch):
        rho = self._rotated_state(-0.7 * DEFAULT_TOL, rng)
        calls = []
        eigvalsh = np.linalg.eigvalsh

        def spy(a, *args, **kwargs):
            calls.append(np.shape(a))
            return eigvalsh(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "eigvalsh", spy)
        assert np.array_equal(check_density(rho), rho)
        assert calls == [(4, 4)]

    def test_negative_state_beyond_the_tolerance_is_refused(self, rng):
        rho = self._rotated_state(-1.5 * DEFAULT_TOL, rng)
        with pytest.raises(ValueError, match="negative eigenvalue -1.5e-10"):
            check_density(rho)
