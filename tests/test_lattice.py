import numpy as np
import pytest

from qcausal import _kernels
from qcausal.lattice import (
    AffineField,
    BuildOptions,
    LatticeSpec,
    Region,
    TestFunction,
    build_scenario,
    gaussian_square_conjugate,
    pauli_jordan,
    reaches,
    retarded_green,
    signalling_derivative,
    sorkin_chain,
    spacelike,
    triangular_bump,
    weyl_conjugate,
)

LAT = LatticeSpec(n_sites=24, n_steps=12, mass=1.0)


def _delta(t, x):
    return TestFunction({(t, x): 1.0})


def _naive_impulse(n, steps, m):
    """Independent reference: step the recurrence site by site in python."""
    out = np.zeros((steps, n))
    out[1, 0] = 1.0
    for t in range(1, steps - 1):
        for x in range(n):
            out[t + 1, x] = (out[t, (x - 1) % n] + out[t, (x + 1) % n]) / (
                1.0 + m * m / 2.0
            ) - out[t - 1, x]
    return out


class TestGeometry:
    def test_lattice_validation(self):
        with pytest.raises(ValueError, match="sites"):
            LatticeSpec(2, 8)
        with pytest.raises(ValueError, match="steps"):
            LatticeSpec(8, 1)
        with pytest.raises(ValueError, match="mass"):
            LatticeSpec(8, 8, -1.0)

    def test_periodic_distance(self):
        lat = LatticeSpec(10, 4)
        assert lat.distance(1, 9) == 2
        assert lat.distance(0, 5) == 5
        assert lat.distance(3, 3) == 0

    def test_reaches_and_spacelike(self):
        assert reaches(LAT, (2, 5), (5, 7))
        assert not reaches(LAT, (2, 5), (5, 9))
        assert not reaches(LAT, (5, 7), (2, 5))  # no backwards reach
        assert spacelike(LAT, (2, 5), (5, 9))
        assert not spacelike(LAT, (2, 5), (5, 8))  # lightlike edge

    def test_causal_future_hand_count(self):
        lat = LatticeSpec(7, 4)
        fut = Region([(1, 3)]).causal_future(lat).points
        expected = {(1, 3)}
        expected |= {(2, x) for x in (2, 3, 4)}
        expected |= {(3, x) for x in (1, 2, 3, 4, 5)}
        assert set(fut) == expected

    def test_causal_past_mirrors_future(self):
        lat = LatticeSpec(9, 5)
        p, q = (1, 2), (3, 3)
        assert (q in Region([p]).causal_future(lat).points) == (
            p in Region([q]).causal_past(lat).points
        )

    def test_region_spacelike_separated(self):
        a = Region([(2, 0), (2, 1)])
        b = Region([(4, 10), (4, 11)])
        assert a.spacelike_separated(b, LAT)
        assert not a.spacelike_separated(Region([(4, 3)]), LAT)

    def test_region_requires_points(self):
        with pytest.raises(ValueError, match="point"):
            Region([])


class TestTestFunction:
    def test_values_normalized(self):
        f = TestFunction({(np.int64(1), 2.0): 3})
        assert f.values == {(1, 2): 3.0}
        assert f.support == ((1, 2),)

    def test_identity_hashing(self):
        f = _delta(0, 0)
        g = _delta(0, 0)
        assert f != g and {f: 1, g: 2}[f] == 1

    def test_requires_support(self):
        with pytest.raises(ValueError, match="support"):
            TestFunction({})

    def test_triangular_bump_profile(self):
        b = triangular_bump(LAT, (5, 0), 1, 1)
        assert b.values[(5, 0)] == 1.0
        assert b.values[(4, 0)] == 0.5
        assert b.values[(5, 23)] == 0.5  # wraps on the circle
        assert b.values[(4, 1)] == 0.25
        assert len(b.values) == 9

    def test_triangular_bump_window_check(self):
        with pytest.raises(ValueError, match="window"):
            triangular_bump(LAT, (0, 0), 1, 1)


class TestRetardedGreen:
    def test_matches_naive_recurrence(self):
        for m in (0.0, 0.7, 1.0):
            lat = LatticeSpec(11, 8, m)
            got = retarded_green(lat, (0, 0))
            assert np.array_equal(got, _naive_impulse(11, 8, m))

    def test_source_shifting(self):
        g = retarded_green(LAT, (3, 17))
        base = retarded_green(LAT, (0, 0))
        assert np.array_equal(g[3:], np.roll(base[: LAT.n_steps - 3], 17, axis=1))
        assert not g[:4].any() or g[4].any()
        assert not g[:3].any()

    def test_unit_kick_normalization(self):
        for m in (0.0, 1.0, 3.0):
            lat = LatticeSpec(9, 4, m)
            assert retarded_green(lat, (0, 0))[1, 0] == 1.0

    def test_mass_damping_frozen_values(self):
        # one diagonal step after the kick carries 1 / (1 + m^2 / 2)
        for m, want in [(0.0, 1.0), (1.0, 2.0 / 3.0), (2.0, 1.0 / 3.0)]:
            lat = LatticeSpec(9, 4, m)
            assert retarded_green(lat, (0, 0))[2, 1] == want

    def test_exact_cone_and_checkerboard_zeros(self):
        lat = LatticeSpec(17, 9, 1.3)
        g = retarded_green(lat, (2, 4))
        for t in range(lat.n_steps):
            for x in range(lat.n_sites):
                d = lat.distance(x, 4)
                dt = t - 2
                if dt < 1 or d > dt or (dt + d) % 2 == 0:
                    assert g[t, x] == 0.0

    def test_rejects_source_outside_window(self):
        with pytest.raises(ValueError, match="window"):
            retarded_green(LAT, (12, 0))


class TestPauliJordan:
    def test_frozen_adjacent_value(self):
        assert pauli_jordan(LAT, _delta(0, 5), _delta(1, 5)) == -1.0
        assert pauli_jordan(LAT, _delta(1, 5), _delta(0, 5)) == 1.0

    def test_antisymmetry(self):
        rng = np.random.default_rng(60)
        for _ in range(10):
            f = TestFunction(
                {
                    (int(rng.integers(0, 6)), int(rng.integers(0, 24))): float(
                        rng.standard_normal()
                    )
                    for _ in range(4)
                }
            )
            g = TestFunction(
                {
                    (int(rng.integers(0, 12)), int(rng.integers(0, 24))): float(
                        rng.standard_normal()
                    )
                    for _ in range(4)
                }
            )
            a = pauli_jordan(LAT, f, g)
            b = pauli_jordan(LAT, g, f)
            np.testing.assert_allclose(a, -b, atol=1e-12)

    def test_bilinearity(self):
        f1, f2 = _delta(2, 3), _delta(3, 8)
        g = triangular_bump(LAT, (6, 5), 1, 2)
        combo = TestFunction({(2, 3): 2.0, (3, 8): -0.5})
        np.testing.assert_allclose(
            pauli_jordan(LAT, combo, g),
            2.0 * pauli_jordan(LAT, f1, g) - 0.5 * pauli_jordan(LAT, f2, g),
            atol=1e-12,
        )

    def test_spacelike_supports_give_exact_zero(self):
        rng = np.random.default_rng(61)
        found = 0
        for _ in range(200):
            p = (int(rng.integers(0, 12)), int(rng.integers(0, 24)))
            q = (int(rng.integers(0, 12)), int(rng.integers(0, 24)))
            if spacelike(LAT, p, q):
                found += 1
                assert pauli_jordan(LAT, _delta(*p), _delta(*q)) == 0.0
        assert found > 50

    def test_equal_times_commute(self):
        assert pauli_jordan(LAT, _delta(4, 1), _delta(4, 9)) == 0.0
        assert pauli_jordan(LAT, _delta(4, 1), _delta(4, 1)) == 0.0

    def test_rejects_support_outside_window(self):
        with pytest.raises(ValueError, match="window"):
            pauli_jordan(LAT, _delta(0, 0), _delta(20, 0))


class TestConjugation:
    def test_weyl_shifts_scalar_only(self):
        g = _delta(6, 10)
        h = triangular_bump(LAT, (3, 10), 1, 1)
        a = AffineField.phi(LAT, g)
        out = weyl_conjugate(a, h, 0.7)
        assert out.coefficient(g) == 1.0
        assert len(out.linear) == 1
        np.testing.assert_allclose(
            out.expectation, -0.7 * pauli_jordan(LAT, h, g), atol=1e-14
        )

    def test_weyl_commutes_with_spacelike_kick(self):
        out = weyl_conjugate(AffineField.phi(LAT, _delta(5, 0)), _delta(5, 12), 2.0)
        assert out.expectation == 0.0

    def test_gaussian_square_adds_one_term(self):
        g = _delta(7, 10)
        f = triangular_bump(LAT, (4, 10), 1, 1)
        out = gaussian_square_conjugate(AffineField.phi(LAT, g), f, 0.9)
        assert out.scalar == 0.0
        assert out.coefficient(g) == 1.0
        np.testing.assert_allclose(
            out.coefficient(f), -2.0 * 0.9 * pauli_jordan(LAT, f, g), atol=1e-14
        )

    def test_chain_closed_form(self):
        f = triangular_bump(LAT, (5, 8), 1, 4)
        h = triangular_bump(LAT, (2, 2), 1, 1)
        g = triangular_bump(LAT, (8, 14), 1, 1)
        assert g.region().spacelike_separated(h.region(), LAT)
        lam = 1.7
        out = sorkin_chain(LAT, f, g, h, lam)
        dfg = pauli_jordan(LAT, f, g)
        dfh = pauli_jordan(LAT, f, h)
        np.testing.assert_allclose(out.expectation, -2.0 * lam * dfg * dfh, atol=1e-12)
        assert out.coefficient(g) == 1.0
        np.testing.assert_allclose(out.coefficient(f), -2.0 * dfg, atol=1e-12)

    def test_chain_rejects_timelike_probe_pair(self):
        f = triangular_bump(LAT, (5, 8), 1, 1)
        h = triangular_bump(LAT, (2, 8), 1, 1)
        g = triangular_bump(LAT, (8, 8), 1, 1)
        with pytest.raises(ValueError, match="spacelike"):
            sorkin_chain(LAT, f, g, h, 1.0)


class TestSignallingDerivative:
    def _fgh(self):
        f = triangular_bump(LAT, (5, 8), 1, 4)
        h = triangular_bump(LAT, (2, 2), 1, 1)
        g = triangular_bump(LAT, (8, 14), 1, 1)
        return f, g, h

    def test_matches_product_formula_and_is_nonzero(self):
        f, g, h = self._fgh()
        got = signalling_derivative(LAT, f, g, h)
        want = -2.0 * pauli_jordan(LAT, f, g) * pauli_jordan(LAT, f, h)
        np.testing.assert_allclose(got, want, atol=1e-12)
        assert abs(got) > 1e-3

    def test_linear_in_each_probe(self):
        f, g, h = self._fgh()
        g3 = TestFunction({p: 3.0 * v for p, v in g.values.items()})
        h2 = TestFunction({p: -2.0 * v for p, v in h.values.items()})
        base = signalling_derivative(LAT, f, g, h)
        np.testing.assert_allclose(
            signalling_derivative(LAT, f, g3, h), 3.0 * base, atol=1e-12
        )
        np.testing.assert_allclose(
            signalling_derivative(LAT, f, g, h2), -2.0 * base, atol=1e-12
        )

    def test_quadratic_in_the_interaction(self):
        f, g, h = self._fgh()
        f2 = TestFunction({p: 2.0 * v for p, v in f.values.items()})
        np.testing.assert_allclose(
            signalling_derivative(LAT, f2, g, h),
            4.0 * signalling_derivative(LAT, f, g, h),
            atol=1e-12,
        )


class TestBuildScenario:
    def test_wide_interaction_gives_signalling(self):
        lat = LatticeSpec(64, 16, 1.0)
        k = Region([(t, x) for t in (6, 7) for x in range(20, 41)])
        f, g, h = build_scenario(lat, k)
        assert g.region().spacelike_separated(h.region(), lat)
        assert pauli_jordan(lat, h, g) == 0.0
        d = signalling_derivative(lat, f, g, h)
        np.testing.assert_allclose(
            d, -2.0 * pauli_jordan(lat, f, g) * pauli_jordan(lat, f, h), atol=1e-12
        )
        assert abs(d) > 1e-6

    def test_point_interaction_cannot_signal(self):
        lat = LatticeSpec(31, 12, 1.0)
        f, g, h = build_scenario(lat, Region([(5, 15)]))
        assert g.region().spacelike_separated(h.region(), lat)
        assert signalling_derivative(lat, f, g, h) == 0.0

    def test_probe_placement_is_causally_clean(self):
        lat = LatticeSpec(64, 16, 1.0)
        k = Region([(t, x) for t in (6, 7) for x in range(20, 41)])
        f, g, h = build_scenario(lat, k)
        for p in h.support:
            assert not any(reaches(lat, kp, p) for kp in k.points)
        for q in g.support:
            assert not any(reaches(lat, q, kp) for kp in k.points)

    def test_no_room_before(self):
        lat = LatticeSpec(31, 12, 1.0)
        with pytest.raises(ValueError, match="before"):
            build_scenario(lat, Region([(2, 15)]))

    def test_no_room_after(self):
        lat = LatticeSpec(31, 12, 1.0)
        with pytest.raises(ValueError, match="after"):
            build_scenario(lat, Region([(9, 15)]))

    def test_circle_too_small_for_spacelike_probes(self):
        lat = LatticeSpec(9, 12, 1.0)
        with pytest.raises(ValueError, match="spacelike"):
            build_scenario(lat, Region([(5, 4)]))

    def test_interaction_wider_than_half_circle(self):
        lat = LatticeSpec(16, 12, 1.0)
        with pytest.raises(ValueError, match="half the spatial circle"):
            build_scenario(lat, Region([(5, x) for x in range(0, 9)]))

    def test_region_outside_window(self):
        with pytest.raises(ValueError, match="window"):
            build_scenario(LatticeSpec(31, 12), Region([(30, 2)]))

    def test_options_validation(self):
        with pytest.raises(ValueError, match="time_gap"):
            BuildOptions(time_gap=0)
        with pytest.raises(ValueError, match="half-width"):
            BuildOptions(bump_half_t=-1)


class TestKernelPaths:
    def test_numpy_and_loop_paths_agree_bitwise(self):
        # The numpy recurrence against the site-by-site python loop reference.
        for n, steps, m in [(9, 6, 0.0), (17, 12, 1.0), (30, 20, 2.5)]:
            a = _kernels.impulse_response(n, steps, m)
            b = _naive_impulse(n, steps, m)
            assert np.array_equal(a, b)

    def test_dispatcher_matches_reference(self):
        got = _kernels.impulse_response(11, 8, 0.9)
        assert np.array_equal(got, _naive_impulse(11, 8, 0.9))
