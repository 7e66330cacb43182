import itertools

import numpy as np
import pytest

from qcausal import _kernels, lattice
from qcausal.lattice import (
    _base_table,
    _first_outside,
    _int_array,
    AffineField,
    BuildOptions,
    LatticeSpec,
    Region,
    TestFunction,
    build_scenario,
    gaussian_square_conjugate,
    pauli_jordan,
    signalling_derivative,
    sorkin_chain,
    spacelike,
    triangular_bump,
    weyl_conjugate,
)

LAT = LatticeSpec(n_sites=24, n_steps=12, mass=1.0)


def _delta(t, x):
    return TestFunction({(t, x): 1.0})


def _reaches(lattice, p, q):
    """Frozen point form of the forward cone: q in the cone of p (inclusive)."""
    dt = q[0] - p[0]
    return dt >= 0 and lattice.distance(p[1], q[1]) <= dt


def _in_window(lattice, point):
    t, x = point
    return 0 <= t < lattice.n_steps and 0 <= x < lattice.n_sites


def _retarded_green(lattice, src):
    """Frozen full-window Green table: the field history (n_steps, n_sites)
    of a unit momentum kick at ``src``, the impulse table rolled to it."""
    t0, x0 = src
    base = _base_table(lattice.n_sites, lattice.n_steps, lattice.mass)
    out = np.zeros_like(base)
    out[t0:] = np.roll(base[: lattice.n_steps - t0], x0, axis=1)
    return out


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


def _roll_impulse(n, steps, m):
    """Frozen form of the kernel: one whole-row ``np.roll`` update per step."""
    g = np.zeros((steps, n))
    if steps > 1:
        g[1, 0] = 1.0
    denom = 1.0 + 0.5 * m * m
    for t in range(2, steps):
        prev = g[t - 1]
        g[t] = (np.roll(prev, 1) + np.roll(prev, -1)) / denom - g[t - 2]
    return g


def _loop_pauli_jordan(lattice, f, g):
    """Frozen form of ``pauli_jordan``: the pair loop over the full table."""
    for tf, name in ((f, "f"), (g, "g")):
        for p in tf.support:
            if not _in_window(lattice, p):
                raise ValueError(f"support point {p} of {name} outside the window")
    table = _roll_impulse(lattice.n_sites, lattice.n_steps, lattice.mass)
    n = lattice.n_sites
    total = 0.0
    for (tp, xp), fv in f.values.items():
        for (tq, xq), gv in g.values.items():
            dt = tp - tq
            if dt > 0:
                total += fv * gv * table[dt, (xp - xq) % n]
            elif dt < 0:
                total -= fv * gv * table[-dt, (xq - xp) % n]
    return total


def _frozen_build_scenario(lattice_, k, opts=None):
    """Frozen form of ``build_scenario``: K and the probe supports go through
    Python lists, and f's weights through the scalar formula."""
    opts = opts or BuildOptions()
    p = _first_outside(lattice_, *_int_array(k.points).T)
    if p is not None:
        raise ValueError(f"region point {p} outside the lattice window")
    ts = [t for t, _ in k.points]
    xs = [x for _, x in k.points]
    t0k, t1k = min(ts), max(ts)
    x0k, x1k = min(xs), max(xs)
    if x1k - x0k >= lattice_.n_sites // 2:
        raise ValueError(
            "region K must fit within half the spatial circle "
            "(as given, without wraparound)"
        )
    tc, xc = 0.5 * (t0k + t1k), 0.5 * (x0k + x1k)
    ht, hx = 0.5 * (t1k - t0k), 0.5 * (x1k - x0k)
    f = TestFunction(
        {
            (t, x): (1.0 - abs(t - tc) / (ht + 1.0)) * (1.0 - abs(x - xc) / (hx + 1.0))
            for t, x in k.points
        }
    )
    th = t0k - opts.time_gap - opts.bump_half_t
    tg = t1k + opts.time_gap + opts.bump_half_t
    if th - opts.bump_half_t < 0:
        raise ValueError(
            "window cannot accommodate the arrangement: no room before K for h"
        )
    if tg + opts.bump_half_t > lattice_.n_steps - 1:
        raise ValueError(
            "window cannot accommodate the arrangement: no room after K for g"
        )
    xh, xg = x0k, x1k
    while True:
        if (xg - xh) > lattice_.n_sites // 2:
            raise ValueError(
                "window cannot accommodate the arrangement: h and g cannot be "
                "made spacelike separated on this circle"
            )
        h = triangular_bump(lattice_, (th, xh), opts.bump_half_t, opts.bump_half_x)
        g = triangular_bump(lattice_, (tg, xg), opts.bump_half_t, opts.bump_half_x)
        if lattice._spacelike_supports(lattice_, g, h):
            break
        xh -= 1
        xg += 1
    support = list(f.support) + list(g.support) + list(h.support)
    t_extent = max(t for t, _ in support) - min(t for t, _ in support)
    if t_extent >= lattice_.n_sites / 2:
        raise ValueError(
            "scenario time extent is long enough for signals to wrap around "
            "the spatial circle; enlarge n_sites or tighten the geometry"
        )
    if any(_reaches(lattice_, p, q) for p in k.points for q in h.support):
        raise ValueError("internal geometry error: h intersects the future of K")
    if any(_reaches(lattice_, q, p) for q in g.support for p in k.points):
        raise ValueError("internal geometry error: g intersects the past of K")
    return f, g, h


def _random_points(rng, lat, n):
    return [
        (int(rng.integers(0, lat.n_steps)), int(rng.integers(0, lat.n_sites)))
        for _ in range(n)
    ]


class TestGeometry:
    def test_lattice_validation(self):
        with pytest.raises(ValueError, match="sites"):
            LatticeSpec(2, 8)
        with pytest.raises(ValueError, match="steps"):
            LatticeSpec(8, 1)
        with pytest.raises(ValueError, match="mass"):
            LatticeSpec(8, 8, -1.0)

    def test_n_sites_fits_int64(self):
        # site arithmetic runs in int64: a wider circle overflowed in
        # _separations with a traceback instead of a refusal
        assert LatticeSpec(2**63 - 1, 8).n_sites == 2**63 - 1
        with pytest.raises(ValueError, match="n_sites must be at most 2\\*\\*63 - 1"):
            LatticeSpec(2**63, 8)

    def test_n_steps_fits_int64(self):
        # a longer window let K past int64 into pauli_jordan as object-dtype
        # indices, which ended in an IndexError traceback
        assert LatticeSpec(8, 2**63 - 1).n_steps == 2**63 - 1
        with pytest.raises(ValueError, match="n_steps must be at most 2\\*\\*63 - 1"):
            LatticeSpec(8, 2**63)

    @pytest.mark.parametrize("mass", [float("nan"), float("inf"), -float("inf")])
    def test_mass_must_be_finite(self, mass):
        # nan would make every Delta nan, inf an all-zero table: no signalling
        with pytest.raises(ValueError, match="mass must be finite"):
            LatticeSpec(8, 8, mass)

    def test_periodic_distance(self):
        lat = LatticeSpec(10, 4)
        assert lat.distance(1, 9) == 2
        assert lat.distance(0, 5) == 5
        assert lat.distance(3, 3) == 0

    def test_reaches_and_spacelike(self):
        assert _reaches(LAT, (2, 5), (5, 7))
        assert not _reaches(LAT, (2, 5), (5, 9))
        assert not _reaches(LAT, (5, 7), (2, 5))  # no backwards reach
        assert spacelike(LAT, (2, 5), (5, 9))
        assert not spacelike(LAT, (2, 5), (5, 8))  # lightlike edge

    def test_causal_future_hand_count(self):
        lat = LatticeSpec(7, 4)
        window = itertools.product(range(lat.n_steps), range(lat.n_sites))
        fut = [q for q in window if _reaches(lat, (1, 3), q)]
        expected = {(1, 3)}
        expected |= {(2, x) for x in (2, 3, 4)}
        expected |= {(3, x) for x in (1, 2, 3, 4, 5)}
        assert set(fut) == expected

    def test_causal_past_mirrors_future(self):
        # time reversal turns the past cone of q into a future cone
        lat = LatticeSpec(9, 5)
        window = list(itertools.product(range(lat.n_steps), range(lat.n_sites)))
        hits = 0
        for p, q in itertools.product(window, repeat=2):
            future = _reaches(lat, p, q)
            past = _reaches(lat, (-q[0], q[1]), (-p[0], p[1]))
            assert future == past
            hits += future
        assert 0 < hits < len(window) ** 2

    def test_region_spacelike_separated(self):
        a = Region([(2, 0), (2, 1)])
        b = Region([(4, 10), (4, 11)])
        assert a.spacelike_separated(b, LAT)
        assert not a.spacelike_separated(Region([(4, 3)]), LAT)

    def test_array_forms_match_pair_loops(self):
        # small circles, so that many pairs are closest across the wrap
        rng = np.random.default_rng(62)
        verdicts = set()
        for _ in range(300):
            lat = LatticeSpec(int(rng.integers(3, 12)), int(rng.integers(2, 9)))
            a = Region(_random_points(rng, lat, int(rng.integers(1, 5))))
            b = Region(_random_points(rng, lat, int(rng.integers(1, 5))))
            sep = a.spacelike_separated(b, lat)
            assert type(sep) is bool
            assert sep == all(spacelike(lat, p, q) for p in a.points for q in b.points)
            hit = any(_reaches(lat, p, q) for p in a.points for q in b.points)
            verdicts.add((sep, hit))
        assert verdicts == {(True, False), (False, True), (False, False)}

    def test_region_requires_points(self):
        with pytest.raises(ValueError, match="point"):
            Region([])

    def test_region_holds_each_point_once_in_order(self):
        r = Region([(6, 21), (6, 20), (5, 30), (6, 21)])
        assert r.points == ((5, 30), (6, 20), (6, 21))
        assert r.ts.tolist() == [5, 6, 6] and r.xs.tolist() == [30, 20, 21]
        assert not r.ts.flags.writeable and not r.xs.flags.writeable


class TestTestFunction:
    def test_values_normalized(self):
        f = TestFunction({(np.int64(1), 2): 3})
        assert f.values == {(1, 2): 3.0}
        assert all(type(c) is int for c in next(iter(f.values)))
        assert f.support == ((1, 2),)

    @pytest.mark.parametrize("point", [(1.5, 2), (1, 2.0), ("3", 2), (np.float64(1), 2)])
    def test_non_integer_coordinates_refused(self, point):
        # int() would truncate 1.5 to 1 and parse "3" as 3
        with pytest.raises(ValueError, match="lattice coordinates must be integers"):
            TestFunction({point: 1.0})
        with pytest.raises(ValueError, match="lattice coordinates must be integers"):
            Region([(0, 0), point])
        with pytest.raises(ValueError, match="lattice coordinates must be integers"):
            triangular_bump(LAT, point, 1, 1)

    def test_integer_coordinates_kept_exactly(self):
        r = Region([(np.int64(3), np.int32(2)), (10**23, 0)])
        assert r.points == ((3, 2), (10**23, 0))
        assert all(type(c) is int for p in r.points for c in p)
        assert r.ts.dtype == object and r.ts.tolist() == [3, 10**23]
        f = TestFunction({(10**23, np.int64(-1)): 2.0})
        assert f.values == {(10**23, -1): 2.0} and f.bounds == (10**23, 10**23, -1, -1)

    def test_values_are_read_only(self):
        # the pauli_jordan memo and the weights array assume they never change
        f = triangular_bump(LAT, (5, 0), 1, 1)
        with pytest.raises(TypeError):
            f.values[(5, 0)] = 100.0
        assert f.values[(5, 0)] == 1.0

    def test_identity_hashing(self):
        f = _delta(0, 0)
        g = _delta(0, 0)
        assert f != g and {f: 1, g: 2}[f] == 1

    def test_requires_support(self):
        with pytest.raises(ValueError, match="support"):
            TestFunction({})

    def test_bounds_box_the_support(self):
        f = TestFunction({(3, -2): 1.0, (7, 5): 2.0, (-1, 4): 0.5, (10**23, 0): 1.0})
        assert f.bounds == (-1, 10**23, -2, 5)
        assert all(type(v) is int for v in f.bounds)

    def test_triangular_bump_profile(self):
        b = triangular_bump(LAT, (5, 0), 1, 1)
        assert b.values[(5, 0)] == 1.0
        assert b.values[(4, 0)] == 0.5
        assert b.values[(5, 23)] == 0.5  # wraps on the circle
        assert b.values[(4, 1)] == 0.25
        assert len(b.values) == 9

    @pytest.mark.parametrize(
        "center, half_t, half_x", [((5, 0), 1, 1), ((6, 20), 2, 3), ((4, 2), 0, 11), ((3, 7), 3, 0)]
    )
    def test_triangular_bump_is_the_scalar_loop(self, center, half_t, half_x):
        # frozen form: the loop over dt then dx, each weight by the scalar formula
        want = {}
        for dt in range(-half_t, half_t + 1):
            for dx in range(-half_x, half_x + 1):
                w = (1.0 - abs(dt) / (half_t + 1.0)) * (1.0 - abs(dx) / (half_x + 1.0))
                want[(center[0] + dt, (center[1] + dx) % LAT.n_sites)] = w
        b = triangular_bump(LAT, center, half_t, half_x)
        assert list(b.values) == list(want)
        assert [v.hex() for v in b.values.values()] == [w.hex() for w in want.values()]
        assert [w.hex() for w in b.weights.tolist()] == [w.hex() for w in want.values()]
        assert list(zip(b.ts.tolist(), b.xs.tolist())) == list(want)

    def test_triangular_bump_window_check(self):
        with pytest.raises(ValueError, match="window"):
            triangular_bump(LAT, (0, 0), 1, 1)

    def test_triangular_bump_fills_the_circle_at_most(self):
        # 11 sites on a circle of 8 would collide and keep only the last weight
        with pytest.raises(ValueError, match="wider than the circle"):
            triangular_bump(LatticeSpec(8, 10), (4, 2), 1, 5)
        b = triangular_bump(LatticeSpec(9, 10), (4, 2), 1, 4)
        assert len(b.values) == 3 * 9
        assert {x for _, x in b.support} == set(range(9))


class TestRetardedGreen:
    def test_matches_naive_recurrence(self):
        for m in (0.0, 0.7, 1.0):
            lat = LatticeSpec(11, 8, m)
            got = _retarded_green(lat, (0, 0))
            assert np.array_equal(got, _naive_impulse(11, 8, m))

    def test_source_shifting(self):
        # Delta(delta_p, delta_src) is the table of a kick at src, read at p
        src = (3, 17)
        g = _retarded_green(LAT, src)
        assert not g[:4].any() and g[4].any()
        for p in itertools.product(range(3, LAT.n_steps), range(LAT.n_sites)):
            assert pauli_jordan(LAT, _delta(*p), _delta(*src)) == g[p]
            assert pauli_jordan(LAT, _delta(*src), _delta(*p)) == -g[p]

    def test_unit_kick_normalization(self):
        for m in (0.0, 1.0, 3.0):
            lat = LatticeSpec(9, 4, m)
            assert _retarded_green(lat, (0, 0))[1, 0] == 1.0

    def test_mass_damping_frozen_values(self):
        # one diagonal step after the kick carries 1 / (1 + m^2 / 2)
        for m, want in [(0.0, 1.0), (1.0, 2.0 / 3.0), (2.0, 1.0 / 3.0)]:
            lat = LatticeSpec(9, 4, m)
            assert _retarded_green(lat, (0, 0))[2, 1] == want

    def test_exact_cone_and_checkerboard_zeros(self):
        lat = LatticeSpec(17, 9, 1.3)
        g = _retarded_green(lat, (2, 4))
        for t in range(lat.n_steps):
            for x in range(lat.n_sites):
                d = lat.distance(x, 4)
                dt = t - 2
                if dt < 1 or d > dt or (dt + d) % 2 == 0:
                    assert g[t, x] == 0.0


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

    def test_support_on_every_window_edge(self):
        corners = [(0, 0), (0, 23), (11, 0), (11, 23), (5, 0), (0, 12)]
        f = TestFunction({p: 1.0 + i for i, p in enumerate(corners)})
        g = TestFunction({(6, 12): 1.0, (11, 11): -0.5})
        for a, b in ((f, g), (g, f)):
            assert pauli_jordan(LAT, a, b) == _loop_pauli_jordan(LAT, a, b)
        for p in [(-1, 0), (12, 0), (0, -1), (0, 24)]:
            bad = TestFunction({**dict.fromkeys(corners, 1.0), p: 1.0})
            with pytest.raises(ValueError) as got:
                pauli_jordan(LAT, f, bad)
            assert str(got.value) == f"support point {p} of g outside the window"

    def test_names_first_outside_point_in_sorted_order(self):
        bad = TestFunction({(30, 0): 1.0, (3, 4): 1.0, (-1, 3): 1.0, (2, 24): 1.0})
        for f, g, name in [(bad, _delta(0, 0), "f"), (_delta(0, 0), bad, "g")]:
            with pytest.raises(ValueError) as got:
                pauli_jordan(LAT, f, g)
            with pytest.raises(ValueError) as want:
                _loop_pauli_jordan(LAT, f, g)
            assert str(got.value) == str(want.value)
            assert str(got.value) == f"support point (-1, 3) of {name} outside the window"


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

    @staticmethod
    def _random_geometries(n, seed):
        """Random windows, options and scattered K, about 40% of them
        buildable; K is drawn anywhere on the circle, edges included."""
        rng = np.random.default_rng(seed)
        for _ in range(n):
            lat = LatticeSpec(int(rng.integers(8, 65)), int(rng.integers(8, 33)))
            opts = BuildOptions(*(int(v) for v in rng.integers((1, 0, 0), (4, 3, 3))))
            nt = int(rng.integers(1, 4))
            nx = int(rng.integers(1, lat.n_sites // 3 + 1))
            t0 = int(rng.integers(0, lat.n_steps - nt + 1))
            x0 = int(rng.integers(0, lat.n_sites - nx + 1))
            box = [(t, x) for t in range(t0, t0 + nt) for x in range(x0, x0 + nx)]
            keep = rng.random(len(box)) < 0.5
            keep[int(rng.integers(len(box)))] = True
            yield lat, Region(p for p, kept in zip(box, keep) if kept), opts

    def test_probe_placement_is_causally_clean(self):
        # build_scenario's placement alone keeps h out of the future of K
        # and g out of its past; nothing checks it at run time but this
        wide = (
            LatticeSpec(64, 16, 1.0),
            Region([(t, x) for t in (6, 7) for x in range(20, 41)]),
            BuildOptions(),
        )
        built = 0
        for lat, k, opts in [wide, *self._random_geometries(2000, 20)]:
            try:
                _, g, h = build_scenario(lat, k, opts)
            except ValueError:
                continue
            built += 1
            kt = [t for t, _ in k.points]
            assert h.ts.max() <= min(kt) - opts.time_gap
            assert g.ts.min() >= max(kt) + opts.time_gap
            assert not any(_reaches(lat, p, q) for p in k.points for q in h.support)
            assert not any(_reaches(lat, q, p) for q in g.support for p in k.points)
        assert built > 500

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


def _box(t0, nt, x0, nx):
    return Region([(t, x) for t in range(t0, t0 + nt) for x in range(x0, x0 + nx)])


# (lattice, K, options): a single point, 2x2, 4x12 and 5x20 wide K, K on the
# first site, on the last site and at the earliest time the probes allow, a
# scattered K, and times at the top of int64 (the longest window allowed)
_SCENARIOS = [
    (LatticeSpec(31, 12), Region([(5, 15)]), None),
    (LatticeSpec(32, 16), _box(6, 2, 10, 2), None),
    (LatticeSpec(64, 24), _box(8, 4, 20, 12), None),
    (LatticeSpec(128, 32), _box(10, 5, 30, 20), None),
    (LatticeSpec(64, 16), _box(6, 2, 0, 4), None),
    (LatticeSpec(64, 16), _box(6, 2, 60, 4), None),
    (LatticeSpec(64, 16), _box(4, 2, 20, 21), None),
    (LatticeSpec(37, 20), _box(5, 3, 7, 5), BuildOptions(1, 0, 0)),
    (LatticeSpec(96, 30), _box(9, 4, 30, 11), BuildOptions(3, 2, 2)),
    (
        LatticeSpec(64, 24),
        Region(
            (t + 5, x + 20)
            for t, x in _random_points(np.random.default_rng(5), LatticeSpec(12, 6), 15)
        ),
        BuildOptions(2, 1, 0),
    ),
    (LatticeSpec(64, 2**63 - 1), _box(2**63 - 30, 3, 10, 12), None),
]

# (lattice, K, the refusal as build_scenario words it)
_REFUSALS = [
    (LatticeSpec(64, 16), Region([(6, 10**23)]), f"region point (6, {10**23}) outside"),
    (LatticeSpec(31, 12), Region([(12, 3), (5, -1)]), "region point (5, -1) outside"),
    (LatticeSpec(16, 12), _box(5, 1, 0, 9), "half the spatial circle"),
    (LatticeSpec(31, 12), Region([(2, 15)]), "no room before K"),
    (LatticeSpec(31, 12), Region([(9, 15)]), "no room after K"),
    (LatticeSpec(9, 12), Region([(5, 4)]), "cannot be made spacelike"),
]


class TestBuildScenarioFrozen:
    """``build_scenario`` against its frozen form, bit for bit."""

    @staticmethod
    def _same(a, b):
        assert list(a.values) == list(b.values)
        assert [v.hex() for v in a.values.values()] == [v.hex() for v in b.values.values()]
        for name in ("ts", "xs"):
            got, want = getattr(a, name), getattr(b, name)
            assert got.dtype == want.dtype and got.tolist() == want.tolist()
        assert [w.hex() for w in a.weights.tolist()] == [
            w.hex() for w in b.weights.tolist()
        ]
        assert a.bounds == b.bounds

    @pytest.mark.parametrize("lat, k, opts", _SCENARIOS)
    def test_same_test_functions(self, lat, k, opts):
        for got, want in zip(build_scenario(lat, k, opts), _frozen_build_scenario(lat, k, opts)):
            self._same(got, want)

    @pytest.mark.parametrize("lat, k, message", _REFUSALS)
    def test_same_refusals(self, lat, k, message):
        with pytest.raises(ValueError) as got:
            build_scenario(lat, k)
        with pytest.raises(ValueError) as want:
            _frozen_build_scenario(lat, k)
        assert str(got.value) == str(want.value)
        assert message in str(got.value)

    def test_same_wrap_around_refusal(self, monkeypatch):
        # spacelike probes keep the time extent below n_sites / 2, so the
        # check is reached only with the spacelike verdict forced
        monkeypatch.setattr(lattice, "_spacelike_supports", lambda *a: True)
        lat, k = LatticeSpec(9, 40), Region([(10, 4)])
        with pytest.raises(ValueError) as got:
            build_scenario(lat, k)
        with pytest.raises(ValueError) as want:
            _frozen_build_scenario(lat, k)
        assert str(got.value) == str(want.value)
        assert "wrap around the spatial circle" in str(got.value)


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


class TestReferenceForms:
    @pytest.mark.parametrize(
        "n, steps, m",
        [(3, 1, 1.0), (3, 2, 1.0), (3, 7, 0.4), (9, 6, 0.0), (64, 16, 1.0),
         (64, 16, 1.37), (512, 2048, 1.0)],
    )
    def test_kernel_matches_roll_form(self, n, steps, m):
        got = _kernels.impulse_response(n, steps, m)
        want = _roll_impulse(n, steps, m)
        assert got.shape == want.shape
        assert np.array_equal(got, want)
        assert np.array_equal(np.signbit(got), np.signbit(want))

    @pytest.mark.parametrize("n, m", [(3, 1.0), (11, 0.0), (64, 0.73)])
    def test_short_table_is_prefix(self, n, m):
        full = _kernels.impulse_response(n, 40, m)
        for k in (1, 2, 3, 7, 39, 40):
            short = _kernels.impulse_response(n, k, m)
            assert np.array_equal(short, full[:k])
            assert np.array_equal(np.signbit(short), np.signbit(full[:k]))

    @staticmethod
    def _same(lat, f, g):
        want = _loop_pauli_jordan(lat, f, g)
        for _ in range(2):  # the evaluation, then its cached value
            hits = pauli_jordan.cache_info().hits
            got = pauli_jordan(lat, f, g)
            assert type(got) is float
            assert got == want and np.signbit(got) == np.signbit(want)
        assert pauli_jordan.cache_info().hits == hits + 1
        return got

    def test_pauli_jordan_matches_pair_loop(self):
        rng = np.random.default_rng(63)
        lat = LatticeSpec(32, 20, 0.8)
        signs = set()
        for _ in range(60):
            f, g = (
                TestFunction(
                    {p: float(rng.standard_normal())
                     for p in _random_points(rng, lat, int(rng.integers(1, 40)))}
                )
                for _ in range(2)
            )
            signs.add(np.sign(self._same(lat, f, g)))
        assert signs >= {-1.0, 1.0}

    def test_pauli_jordan_matches_pair_loop_on_bumps(self):
        lat = LatticeSpec(64, 16, 1.0)
        k = Region([(t, x) for t in (6, 7) for x in range(20, 41)])
        f, g, h = build_scenario(lat, k)
        for a, b in itertools.permutations((f, g, h), 2):
            self._same(lat, a, b)

    def test_pauli_jordan_signed_zeros(self):
        lat = LatticeSpec(16, 10, 1.0)
        neg = TestFunction({(2, 3): -0.0, (5, 4): -0.0})
        pos = TestFunction({(4, 3): 1.0, (7, 5): -2.0})
        same_time = TestFunction({(2, 9): -1.0})
        assert self._same(lat, neg, pos) == 0.0
        assert self._same(lat, pos, neg) == 0.0
        assert self._same(lat, neg, neg) == 0.0
        assert self._same(lat, same_time, _delta(2, 3)) == 0.0
        # a lone -0.0 term: the loop's 0.0 start makes the sum +0.0
        assert self._same(lat, TestFunction({(3, 3): -0.0}), _delta(2, 3)) == 0.0
        mixed = TestFunction({(2, 3): -0.0, (8, 3): 0.5, (1, 0): -1.5, (5, 12): 2.0})
        self._same(lat, mixed, pos)
        self._same(lat, pos, mixed)
