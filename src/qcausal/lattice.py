"""Signalling chains for a free scalar field on a 1+1 dimensional lattice.

The spatial geometry is a periodic circle of ``n_sites`` points with unit
spacing; time runs over ``n_steps`` slices with unit step.  Evolution is the
leapfrog discretization of the Klein-Gordon equation with the mass term
averaged over adjacent time slices (see ``_kernels``), whose dependence cone
advances exactly one site per step, so lattice causality statements are
exact: the commutator form of two test functions at spacelike separation is
a sum of exact floating-point zeros.

Field observables are kept abstract.  An :class:`AffineField` stores a real
affine combination ``c0 + sum_i c_i phi(f_i)`` of smeared field operators;
conjugation by the unitaries appearing in the signalling chain (exponentials
of a field and of a squared field) closes on this family, with coefficients
given exactly by the Pauli-Jordan form, so no operator truncation is ever
involved.  The commutation convention is ``[phi(f), phi(g)] = i Delta(f, g)``
with ``Delta`` as returned by :func:`pauli_jordan`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache
from itertools import chain
from operator import index
from types import MappingProxyType

import numpy as np

from ._kernels import impulse_response


@dataclass(frozen=True)
class LatticeSpec:
    """Periodic 1+1D lattice window: spatial circle size, time slices, mass."""

    n_sites: int
    n_steps: int
    mass: float = 1.0

    def __post_init__(self):
        if self.n_sites < 3:
            raise ValueError("need at least 3 spatial sites")
        if self.n_sites > np.iinfo(np.int64).max:  # site arithmetic is int64
            raise ValueError("n_sites must be at most 2**63 - 1")
        if self.n_steps < 2:
            raise ValueError("need at least 2 time steps")
        if self.n_steps > np.iinfo(np.int64).max:  # time arithmetic is int64
            raise ValueError("n_steps must be at most 2**63 - 1")
        if not math.isfinite(self.mass):
            raise ValueError("mass must be finite")
        if self.mass < 0:
            raise ValueError("mass must be non-negative")

    def distance(self, x0: int, x1: int) -> int:
        """Periodic (wraparound-minimized) spatial distance."""
        d = abs(int(x0) - int(x1)) % self.n_sites
        return min(d, self.n_sites - d)


def spacelike(lattice: LatticeSpec, p, q) -> bool:
    """True if neither point can reach the other: |dx| > |dt| on the circle."""
    return lattice.distance(p[1], q[1]) > abs(p[0] - q[0])


def _int_array(points) -> np.ndarray:
    """``(n, 2)`` exact integer array of a sequence of int pairs: int64, or
    Python ints where they do not fit."""
    try:
        flat = np.fromiter(chain.from_iterable(points), np.int64, 2 * len(points))
        return flat.reshape(-1, 2)
    except OverflowError:
        return np.array(points, dtype=object)


def _lattice_points(points) -> list:
    """``points`` as (t, x) pairs of Python ints.  Float and string
    coordinates, which ``int`` would truncate or parse, are refused."""
    try:
        return [(index(t), index(x)) for t, x in points]
    except TypeError as exc:
        raise ValueError(f"lattice coordinates must be integers: {exc}") from exc


def _first_outside(lattice: LatticeSpec, ts, xs):
    """The smallest point ``(t, x)`` outside the window, or None."""
    out = (ts < 0) | (ts >= lattice.n_steps) | (xs < 0) | (xs >= lattice.n_sites)
    if not out.any():
        return None
    return min(zip(ts[out].tolist(), xs[out].tolist()))


@dataclass(frozen=True)
class Region:
    """A finite set of lattice points (t, x), each once, in (t, x) order."""

    points: tuple
    # times and sites of ``points``, in its order (read-only)
    ts: np.ndarray = field(repr=False, compare=False)
    xs: np.ndarray = field(repr=False, compare=False)

    def __init__(self, points):
        pts = tuple(dict.fromkeys(sorted(_lattice_points(points))))
        if not pts:
            raise ValueError("a region needs at least one point")
        a = _int_array(pts)
        a.setflags(write=False)
        for name, v in (("points", pts), ("ts", a[:, 0]), ("xs", a[:, 1])):
            object.__setattr__(self, name, v)

    def spacelike_separated(self, other, lattice: LatticeSpec) -> bool:
        """True if no point of ``other`` is in the causal past or future of
        a point of ``self``.  Either may be a :class:`TestFunction`: the
        check reads only the ``ts`` and ``xs`` arrays."""
        dt = np.abs(other.ts[None, :] - self.ts[:, None])
        dx = np.abs(other.xs[None, :] - self.xs[:, None]) % lattice.n_sites
        return bool((np.minimum(dx, lattice.n_sites - dx) > dt).all())


@dataclass(eq=False, init=False)
class TestFunction:
    """Real smearing coefficients ``{(t, x): weight}`` on finitely many
    lattice points with integer coordinates.

    Instances compare and hash by identity so they can key the linear part
    of an :class:`AffineField` and the :func:`pauli_jordan` cache; building a
    test function never mutates an existing one, and the mapping and arrays
    are read-only after construction.  ``bounds`` is the support's bounding
    box, so a window check reads four ints instead of scanning the support.
    """

    __test__ = False  # not a pytest class, despite the name

    values: dict
    # times, sites and weights of ``values``, in its order (read-only)
    ts: np.ndarray = field(repr=False)
    xs: np.ndarray = field(repr=False)
    weights: np.ndarray = field(repr=False)
    # (min t, max t, min x, max x) of the support
    bounds: tuple = field(repr=False)

    def __init__(self, values, _arrays=None):
        # ``_arrays``, if given, holds the times, sites and weights of a
        # ``values`` dict keyed by distinct int pairs, in its order
        if not values:
            raise ValueError("a test function needs at least one support point")
        if _arrays is None:
            points = _lattice_points(values)
            values = dict(zip(points, map(float, values.values())))
            a = _int_array(list(values))
            _arrays = a[:, 0], a[:, 1], np.fromiter(values.values(), float, len(values))
        self.values = MappingProxyType(values)
        self.ts, self.xs, self.weights = _arrays
        for a in _arrays:
            a.setflags(write=False)
        self.bounds = tuple(
            int(v) for v in (self.ts.min(), self.ts.max(), self.xs.min(), self.xs.max())
        )

    @property
    def support(self) -> tuple:
        return tuple(sorted(self.values))

    def region(self) -> Region:
        return Region(self.support)


def triangular_bump(
    lattice: LatticeSpec, center, half_t: int, half_x: int
) -> TestFunction:
    """Product of triangular profiles around ``center``, peak weight 1.

    Support is the ``(2 half_t + 1) x (2 half_x + 1)`` patch, wrapped on the
    spatial circle; the time extent must fit inside the window and the
    spatial extent on the circle, so no two patch points share a site.
    """
    ((tc, xc),) = _lattice_points([center])
    if tc - half_t < 0 or tc + half_t >= lattice.n_steps:
        raise ValueError("bump time extent leaves the window")
    if 2 * half_x + 1 > lattice.n_sites:
        raise ValueError("bump spatial extent is wider than the circle")
    dts, dxs = range(-half_t, half_t + 1), range(-half_x, half_x + 1)
    points = [(tc + dt, (xc + dx) % lattice.n_sites) for dt in dts for dx in dxs]
    # int offsets become floats before dividing, as in Python, so each weight
    # has the bits of the scalar formula; time-major, as the points are
    weights = np.outer(1.0 - np.abs(dts) / (half_t + 1.0), 1.0 - np.abs(dxs) / (half_x + 1.0))
    weights = weights.ravel()
    a = _int_array(points)
    return TestFunction(dict(zip(points, weights.tolist())), (a[:, 0], a[:, 1], weights))


@lru_cache(maxsize=8)
def _base_table(n_sites: int, n_rows: int, mass: float) -> np.ndarray:
    """Retarded impulse table E[dt, dx], ``dt < n_rows``, for a kick at the
    origin (cached).  A shorter table is an exact prefix of a longer one."""
    table = impulse_response(n_sites, n_rows, mass)
    table.setflags(write=False)
    return table


def _check_support(lattice: LatticeSpec, f: TestFunction, name: str):
    t0, t1, x0, x1 = f.bounds
    if t0 < 0 or t1 >= lattice.n_steps or x0 < 0 or x1 >= lattice.n_sites:
        p = _first_outside(lattice, f.ts, f.xs)
        raise ValueError(f"support point {p} of {name} outside the window")


@lru_cache(maxsize=16)
def pauli_jordan(lattice: LatticeSpec, f: TestFunction, g: TestFunction) -> float:
    """Smeared commutator form Delta(f, g): retarded minus advanced response.

    ``Delta(f, g) = sum_pq f(p) g(q) [G_R(p, q) - G_R(q, p)]`` where the
    retarded response ``G_R(p, q)`` to a unit momentum kick at ``q`` is the
    :func:`_base_table` entry ``E[t_p - t_q, x_p - x_q mod n_sites]`` for
    ``t_p > t_q`` and zero otherwise.  Antisymmetric in its arguments,
    bilinear, and exactly zero for spacelike separated supports.

    Only the table rows ``|dt| <= max |t_p - t_q|`` are built.  The pair
    terms ``f(p) g(q) E[|dt|, dx]``, negated where ``q`` is later, are added
    left to right in the order of the two ``values`` mappings (``f`` major),
    so the result is that of the plain double loop bit for bit.

    Values are cached by ``(lattice, f, g)``, sixteen at a time.  Test
    functions key by identity and are read-only, and the cache holds its keys
    alive, so a hit returns exactly what the sum would give again.
    """
    _check_support(lattice, f, "f")
    _check_support(lattice, g, "g")
    dt = f.ts[:, None] - g.ts[None, :]
    later = dt < 0  # q after p: the advanced part, G_R(q, p)
    dx = np.where(later, -1, 1) * (f.xs[:, None] - g.xs[None, :]) % lattice.n_sites
    depth = np.abs(dt)
    table = _base_table(lattice.n_sites, int(depth.max()) + 1, lattice.mass)
    terms = f.weights[:, None] * g.weights[None, :] * table[depth, dx]
    np.negative(terms, out=terms, where=later)
    terms = terms[dt != 0]  # equal-time pairs add no term, as in the loop
    # cumsum adds strictly left to right (np.sum would add pairwise); the
    # leading 0.0 + turns an all-zero sum into +0.0, as the loop's start does
    return 0.0 + float(np.cumsum(terms)[-1]) if terms.size else 0.0


@dataclass
class AffineField:
    """Affine combination ``scalar + sum_i linear[f_i] * phi(f_i)``.

    The reference (vacuum) expectation of every smeared field is zero, so the
    expectation of the combination is the scalar part.
    """

    lattice: LatticeSpec
    scalar: float = 0.0
    linear: dict = field(default_factory=dict)

    @classmethod
    def phi(cls, lattice: LatticeSpec, f: TestFunction) -> "AffineField":
        """The smeared field observable phi(f)."""
        _check_support(lattice, f, "f")
        return cls(lattice, 0.0, {f: 1.0})

    @property
    def expectation(self) -> float:
        return self.scalar

    def coefficient(self, f: TestFunction) -> float:
        return self.linear.get(f, 0.0)


def weyl_conjugate(a: AffineField, h: TestFunction, lam: float) -> AffineField:
    """Conjugate by ``exp(i lam phi(h))``: each phi(f) shifts by -lam Delta(h, f).

    The shift is central, so the linear part is unchanged and the series
    terminates after the first commutator; the result is exact.
    """
    _check_support(a.lattice, h, "h")
    shift = sum(
        c * pauli_jordan(a.lattice, h, f) for f, c in a.linear.items()
    )
    return AffineField(a.lattice, a.scalar - lam * shift, dict(a.linear))


def gaussian_square_conjugate(a: AffineField, f: TestFunction, s: float) -> AffineField:
    """Conjugate by ``exp(i s phi(f)^2)``: phi(g) gains -2 s Delta(f, g) phi(f).

    The first commutator is proportional to phi(f) and the second vanishes,
    so the two-term expansion is exact; the scalar part is unchanged.
    """
    _check_support(a.lattice, f, "f")
    linear = dict(a.linear)
    gain = sum(
        c * (-2.0 * s * pauli_jordan(a.lattice, f, g)) for g, c in a.linear.items()
    )
    if gain != 0.0 or f in linear:
        linear[f] = linear.get(f, 0.0) + gain
    return AffineField(a.lattice, a.scalar, linear)


@lru_cache(maxsize=16)
def _spacelike_supports(
    lattice: LatticeSpec, g: TestFunction, h: TestFunction
) -> bool:
    """True if the supports of the test functions ``g`` and ``h`` are
    spacelike separated.

    Cached like :func:`pauli_jordan`: keys hash by identity, are read-only
    and are held alive, so one op's chains check its (g, h) pair once.
    """
    return Region.spacelike_separated(g, h, lattice)


def sorkin_chain(
    lattice: LatticeSpec,
    f: TestFunction,
    g: TestFunction,
    h: TestFunction,
    lam: float,
) -> AffineField:
    """Kick-evolve-measure chain: conjugate phi(g) by the squared-field
    unitary of f, then by the field exponential of h with strength lam.

    Requires the supports of h and g to be spacelike separated, so that the
    only route from the kick at h to the probe at g is through the squared
    interaction at f; the resulting expectation is then

        -2 lam Delta(f, g) Delta(f, h),

    nonzero in geometries where h can reach f and f can reach g even though
    h cannot reach g: signalling between mutually spacelike regions through
    an intermediate interaction.
    """
    _check_support(lattice, f, "f")
    _check_support(lattice, g, "g")
    _check_support(lattice, h, "h")
    if not _spacelike_supports(lattice, g, h):
        raise ValueError("supports of h and g must be spacelike separated")
    out = AffineField.phi(lattice, g)
    out = gaussian_square_conjugate(out, f, 1.0)
    return weyl_conjugate(out, h, lam)


def signalling_derivative(
    lattice: LatticeSpec, f: TestFunction, g: TestFunction, h: TestFunction
) -> float:
    """d/d lam of the chain expectation; equals -2 Delta(f, g) Delta(f, h).

    The expectation is ``0.0 - lam * shift``, linear in lam with no constant
    term, so its value at lam = 0 is exactly +0.0 and the finite difference
    between lam = 1 and lam = 0 is, bit for bit and signed zero included,
    the expectation at lam = 1.
    """
    return sorkin_chain(lattice, f, g, h, 1.0).expectation


@dataclass(frozen=True)
class BuildOptions:
    """Geometry knobs for :func:`build_scenario`."""

    time_gap: int = 2  # empty steps between K and each probe bump
    bump_half_t: int = 1
    bump_half_x: int = 1

    def __post_init__(self):
        if self.time_gap < 1:
            raise ValueError("time_gap must be at least 1")
        if self.bump_half_t < 0 or self.bump_half_x < 0:
            raise ValueError("bump half-widths must be non-negative")


def build_scenario(
    lattice: LatticeSpec, k: Region, opts: BuildOptions | None = None
):
    """Construct test functions (f, g, h) realizing the signalling geometry.

    ``f`` is a bump filling the interaction region K; ``h`` is a bump just
    before K near its left spatial edge (so it lies outside the causal
    future of K) and ``g`` a bump just after K near its right edge (outside
    the causal past of K), pushed further apart spatially if needed until
    their supports are spacelike separated.  Raises if the window cannot
    accommodate the arrangement: no room before or after K, no spacelike
    placement on the circle, or a window so wide in time that signals could
    wrap around the spatial circle.

    When K is spatially wide relative to the probe time gaps, h reaches the
    left part of K and g is reachable from the right part, so both
    Delta(f, h) and Delta(f, g) are generically nonzero while Delta(h, g)
    vanishes identically.
    """
    opts = opts or BuildOptions()
    ts, xs = k.ts, k.xs
    p = _first_outside(lattice, ts, xs)
    if p is not None:
        raise ValueError(f"region point {p} outside the lattice window")
    t0k, t1k, x0k, x1k = (int(v) for v in (ts.min(), ts.max(), xs.min(), xs.max()))
    if x1k - x0k >= lattice.n_sites // 2:
        raise ValueError(
            "region K must fit within half the spatial circle "
            "(as given, without wraparound)"
        )

    # f: product triangular profile over K, peaked at the bounding-box centre.
    # numpy turns each int coordinate into a float before subtracting, as
    # Python does, so every weight has the bits of the scalar formula.
    tc, xc = 0.5 * (t0k + t1k), 0.5 * (x0k + x1k)
    ht, hx = 0.5 * (t1k - t0k), 0.5 * (x1k - x0k)
    weights = (1.0 - np.abs(ts - tc) / (ht + 1.0)) * (1.0 - np.abs(xs - xc) / (hx + 1.0))
    f = TestFunction(dict(zip(k.points, weights.tolist())), (ts, xs, weights))

    # h ends and g starts time_gap >= 1 slices clear of K; a forward reach
    # needs a non-negative time difference, so K cannot reach h nor g reach K.
    th = t0k - opts.time_gap - opts.bump_half_t
    tg = t1k + opts.time_gap + opts.bump_half_t
    if th - opts.bump_half_t < 0:
        raise ValueError(
            "window cannot accommodate the arrangement: no room before K for h"
        )
    if tg + opts.bump_half_t > lattice.n_steps - 1:
        raise ValueError(
            "window cannot accommodate the arrangement: no room after K for g"
        )

    xh, xg = x0k, x1k
    while True:
        if (xg - xh) > lattice.n_sites // 2:
            raise ValueError(
                "window cannot accommodate the arrangement: h and g cannot be "
                "made spacelike separated on this circle"
            )
        h = triangular_bump(lattice, (th, xh), opts.bump_half_t, opts.bump_half_x)
        g = triangular_bump(lattice, (tg, xg), opts.bump_half_t, opts.bump_half_x)
        if _spacelike_supports(lattice, g, h):
            break
        xh -= 1
        xg += 1

    bounds = [tf.bounds for tf in (f, g, h)]
    t_extent = max(b[1] for b in bounds) - min(b[0] for b in bounds)
    if t_extent >= lattice.n_sites / 2:
        raise ValueError(
            "scenario time extent is long enough for signals to wrap around "
            "the spatial circle; enlarge n_sites or tighten the geometry"
        )
    return f, g, h
