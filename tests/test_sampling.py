import os
import subprocess
import sys
import textwrap
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import qcausal
from qcausal import causality, channels, sampling, tensor
from qcausal.causality import is_local_channel, is_supported_on, operator_schmidt_values
from qcausal.sampling import (
    HISTOGRAM_BINS,
    MeasureZeroStats,
    RngStream,
    haar_local_unitary,
    haar_unitary,
    measure_zero_experiment,
    random_kraus_channel,
    random_sorkin_scenario,
)
from qcausal import cli
from qcausal.causality import SorkinScenario, sorkin_violation
from qcausal.channels import (
    KrausChannel,
    depolarizing_channel,
    embed_local,
    from_unitary,
    identity_channel,
    local_random_channel,
)
from qcausal.tensor import (
    Bipartition,
    SystemDims,
    all_bipartitions,
    embed_operator,
    is_unitary,
)


class TestRngStream:
    def test_same_key_same_sequence(self):
        a = RngStream(7, 3).generator().standard_normal(10)
        b = RngStream(7, 3).generator().standard_normal(10)
        assert np.array_equal(a, b)

    def test_streams_are_distinct(self):
        a = RngStream(7, 0).generator().standard_normal(10)
        b = RngStream(7, 1).generator().standard_normal(10)
        c = RngStream(8, 0).generator().standard_normal(10)
        assert not np.array_equal(a, b)
        assert not np.array_equal(a, c)

    def test_substream_offsets(self):
        s = RngStream(5, 10)
        assert s.substream(4) == RngStream(5, 14)
        assert s.substream(0) == s

    def test_validation(self):
        with pytest.raises(ValueError, match="seed"):
            RngStream(-1)
        with pytest.raises(ValueError, match="stream"):
            RngStream(0, 2**64)


class TestHaarUnitary:
    def test_unitarity(self):
        s = RngStream(40)
        for i, n in enumerate([2, 3, 4, 6]):
            u = haar_unitary(n, s.substream(i))
            np.testing.assert_allclose(u.conj().T @ u, np.eye(n), atol=1e-12)

    def test_deterministic_from_stream(self):
        assert np.array_equal(haar_unitary(4, RngStream(41)), haar_unitary(4, RngStream(41)))

    def test_trace_second_moment(self):
        # Haar average of |tr U|^2 over U(n) is exactly 1; check the sampler
        # hits it well within Monte Carlo error (sd ~ 1/sqrt(N)).
        g = RngStream(42).generator()
        n_samples = 20_000
        acc = 0.0
        for _ in range(n_samples):
            acc += abs(np.trace(haar_unitary(4, g))) ** 2
        assert abs(acc / n_samples - 1.0) < 0.05

    def test_accepts_plain_generator(self):
        u = haar_unitary(3, np.random.default_rng(0))
        assert is_unitary(u)


class TestOtherSamplers:
    def test_local_unitary_is_product_everywhere(self):
        dims = SystemDims((2, 2, 2))
        u = haar_local_unitary(dims, RngStream(43))
        assert is_unitary(u)
        for part in all_bipartitions(dims):
            s = operator_schmidt_values(u, part)
            assert s[1] < 1e-12

    def test_random_kraus_channel_is_unital(self):
        c = random_kraus_channel(SystemDims((2, 3)), 4, RngStream(45))
        np.testing.assert_allclose(c.apply(np.eye(6)), np.eye(6), atol=1e-10)
        assert c.nkraus == 4

    def test_random_scenario_is_admissible(self):
        part = Bipartition.split(SystemDims((2, 3)), (0,))
        s = random_sorkin_scenario(part, identity_channel(part.dims), RngStream(47))
        # the constructor validates; double-check the two locality facts of
        # the factors embedded into the whole system
        assert is_local_channel(embed_local(s.prep, part.left, part.dims), part.left)
        obs = embed_operator(s.observable, part.right, part.dims)
        assert is_supported_on(obs, part.right, part.dims)


# Frozen single-draw forms of the samplers, as they were before scenarios
# were drawn in stacks: the reference for the shared stacked formulas.


def _frozen_ginibre(rng, n):
    return (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))) / np.sqrt(2)


def _frozen_unital(gs):
    s = sum(g.conj().T @ g for g in gs)
    evals, evecs = np.linalg.eigh(s)
    s_isqrt = (evecs / np.sqrt(evals)) @ evecs.conj().T
    return [g @ s_isqrt for g in gs]


def _frozen_density(rng, n):
    g = _frozen_ginibre(rng, n)
    rho = g @ g.conj().T
    return rho / np.trace(rho).real


def _frozen_hermitian(rng, n):
    g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return (g + g.conj().T) / 2


def _frozen_factors(part, rng, nkraus_prep=3):
    """One scenario drawn as random_sorkin_scenario drew it one at a time:
    sender Ginibres, then the state, then the receiver Hermitian.  Returns
    (rho, the preparation's sender Kraus family, the receiver observable)."""
    dims = part.dims
    gs = [_frozen_ginibre(rng, part.left_dim) for _ in range(nkraus_prep)]
    rho = _frozen_density(rng, dims.total)
    obs = _frozen_hermitian(rng, part.right_dim)
    return rho, np.array(_frozen_unital(gs)), obs


def _embedded(part, kraus, obs):
    """Sender Kraus factors and a receiver observable embedded into the whole
    system: (preparation channel, (D, D) observable)."""
    dims = part.dims
    sender = KrausChannel(kraus, SystemDims(tuple(dims.dims[s] for s in part.left)))
    return embed_local(sender, part.left, dims), embed_operator(obs, part.right, dims)


def _frozen_scenario(part, rng, nkraus_prep=3):
    """:func:`_frozen_factors` embedded into the whole system: (rho, prep,
    observable), the preparation a channel and the observable (D, D)."""
    rho, kraus, obs = _frozen_factors(part, rng, nkraus_prep)
    return (rho, *_embedded(part, kraus, obs))


def _frozen_violation(rho, prep, intervention, obs) -> float:
    """sorkin_violation of one scenario, frozen with a loop over Kraus operators."""
    evolved = sum(k.conj().T @ obs @ k for k in intervention.kraus)
    prepared = sum(k.conj().T @ evolved @ k for k in prep.kraus)
    return float((np.trace(rho @ prepared) - np.trace(rho @ evolved)).real)


def _intervention(kind, dims, rng):
    if kind == "haar":
        return from_unitary(haar_unitary(dims.total, rng), dims)
    if kind == "depolarizing":
        return depolarizing_channel(dims, 0.37)
    if kind == "local-random":
        return local_random_channel(dims, rng)
    return random_kraus_channel(dims, 3, rng)


def _assert_close_to_the_loop(got, want):
    """Violations agree with the frozen loop within 1e-12 * max(1, |v|): the
    contraction order differs, so the last bits may."""
    got, want = np.asarray(got), np.asarray(want)
    assert got.shape == want.shape
    assert np.all(np.abs(got - want) <= 1e-12 * np.maximum(1.0, np.abs(want)))


def _member_factors(stack):
    """Each member's (sender Kraus family, receiver observable), in member
    order, from a stack drawn for a sequence of directions."""
    kraus = [k for c in stack.prep for k in c.kraus]
    obs = [o for run in stack.observable for o in run]
    return kraus, obs


class TestStackedScenarios:
    """A stack of n scenarios is the n single draws, bit for bit."""

    # the (0, 2) senders are non-contiguous and the (1,) sender of (2, 3, 2)
    # sits in the middle
    @pytest.mark.parametrize("kind", ["haar", "depolarizing", "kraus", "local-random"])
    @pytest.mark.parametrize(
        "dims, left",
        [
            ((2, 2), (0,)),
            ((2, 2), (1,)),
            ((2, 3), (0,)),
            ((2, 3), (1,)),
            ((2, 2, 2), (0, 2)),
            ((3, 3), (0,)),
            ((3, 2), (0,)),
            ((3, 2), (1,)),
            ((2, 2, 2), (1,)),
            ((4, 4), (0,)),
            ((2, 3, 2), (0, 2)),
            ((2, 3, 2), (1,)),
            ((2, 3, 2), (0, 1)),
        ],
    )
    def test_violations_equal_the_loop(self, dims, left, kind):
        dims = SystemDims(dims)
        part = Bipartition.split(dims, left)
        seed = [len(left), *dims.dims, len(kind)]
        a, b = np.random.default_rng(seed), np.random.default_rng(seed)
        c = _intervention(kind, dims, a)
        assert np.array_equal(_intervention(kind, dims, b).kraus, c.kraus)
        frozen = [_frozen_factors(part, a) for _ in range(9)]
        stack = random_sorkin_scenario([part] * 9, c, b)
        # the drawn factors are the frozen ones, bit for bit
        kraus, obs = _member_factors(stack)
        for j, (rho, k, o) in enumerate(frozen):
            assert np.array_equal(stack.rho[j], rho)
            assert np.array_equal(kraus[j], k)
            assert np.array_equal(obs[j], o)
        want = []
        for rho, k, o in frozen:
            prep, observable = _embedded(part, k, o)
            want.append(_frozen_violation(rho, prep, c, observable))
        got = sorkin_violation(stack)
        assert got.shape == (9,)
        _assert_close_to_the_loop(got, want)
        # both streams stop at the same place
        assert a.standard_normal() == b.standard_normal()

    def test_single_draw_has_no_scenario_axis(self):
        part = Bipartition.split(SystemDims((2, 3)), (1,))
        c = identity_channel(part.dims)
        one = random_sorkin_scenario(part, c, RngStream(60))
        stack = random_sorkin_scenario([part], c, RngStream(60))
        assert one.rho.shape == (6, 6) and stack.rho.shape == (1, 6, 6)
        assert one.prep.kraus.shape == (3, 3, 3)
        assert np.array_equal(stack.rho[0], one.rho)
        assert np.array_equal(stack.observable[0][0], one.observable)
        assert np.array_equal(stack.prep[0].kraus[0], one.prep.kraus)
        assert type(sorkin_violation(one)) is float
        assert sorkin_violation(stack)[0] == sorkin_violation(one)

    def test_mixed_stack_is_the_single_draws(self):
        dims = SystemDims((2, 3, 2))
        p, q = all_bipartitions(dims)[1], all_bipartitions(dims)[2].swapped()
        c = random_kraus_channel(dims, 2, RngStream(62))
        a, b = RngStream(65).generator(), RngStream(65).generator()
        parts = [p, p, q, p, q, q]
        stack = random_sorkin_scenario(parts, c, a)
        assert stack.partition == tuple(parts)
        kraus, obs = _member_factors(stack)
        violations = sorkin_violation(stack)
        for j, part in enumerate(parts):
            one = random_sorkin_scenario(part, c, b)
            assert np.array_equal(stack.rho[j], one.rho)
            assert np.array_equal(kraus[j], one.prep.kraus)
            assert np.array_equal(obs[j], one.observable)
            assert violations[j] == sorkin_violation(one)
        assert a.standard_normal() == b.standard_normal()
        with pytest.raises(ValueError, match="at least one scenario"):
            random_sorkin_scenario([], c, a)
        other = Bipartition.split(SystemDims((3, 2, 2)), (0,))
        with pytest.raises(ValueError, match="different dims"):
            random_sorkin_scenario([p, other], c, a)

    def test_samplers_draw_as_before(self):
        a, b = np.random.default_rng(61), np.random.default_rng(61)
        kraus = _frozen_unital([_frozen_ginibre(a, 6) for _ in range(2)])
        got = random_kraus_channel(SystemDims((2, 3)), 2, b).kraus
        assert np.array_equal(got, kraus)
        q, r = np.linalg.qr(_frozen_ginibre(a, 3))
        diag = np.diagonal(r)
        assert np.array_equal(haar_unitary(3, b), q * (diag / np.abs(diag)))

    # blocks of 2 split each direction's 5 scenarios into three stacks; on
    # uneven dims blocks of 3 straddle directions of different sender dims
    @pytest.mark.parametrize(
        "block, dims",
        [(None, (2, 2, 2)), (2, (2, 2, 2)), (3, (2, 3)), (3, (2, 3, 2))],
        ids=["None", "2", "3-2x3", "3-2x3x2"],
    )
    def test_check_causal_sorkin_max_equals_the_loop(
        self, tmp_path, monkeypatch, block, dims
    ):
        if block:
            monkeypatch.setattr(cli, "SCENARIO_BLOCK", block)
        dims = SystemDims(dims)
        u = haar_unitary(dims.total, RngStream(63))
        cfg = {
            "experiment": "check-causal",
            "seed": 64,
            "dims": list(dims.dims),
            "n_scenarios": 5,
            "unitary": [[[z.real, z.imag] for z in row] for row in u],
        }
        sizes, streams = [], []
        draw = sampling.random_sorkin_scenario

        def spy(part, intervention, rng):
            sizes.append(len(part))
            streams.append(rng)
            return draw(part, intervention, rng)

        monkeypatch.setattr(cli, "random_sorkin_scenario", spy)
        report, code = cli.run(cli.ExperimentConfig.from_dict(cfg), tmp_path)
        c = from_unitary(u, dims)
        rng = RngStream(64).generator()
        worst = 0.0
        for part in all_bipartitions(dims):
            for oriented in (part, part.swapped()):
                for _ in range(5):
                    rho, prep, obs = _frozen_scenario(oriented, rng)
                    worst = max(worst, abs(_frozen_violation(rho, prep, c, obs)))
        assert code == 0
        _assert_close_to_the_loop(report["results"]["sorkin_max"], worst)
        # every stack but the last holds a full block
        n_members = 5 * 2 * len(all_bipartitions(dims))
        full = block or sampling.SCENARIO_BLOCK
        assert sum(sizes) == n_members and max(sizes) <= full
        assert sizes[:-1] == [full] * (len(sizes) - 1)
        # both streams stop at the same place
        assert streams[-1].standard_normal() == rng.standard_normal()


class TestFactoredScenarios:
    """Scenarios hold the preparation on the sender block and the observable
    on the receiver block."""

    def test_embedded_input_is_reduced_to_the_drawn_factors(self):
        part = Bipartition.split(SystemDims((2, 3, 2)), (0, 2))
        c = random_kraus_channel(part.dims, 3, RngStream(66))
        s = random_sorkin_scenario(part, c, RngStream(67))
        embedded = SorkinScenario(
            s.rho,
            embed_local(s.prep, part.left, part.dims),
            c,
            embed_operator(s.observable, part.right, part.dims),
            part,
        )
        assert embedded.prep.dims == SystemDims((2, 2))
        np.testing.assert_allclose(embedded.prep.kraus, s.prep.kraus, atol=1e-15)
        np.testing.assert_allclose(embedded.observable, s.observable, atol=1e-15)
        v = sorkin_violation(s)
        assert abs(sorkin_violation(embedded) - v) <= 1e-12 * max(1.0, abs(v))

    def test_stacked_path_embeds_and_applies_nothing(self, monkeypatch):
        """The draw and the test of a mixed-direction stack, as check-causal
        runs them, call none of the D x D locality helpers."""
        calls = []

        def spy(module, name):
            original = getattr(module, name)

            def counted(*args, **kwargs):
                calls.append(name)
                return original(*args, **kwargs)

            monkeypatch.setattr(module, name, counted)

        for module in (tensor, causality, channels, sampling):
            for name in ("embed_operator", "partial_trace"):
                if hasattr(module, name):
                    spy(module, name)
        for name in ("_off_block", "is_supported_on", "is_local_channel"):
            spy(causality, name)
        spy(KrausChannel, "apply")
        dims = SystemDims((2, 3, 2))
        c = random_kraus_channel(dims, 2, RngStream(68))
        directions = [p for q in all_bipartitions(dims) for p in (q, q.swapped())]
        parts = [p for p in directions for _ in range(3)]
        s = random_sorkin_scenario(parts, c, RngStream(69).generator())
        assert sorkin_violation(s).shape == (len(parts),)
        assert calls == []
        # the spies do count: one scenario given on the whole system calls them
        sender = KrausChannel(s.prep[0].kraus[0], dims.sub(parts[0].left))
        SorkinScenario(
            s.rho[0],
            embed_local(sender, parts[0].left, dims),
            c,
            embed_operator(s.observable[0][0], parts[0].right, dims),
            parts[0],
        )
        assert "is_local_channel" in calls and "_off_block" in calls

    def test_one_normalisation_per_shape(self, monkeypatch):
        """Runs of one (d_S, d_R) shape, apart in the stack, share one
        ``_unital`` call, and each member is still its single draw."""
        shapes = []
        unital = sampling._unital

        def spy(gs):
            shapes.append(gs.shape)
            return unital(gs)

        dims = SystemDims((2, 3, 2))
        c = random_kraus_channel(dims, 2, RngStream(70))
        # shapes (2, 6), (6, 2), (6, 2), (2, 6), (4, 3), (3, 4): two
        # classes interleave
        directions = [p for q in all_bipartitions(dims) for p in (q, q.swapped())]
        parts = [p for p in directions for _ in range(2)]
        g = RngStream(71).generator()
        singles = [random_sorkin_scenario(p, c, g) for p in parts]
        monkeypatch.setattr(sampling, "_unital", spy)
        kraus, _ = _member_factors(
            random_sorkin_scenario(parts, c, RngStream(71).generator())
        )
        assert shapes == [(4, 3, 2, 2), (4, 3, 6, 6), (2, 3, 4, 4), (2, 3, 3, 3)]
        for k, one in zip(kraus, singles, strict=True):
            assert np.array_equal(k, one.prep.kraus)

    def test_refuses_an_empty_stack(self):
        dims = SystemDims((2, 2))
        part = Bipartition.split(dims, (0,))
        c = identity_channel(dims)
        empty = KrausChannel(np.zeros((0, 1, 2, 2)), SystemDims((2,)))
        obs = np.zeros((0, 2, 2))
        with pytest.raises(ValueError, match="need at least one scenario"):
            SorkinScenario(np.zeros((0, 4, 4)), (empty,), c, (obs,), [part])


class TestMeasureZeroExperiment:
    def test_global_sampler_finds_no_products(self):
        stats = measure_zero_experiment(
            SystemDims((2, 2)), 25, 1e-6, RngStream(48), sampler="global"
        )
        assert isinstance(stats, MeasureZeroStats)
        assert stats.count_product_within_tol == 0
        assert stats.min_second_schmidt > 1e-6
        assert stats.min_product_distance > 1e-6

    def test_local_sampler_hits_every_time(self):
        stats = measure_zero_experiment(
            SystemDims((2, 2)), 25, 1e-6, RngStream(49), sampler="local"
        )
        assert stats.count_product_within_tol == 25
        assert stats.min_second_schmidt < 1e-10
        assert stats.min_product_distance < 1e-6

    def test_histogram_accounts_for_every_sample(self):
        stats = measure_zero_experiment(
            SystemDims((2, 2)), 30, 1e-6, RngStream(50), sampler="global"
        )
        assert sum(stats.histogram_counts) == 30
        assert len(stats.histogram_counts) == HISTOGRAM_BINS
        assert len(stats.histogram_edges) == HISTOGRAM_BINS + 1
        np.testing.assert_allclose(stats.histogram_edges[0], 0.0)
        np.testing.assert_allclose(stats.histogram_edges[-1], np.sqrt(2.0))

    def test_records_and_per_sample_reproducibility(self):
        base = RngStream(51)
        stats = measure_zero_experiment(SystemDims((2, 2)), 10, 1e-6, base)
        assert len(stats.second_schmidt) == len(stats.product_distance) == 10
        # sample 7 can be regenerated in isolation from its substream
        u = haar_unitary(4, base.substream(7).generator())
        worst = max(
            operator_schmidt_values(u, p)[1]
            for p in all_bipartitions(SystemDims((2, 2)))
        )
        assert stats.second_schmidt[7] == worst

    def test_stats_keep_under_128_bytes_per_sample(self):
        def run():
            return measure_zero_experiment(SystemDims((2, 2)), 2000, 1e-6, RngStream(77))

        run()  # warm-up: caches keyed by block shape fill here
        tracemalloc.start()
        try:
            stats = run()
            kept = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert len(stats.second_schmidt) == 2000
        assert kept / 2000 < 128

    def test_rerun_is_bitwise_identical(self):
        a = measure_zero_experiment(SystemDims((2, 2)), 8, 1e-6, RngStream(52))
        b = measure_zero_experiment(SystemDims((2, 2)), 8, 1e-6, RngStream(52))
        assert a == b

    def test_qubit_qutrit_runs(self):
        stats = measure_zero_experiment(SystemDims((2, 3)), 5, 1e-6, RngStream(53))
        assert stats.count_product_within_tol == 0
        np.testing.assert_allclose(stats.histogram_edges[-1], np.sqrt(3.0))

    # on (2, 2, 2) the samples of a block split over several bipartitions
    @pytest.mark.parametrize(
        "dims, sampler", [((2, 2), "global"), ((2, 2, 2), "global"), ((2, 3), "local")]
    )
    def test_blocks_do_not_change_any_result(self, monkeypatch, dims, sampler):
        def run():
            return measure_zero_experiment(
                SystemDims(dims), 11, 1e-6, RngStream(54), sampler
            )

        whole = run()
        monkeypatch.setattr(sampling, "SAMPLE_BLOCK", 3)
        assert run() == whole

    def test_peak_memory_does_not_grow_with_samples(self):
        # each run in a fresh interpreter, so that its peak RSS is its own
        script = textwrap.dedent(
            """
            import resource, sys
            from qcausal.sampling import RngStream, measure_zero_experiment
            from qcausal.tensor import SystemDims
            measure_zero_experiment(
                SystemDims((4, 4)), int(sys.argv[1]), 1e-6, RngStream(55)
            )
            print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
            """
        )
        env = dict(os.environ, PYTHONPATH=str(Path(qcausal.__file__).parents[1]))
        peak_kib = {}
        for n in (300, 3000):
            out = subprocess.run(
                [sys.executable, "-c", script, str(n)],
                capture_output=True, text=True, env=env, timeout=120,
            )
            assert out.returncode == 0, out.stderr
            peak_kib[n] = int(out.stdout)
        assert peak_kib[3000] - peak_kib[300] <= 5 * 1024

    def test_validation(self):
        with pytest.raises(ValueError, match="sampler"):
            measure_zero_experiment(SystemDims((2, 2)), 5, 1e-6, RngStream(0), "hybrid")
        with pytest.raises(ValueError, match="sample"):
            measure_zero_experiment(SystemDims((2, 2)), 0, 1e-6, RngStream(0))
        with pytest.raises(ValueError, match="two sites"):
            measure_zero_experiment(SystemDims((4,)), 5, 1e-6, RngStream(0))
