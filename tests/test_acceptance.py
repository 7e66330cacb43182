"""Acceptance gate: nine end-to-end checks, one printed PASS/FAIL line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines as they complete.  Each check times its own body and enforces the
stated runtime budget after the verdict line is printed.
"""

import json
import time
from pathlib import Path

import numpy as np

from qcausal.causality import (
    is_causal_unitary,
    nearest_product_unitary,
    perturbation_probe,
    semicausal_defect,
    sorkin_violation,
)
from qcausal.channels import (
    classical_one_way_channel,
    cnot_channel,
    embed_local,
    from_unitary,
    identity_channel,
    swap_channel,
)
from qcausal.cli import ExperimentConfig, run as cli_run
from qcausal.lattice import (
    LatticeSpec,
    Region,
    build_scenario,
    pauli_jordan,
    signalling_derivative,
    sorkin_chain,
    spacelike,
    triangular_bump,
)
from qcausal.sampling import (
    RngStream,
    haar_local_unitary,
    haar_unitary,
    measure_zero_experiment,
    random_sorkin_scenario,
)
from qcausal.tensor import Bipartition, SystemDims, polar_unitary, realign
from qcausal.causality import SorkinScenario


def _verdict(number, name, ok, elapsed, cap, detail=""):
    print(f"[criterion {number}] {name}: {'PASS' if ok else 'FAIL'} "
          f"({elapsed:.2f}s)")
    assert ok, f"criterion {number} ({name}) failed: {detail}"
    assert elapsed < cap, (
        f"criterion {number} ({name}) took {elapsed:.2f}s, budget {cap}s"
    )


def test_criterion_1_sorkin_zero_on_causal_unitaries():
    t0 = time.perf_counter()
    worst = 0.0
    stream = RngStream(101)
    for i in range(200):
        g = stream.substream(i).generator()
        dims = SystemDims((2, 2)) if i % 2 == 0 else SystemDims((2, 3))
        part = Bipartition.split(dims, (0,))
        if i % 4 >= 2:
            part = part.swapped()
        intervention = from_unitary(haar_local_unitary(dims, g), dims)
        s = random_sorkin_scenario(part, intervention, g)
        worst = max(worst, abs(sorkin_violation(s)))
    elapsed = time.perf_counter() - t0
    _verdict(
        1,
        "sorkin zero on product-unitary interventions",
        worst < 1e-10,
        elapsed,
        10.0,
        f"worst |violation| = {worst:.3e}",
    )


def test_criterion_2_cnot_witness():
    t0 = time.perf_counter()
    # Oracle: everything from 4x4 matrix literals, no package machinery.
    I = np.eye(2)
    Z = np.diag([1.0, -1.0])
    X = np.array([[0.0, 1.0], [1.0, 0.0]])
    cnot = np.array(
        [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]], dtype=float
    )
    rho = np.zeros((4, 4))
    rho[0, 0] = 1.0
    flip = np.kron(X, I)
    evolved = cnot.T @ np.kron(I, Z) @ cnot
    oracle = float(
        np.trace(rho @ flip.T @ evolved @ flip) - np.trace(rho @ evolved)
    )

    s = SorkinScenario(
        rho=rho,
        prep=embed_local(
            from_unitary(X, SystemDims((2,))), (0,), SystemDims((2, 2))
        ),
        intervention=cnot_channel(),
        observable=np.kron(I, Z),
        partition=Bipartition.split(SystemDims((2, 2)), (0,)),
    )
    got = sorkin_violation(s)
    ok = abs(got - oracle) < 1e-12 and abs(got + 2.0) < 1e-12
    elapsed = time.perf_counter() - t0
    _verdict(
        2, "cnot scenario equals -2", ok, elapsed, 1.0,
        f"got {got!r}, oracle {oracle!r}",
    )


def test_criterion_3_deciders_agree():
    t0 = time.perf_counter()
    tol = 1e-8
    n_scen = 10  # per orientation, per unitary
    disagreements = []
    stream = RngStream(103)
    case = 0
    for dims in (SystemDims((2, 2)), SystemDims((2, 3))):
        part = Bipartition.split(dims, (0,))
        for kind in ("product", "global"):
            for _ in range(25):
                g = stream.substream(case).generator()
                case += 1
                u = (
                    haar_local_unitary(dims, g)
                    if kind == "product"
                    else haar_unitary(dims.total, g)
                )
                c = from_unitary(u, dims)
                by_schmidt = is_causal_unitary(u, dims, tol)
                by_defect = all(
                    semicausal_defect(c, oriented).strength <= tol
                    for oriented in (part, part.swapped())
                )
                worst = 0.0
                for oriented in (part, part.swapped()):
                    for _ in range(n_scen):
                        s = random_sorkin_scenario(oriented, c, g)
                        worst = max(worst, abs(sorkin_violation(s)))
                by_sorkin = worst <= tol
                if not by_schmidt == by_defect == by_sorkin:
                    disagreements.append(
                        (dims.dims, kind, by_schmidt, by_defect, by_sorkin)
                    )
    elapsed = time.perf_counter() - t0
    _verdict(
        3, "three causality deciders agree on 100 unitaries",
        not disagreements, elapsed, 60.0, f"disagreements: {disagreements}",
    )


def test_criterion_4_measure_zero_evidence():
    t0 = time.perf_counter()
    dims = SystemDims((2, 2))
    sampled = measure_zero_experiment(dims, 1000, 1e-6, RngStream(104), "global")
    control = measure_zero_experiment(dims, 1000, 1e-6, RngStream(105), "local")
    ok = (
        sampled.count_product_within_tol == 0
        and sampled.min_second_schmidt > 1e-6
        and control.count_product_within_tol == 1000
    )
    elapsed = time.perf_counter() - t0
    print(
        f"    min second Schmidt value over 1000 global draws: "
        f"{sampled.min_second_schmidt:.6g}"
    )
    _verdict(
        4, "haar unitaries are never product (1000 + 1000 control)",
        ok, elapsed, 60.0,
        f"hits {sampled.count_product_within_tol}/1000, "
        f"control {control.count_product_within_tol}/1000, "
        f"min second Schmidt {sampled.min_second_schmidt:.3e}",
    )


def test_criterion_5_acausal_in_every_neighborhood():
    t0 = time.perf_counter()
    part = Bipartition.split(SystemDims((2, 2)), (0,))
    rows = perturbation_probe(
        identity_channel(part.dims),
        classical_one_way_channel(),
        [1e-1, 1e-2, 1e-3, 1e-4],
        part,
    )
    def rel_spread(vals):
        return (max(vals) - min(vals)) / abs(sum(vals) / len(vals))

    defect_ratios = [r.defect / r.epsilon for r in rows]
    choi_ratios = [r.choi_distance / r.epsilon for r in rows]
    ds, cs = rel_spread(defect_ratios), rel_spread(choi_ratios)
    ok = ds <= 1e-9 and cs <= 1e-9 and min(r.defect for r in rows) > 0
    elapsed = time.perf_counter() - t0
    _verdict(
        5, "defect grows linearly from the causal point",
        ok, elapsed, 10.0,
        f"relative spreads: defect/eps {ds:.3e}, choi/eps {cs:.3e}",
    )


def _random_bump(lat, rng, t_lo, t_hi):
    ht, hx = int(rng.integers(0, 2)), int(rng.integers(0, 2))
    t = int(rng.integers(max(t_lo, ht), min(t_hi, lat.n_steps - ht)))
    x = int(rng.integers(0, lat.n_sites))
    return triangular_bump(lat, (t, x), ht, hx), (t, x, ht, hx)


def test_criterion_6_exact_lattice_causality():
    t0 = time.perf_counter()
    lat = LatticeSpec(n_sites=128, n_steps=256, mass=1.0)
    rng = np.random.default_rng(106)

    bad_pairs = []
    found = 0
    while found < 50:
        f, (tf, xf, htf, hxf) = _random_bump(lat, rng, 1, 255)
        dt = int(rng.integers(-40, 41))
        ht, hx = int(rng.integers(0, 2)), int(rng.integers(0, 2))
        tg = min(max(tf + dt, ht), lat.n_steps - 1 - ht)
        sep = abs(tg - tf) + htf + ht + hxf + hx + 1 + int(rng.integers(0, 5))
        if sep > lat.n_sites // 2 - 1:
            continue
        g = triangular_bump(lat, (tg, (xf + sep) % lat.n_sites), ht, hx)
        if not f.region().spacelike_separated(g.region(), lat):
            continue
        found += 1
        val = pauli_jordan(lat, f, g)
        if not abs(val) < 1e-14:
            bad_pairs.append(((tf, xf), (tg, (xf + sep) % lat.n_sites), val))

    worst_asym = 0.0
    for _ in range(50):
        f, _ = _random_bump(lat, rng, 1, 255)
        g, _ = _random_bump(lat, rng, 1, 255)
        worst_asym = max(
            worst_asym, abs(pauli_jordan(lat, f, g) + pauli_jordan(lat, g, f))
        )

    ok = not bad_pairs and worst_asym <= 1e-12
    elapsed = time.perf_counter() - t0
    _verdict(
        6, "commutator vanishes exactly at spacelike separation",
        ok, elapsed, 60.0,
        f"nonzero spacelike pairs: {bad_pairs[:3]}, "
        f"worst antisymmetry defect {worst_asym:.3e}",
    )


def test_criterion_7_chain_identity_with_independent_oracle():
    t0 = time.perf_counter()
    lat = LatticeSpec(n_sites=64, n_steps=16, mass=1.0)
    k = Region([(t, x) for t in (6, 7) for x in range(20, 41)])
    f, g, h = build_scenario(lat, k)

    # Independent commutator oracle: re-simulate the impulse table with bare
    # python loops, then form the retarded-minus-advanced pairing directly.
    table = np.zeros((lat.n_steps, lat.n_sites))
    table[1, 0] = 1.0
    for t in range(1, lat.n_steps - 1):
        for x in range(lat.n_sites):
            table[t + 1, x] = (
                table[t, (x - 1) % lat.n_sites] + table[t, (x + 1) % lat.n_sites]
            ) / (1.0 + lat.mass**2 / 2.0) - table[t - 1, x]

    def delta_oracle(a, b):
        total = 0.0
        for (tp, xp), av in a.values.items():
            for (tq, xq), bv in b.values.items():
                if tp > tq:
                    total += av * bv * table[tp - tq, (xp - xq) % lat.n_sites]
                elif tq > tp:
                    total -= av * bv * table[tq - tp, (xq - xp) % lat.n_sites]
        return total

    dfg_o, dfh_o = delta_oracle(f, g), delta_oracle(f, h)
    deriv = signalling_derivative(lat, f, g, h)
    errors = []
    for lam in (0.0, 0.5, 1.7):
        chain = sorkin_chain(lat, f, g, h, lam)
        errors.append(abs(chain.coefficient(g) - 1.0))
        errors.append(abs(chain.coefficient(f) - (-2.0 * dfg_o)))
        errors.append(abs(chain.expectation - (-2.0 * lam * dfg_o * dfh_o)))
    errors.append(abs(deriv - (-2.0 * dfg_o * dfh_o)))
    ok = (
        max(errors) < 1e-12
        and abs(deriv) > 1e-6
        and pauli_jordan(lat, h, g) == 0.0
    )
    elapsed = time.perf_counter() - t0
    _verdict(
        7, "kick-evolve-measure chain matches closed form and signals",
        ok, elapsed, 30.0,
        f"max identity error {max(errors):.3e}, derivative {deriv:.6g}",
    )


def test_criterion_8_optimizer_sanity():
    t0 = time.perf_counter()
    stream = RngStream(108)
    part = Bipartition.split(SystemDims((2, 2)), (0,))
    worst_product = 0.0
    for i in range(20):
        dims = SystemDims((2, 2)) if i % 2 == 0 else SystemDims((2, 3))
        p = Bipartition.split(dims, (0,))
        u = haar_local_unitary(dims, stream.substream(i))
        worst_product = max(worst_product, nearest_product_unitary(u, p).distance)

    swap = swap_channel(2).kraus[0]
    res = nearest_product_unitary(swap, part)

    # multi-start oracle: fresh alternating climbs from 20 random starts
    r = realign(swap, part)
    g = stream.substream(999).generator()
    best = 0.0
    for _ in range(20):
        u2 = haar_unitary(2, g)
        for _ in range(400):
            u1 = polar_unitary((r @ u2.conj().reshape(4)).reshape(2, 2))
            u2 = polar_unitary((r.T @ u1.conj().reshape(4)).reshape(2, 2))
        best = max(best, abs(u1.conj().reshape(4) @ r @ u2.conj().reshape(4)))

    ok = (
        worst_product < 1e-8
        and abs(res.overlap - 2.0) < 1e-6
        and abs(res.distance - 2.0) < 1e-6
        and abs(res.overlap - best) < 1e-6
    )
    elapsed = time.perf_counter() - t0
    _verdict(
        8, "product optimizer: exact on products, swap matches restarts",
        ok, elapsed, 30.0,
        f"worst product distance {worst_product:.3e}, swap overlap "
        f"{res.overlap!r} vs restart best {best!r}",
    )


def test_criterion_9_experiment_determinism(tmp_path):
    t0 = time.perf_counter()
    configs = [
        {
            "experiment": "check-causal",
            "seed": 19,
            "dims": [2, 2],
            "n_scenarios": 5,
            "zoo": {"name": "classical-one-way"},
        },
        {
            "experiment": "sample-haar",
            "seed": 19,
            "dims": [2, 2],
            "n_samples": 10,
            "tol": 1e-6,
        },
        {
            "experiment": "nearest-product",
            "seed": 19,
            "dims": [2, 2],
            "n_samples": 3,
        },
        {"experiment": "perturb-ball", "seed": 19},
        {
            "experiment": "lattice-sorkin",
            "seed": 19,
            "lattice": {"n_sites": 64, "n_steps": 16, "mass": 1.0},
            "k_region": [[t, x] for t in (6, 7) for x in range(20, 41)],
            "require_nonzero": True,
        },
    ]
    mismatches = []
    for raw in configs:
        cfg = ExperimentConfig.from_dict(raw)
        reports = []
        for tag in ("a", "b"):
            out = tmp_path / raw["experiment"] / tag
            out.mkdir(parents=True)
            cli_run(cfg, out)
            name = f"{raw['experiment']}-report.json"
            rep = json.loads((out / name).read_text())
            rep.pop("wall_time_s")
            reports.append(rep)
            csvs = sorted(p.name for p in out.glob("*.csv"))
            reports[-1]["_csv_bytes"] = [
                (out / c).read_bytes() for c in csvs
            ]
        if reports[0] != reports[1]:
            mismatches.append(raw["experiment"])
    elapsed = time.perf_counter() - t0
    _verdict(
        9, "identical seeds reproduce every report field",
        not mismatches, elapsed, 30.0, f"mismatching experiments: {mismatches}",
    )
