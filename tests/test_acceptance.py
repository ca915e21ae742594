"""Acceptance suite: every criterion at its stated tolerance.

Each test prints one pass/fail line (visible with ``pytest -s``) and
asserts the criterion. All randomness is seeded, so a pass is stable.
"""

import json

import numpy as np

from kframelab.duality import ParsevalKFrame, field_norm, is_dual_k_bessel
from kframelab.fixtures import fixture_scenario, fixture_w1_prime
from kframelab.frames import (
    SampledFrame,
    analysis,
    analysis_norm,
    frame_operator,
    generate_parseval_k_frame,
    generate_random_bessel,
    k_lower_bound,
    synthesis,
    weighted_synthesis,
)
from kframelab.hilbert import (
    douglas_factor,
    op_norm,
    pinv,
    rank,
    svd,
)
from kframelab.measure import L2Coefficients
from kframelab.rng import complex_normal, derive_seed, stream

from helpers import (
    bisect_loewner,
    conditioned_operator,
    loewner_inclusion_exists,
    parseval_instance,
    random_space,
    run_cli,
)


def report(index, label, ok, detail):
    print(f"criterion {index:02d} [{'PASS' if ok else 'FAIL'}] {label}: {detail}")


def test_criterion_01_pseudo_inverse_identities():
    worst = 0.0
    for i in range(500):
        rng = stream(1001, i)
        n, p = int(rng.integers(1, 17)), int(rng.integers(1, 17))
        if i % 2 == 1 and min(n, p) > 1:
            r = int(rng.integers(1, min(n, p)))
            a = complex_normal(rng, n, r) @ complex_normal(rng, r, p)
        else:
            a = complex_normal(rng, n, p)
        a_pinv = pinv(a)
        f = svd(a)
        left = a @ a_pinv
        right = a_pinv @ a
        scale = 1.0 + op_norm(a)
        residuals = [
            op_norm(a @ a_pinv @ a - a),
            op_norm(a_pinv @ a @ a_pinv - a_pinv),
            op_norm(left - left.conj().T),
            op_norm(right - right.conj().T),
            op_norm(pinv(a.conj().T) - a_pinv.conj().T),
            op_norm(a_pinv @ f.range_projector() - a_pinv),
            op_norm(f.corange_projector() - right),
        ]
        worst = max(worst, max(residuals) / scale)
    ok = worst <= 1e-10
    report(1, "pseudo-inverse identity suite (500 matrices)", ok, f"worst residual {worst:.3e}")
    assert ok


def test_criterion_02_factorization_minimal_scale():
    worst_scale_gap = 0.0
    worst_factor = 0.0
    ranks_ok = True
    for i in range(200):
        rng = stream(1002, i)
        n, p, q = int(rng.integers(2, 9)), int(rng.integers(1, 9)), int(rng.integers(1, 9))
        rank_t = int(rng.integers(1, min(n, p) + 1))
        q1, _ = np.linalg.qr(complex_normal(rng, n, rank_t))
        q2, _ = np.linalg.qr(complex_normal(rng, p, rank_t))
        t = (q1 * rng.uniform(0.5, 2.0, rank_t)) @ q2.conj().T
        theta0 = complex_normal(rng, p, q)
        norm0 = op_norm(theta0)
        if norm0 > 0:
            theta0 *= rng.uniform(0.1, 3.0) / norm0
        s = t @ theta0
        theta = douglas_factor(s, t)
        worst_factor = max(worst_factor, op_norm(t @ theta - s) / (1.0 + op_norm(s)))
        lam = op_norm(theta) ** 2
        lam_b = bisect_loewner(s, t, iters=60)
        assert lam_b is not None
        worst_scale_gap = max(worst_scale_gap, abs(lam - lam_b) / (1.0 + lam_b))
        if not (rank(s) == rank(theta) == rank(np.vstack([s, theta]))):
            ranks_ok = False
        if rank(np.hstack([t.conj().T, theta])) != rank(t):
            ranks_ok = False
    ok = worst_scale_gap <= 1e-6 and ranks_ok and worst_factor <= 1e-9
    report(
        2,
        "factorization minimal scale vs bisection (200 pairs)",
        ok,
        f"worst scale gap {worst_scale_gap:.3e}, kernels/ranges {'ok' if ranks_ok else 'BROKEN'}",
    )
    assert ok


def test_criterion_03_lower_bound_equivalence():
    agree = True
    included_count = 0
    excluded_count = 0
    for i in range(200):
        rng = stream(1003, i)
        d = int(rng.integers(1, 9))
        m = int(rng.integers(1, 25))
        space = random_space(rng, m, mixed=bool(rng.integers(0, 2)))
        k = conditioned_operator(rng, d, int(rng.integers(1, d + 1)))
        frame = generate_random_bessel(d, space, derive_seed(1003, i, 1))
        exists = k_lower_bound(frame, k) is not None
        if exists != loewner_inclusion_exists(k.op, weighted_synthesis(frame)):
            agree = False
        included_count += int(exists)
        excluded_count += int(not exists)
    ok = agree and included_count > 0 and excluded_count > 0
    report(
        3,
        "lower-bound existence matches range inclusion (200 pairs)",
        ok,
        f"{included_count} included / {excluded_count} excluded, agreement {'ok' if agree else 'BROKEN'}",
    )
    assert ok


def test_criterion_04_canonical_dual_duality():
    worst_duality = 0.0
    worst_parseval = 0.0
    for i in range(200):
        rng = stream(1004, i)
        d = int(rng.integers(2, 17))
        r = int(rng.integers(1, d + 1))
        m = int(rng.integers(r, 65))
        space = random_space(rng, m, mixed=bool(rng.integers(0, 2)))
        k = conditioned_operator(rng, d, r)
        frame = generate_parseval_k_frame(k, space, derive_seed(1004, i, 1))
        dual = ParsevalKFrame(frame, k).dual
        worst_duality = max(
            worst_duality,
            op_norm(synthesis(frame) @ analysis(dual) - k.op) / (1.0 + k.norm),
        )
        an_dual = analysis(dual)
        for _ in range(5):
            g = k.adjoint_range_projector @ complex_normal(rng, d)
            lhs = float(np.sum(space.weights * np.abs(an_dual @ g) ** 2))
            rhs = float(np.vdot(g, g).real)
            worst_parseval = max(worst_parseval, abs(lhs - rhs) / (1.0 + rhs))
    ok = worst_duality <= 1e-9 and worst_parseval <= 1e-9
    report(
        4,
        "canonical dual reproduces K (200 instances)",
        ok,
        f"worst duality {worst_duality:.3e}, worst complement identity {worst_parseval:.3e}",
    )
    assert ok


def test_criterion_05_residual_field_round_trip():
    worst_recovery = 0.0
    worst_leak = 0.0
    for i in range(100):
        space, k, frame = parseval_instance(derive_seed(1005, i))
        rng = stream(1005, i, 2)
        pk = ParsevalKFrame(frame, k)
        phi = pk.sample_kernel_field(rng)
        g = pk.build_dual(phi)
        recovered = pk.residual_field(g)
        phi_norm = field_norm(space, phi)
        worst_recovery = max(
            worst_recovery, field_norm(space, recovered.phi - phi) / (1.0 + phi_norm)
        )
        worst_leak = max(
            worst_leak,
            op_norm(synthesis(frame) @ recovered.phi) / (1.0 + analysis_norm(frame) * phi_norm),
        )
    ok = worst_recovery <= 1e-9 and worst_leak <= 1e-9
    report(
        5,
        "kernel field round trip (100 duals)",
        ok,
        f"worst recovery {worst_recovery:.3e}, worst synthesis leak {worst_leak:.3e}",
    )
    assert ok


def test_criterion_06_minimal_analysis_norm():
    worst_minimality = 0.0
    worst_split = 0.0
    for i in range(200):
        space, k, frame = parseval_instance(derive_seed(1006, i))
        rng = stream(1006, i, 2)
        pk = ParsevalKFrame(frame, k)
        dual = pk.dual
        dual_norm = analysis_norm(dual)
        phi = pk.sample_kernel_field(rng)
        g = pk.build_dual(phi)
        worst_minimality = max(worst_minimality, dual_norm - analysis_norm(g))
        an_g = analysis(g)
        an_dual = analysis(dual)
        for _ in range(20):
            f = complex_normal(rng, frame.dim)
            total = float(np.sum(space.weights * np.abs(an_g @ f) ** 2))
            canonical = float(np.sum(space.weights * np.abs(an_dual @ f) ** 2))
            extra = float(np.sum(space.weights * np.abs(phi @ f) ** 2))
            f_scale = max(1e-12, float(np.vdot(f, f).real))
            worst_split = max(worst_split, abs(total - canonical - extra) / f_scale)
    ok = worst_minimality <= 1e-9 and worst_split <= 1e-9
    report(
        6,
        "canonical dual has minimal analysis norm (200 pairs, 20 probes each)",
        ok,
        f"worst norm excess {worst_minimality:.3e}, worst split {worst_split:.3e}",
    )
    assert ok


def test_criterion_07_gram_identity_characterization():
    forward_ok = True
    adversarial_ok = True
    checked_perturbed = 0
    for i in range(20):
        space, k, frame = parseval_instance(derive_seed(1007, i))
        pk = ParsevalKFrame(frame, k)
        dual = pk.dual
        if not pk.characterizes(dual, trials=50, seed=derive_seed(1007, i, 1)):
            forward_ok = False
        rng = stream(1007, i, 2)
        for _ in range(3):
            phi = pk.sample_kernel_field(rng)
            if field_norm(space, phi) == 0.0:
                continue
            g = pk.build_dual(phi)
            gap = float(np.max(np.linalg.norm(g.samples - dual.samples, axis=1)))
            if gap <= 1e-6:
                continue
            checked_perturbed += 1
            # One trial probes the canonical dual itself: the required witness.
            if pk.characterizes(g, trials=1, seed=0):
                adversarial_ok = False
    ok = forward_ok and adversarial_ok and checked_perturbed > 0
    report(
        7,
        "Gram identity characterizes the canonical dual (20 instances x 50 partners)",
        ok,
        f"forward {'ok' if forward_ok else 'BROKEN'}, "
        f"{checked_perturbed} perturbed all failed: {'yes' if adversarial_ok else 'no'}",
    )
    assert ok


def test_criterion_08_uniqueness_dichotomy():
    worst_gap = 0.0
    alternative_ok = True
    for i in range(100):
        rng = stream(1008, i)
        d = int(rng.integers(2, 9))
        space = random_space(rng, d, mixed=bool(rng.integers(0, 2)))
        k = conditioned_operator(rng, d, d)
        frame = generate_parseval_k_frame(k, space, derive_seed(1008, i, 1))
        pk = ParsevalKFrame(frame, k)
        assert pk.is_unique()
        dual = pk.dual
        # Independent second construction: minimal-norm solve against the
        # weighted synthesis matrix.
        x_weighted = pinv(weighted_synthesis(frame)) @ k.op
        g2 = SampledFrame(space, np.conj(x_weighted / space.sqrt_weights[:, None]))
        gap = float(np.max(np.linalg.norm(g2.samples - dual.samples, axis=1)))
        scale = 1.0 + float(np.max(np.linalg.norm(dual.samples, axis=1)))
        worst_gap = max(worst_gap, gap / scale)
    for i in range(100):
        rng = stream(1008, 1000 + i)
        d = int(rng.integers(2, 9))
        r = int(rng.integers(1, d + 1))
        m = int(rng.integers(d + 1, 21))
        space = random_space(rng, m, mixed=bool(rng.integers(0, 2)))
        k = conditioned_operator(rng, d, r)
        frame = generate_parseval_k_frame(k, space, derive_seed(1008, i, 2))
        pk = ParsevalKFrame(frame, k)
        assert not pk.is_unique()
        q = pk.alternative_dual(seed=derive_seed(1008, i, 3))
        dual = pk.dual
        if not is_dual_k_bessel(q, frame, k).is_dual:
            alternative_ok = False
        if float(np.max(np.linalg.norm(q.samples - dual.samples, axis=1))) <= 1e-6:
            alternative_ok = False
    ok = worst_gap <= 1e-9 and alternative_ok
    report(
        8,
        "uniqueness dichotomy (100 unique + 100 non-unique instances)",
        ok,
        f"worst construction gap {worst_gap:.3e}, alternatives {'ok' if alternative_ok else 'BROKEN'}",
    )
    assert ok


def test_criterion_09_independence_transfer():
    agree = True
    worst_pushforward = 0.0
    independent_count = 0
    for i in range(200):
        rng = stream(1009, i)
        d = int(rng.integers(2, 9))
        r = int(rng.integers(1, d + 1))
        m = r if i % 2 == 0 else int(rng.integers(r + 1, r + 9))
        space = random_space(rng, m, mixed=bool(rng.integers(0, 2)))
        k = conditioned_operator(rng, d, r)
        frame = generate_parseval_k_frame(k, space, derive_seed(1009, i, 1))
        pk = ParsevalKFrame(frame, k)
        frame_independent, dual_independent, _ = pk.independence_transfer()
        if frame_independent != dual_independent:
            agree = False
        if frame_independent:
            independent_count += 1
            dual = pk.dual
            gap = float(
                np.max(np.linalg.norm(frame.samples - dual.samples @ k.op.T, axis=1))
            )
            worst_pushforward = max(worst_pushforward, gap / (1.0 + k.norm))
    ok = agree and worst_pushforward <= 1e-9 and 0 < independent_count < 200
    report(
        9,
        "independence transfers to the dual (200 instances)",
        ok,
        f"{independent_count} independent, agreement {'ok' if agree else 'BROKEN'}, "
        f"worst push-forward gap {worst_pushforward:.3e}",
    )
    assert ok


def test_criterion_10_coefficient_norm_split():
    worst_split = 0.0
    worst_cross = 0.0
    for i in range(200):
        space, k, frame = parseval_instance(derive_seed(1010, i))
        rng = stream(1010, i, 2)
        f = complex_normal(rng, frame.dim)
        pk = ParsevalKFrame(frame, k)
        canonical_values = analysis(pk.dual) @ f
        for c in pk.coefficient_family(f, count=10, seed=derive_seed(1010, i, 3)):
            total, residual, canonical = pk.norm_split(f, c)
            worst_split = max(worst_split, abs(total - residual - canonical) / (1.0 + total))
            cross = np.sum(
                space.weights * (c.values - canonical_values) * np.conj(canonical_values)
            )
            worst_cross = max(worst_cross, abs(complex(cross)))
    # Hand-checkable instance reproduces (2, 1, 1) exactly.
    space, k, frame = fixture_w1_prime()
    f = np.array([1.0, 0.0], dtype=complex)
    c = L2Coefficients(space, np.array([np.sqrt(2.0), 0.0, 0.0]))
    total, residual, canonical = ParsevalKFrame(frame, k).norm_split(f, c)
    fixture_ok = (
        abs(total - 2.0) <= 1e-12 and abs(residual - 1.0) <= 1e-12 and abs(canonical - 1.0) <= 1e-12
    )
    ok = worst_split <= 1e-9 and worst_cross <= 1e-9 and fixture_ok
    report(
        10,
        "coefficient norm split (200 instances x 10 families)",
        ok,
        f"worst split {worst_split:.3e}, worst cross term {worst_cross:.3e}, "
        f"fixture exact: {'yes' if fixture_ok else 'no'}",
    )
    assert ok


def test_criterion_11_dual_frame_operator_identities():
    worst_projector = 0.0
    worst_pushforward = 0.0
    for i in range(200):
        space, k, frame = parseval_instance(derive_seed(1011, i))
        dual = ParsevalKFrame(frame, k).dual
        p = k.adjoint_range_projector
        scale = 1.0 + k.norm**2
        worst_projector = max(
            worst_projector, op_norm(frame_operator(dual) - p @ p.conj().T) / scale
        )
        pushed = SampledFrame(space, dual.samples @ k.op.T)
        worst_pushforward = max(
            worst_pushforward, op_norm(frame_operator(pushed) - k.op @ k.adjoint) / scale
        )
    ok = worst_projector <= 1e-9 and worst_pushforward <= 1e-9
    report(
        11,
        "dual frame operator identities (200 instances)",
        ok,
        f"worst projector identity {worst_projector:.3e}, worst push-forward {worst_pushforward:.3e}",
    )
    assert ok


def test_criterion_12_cli_determinism_and_diagnostics(tmp_path):
    doc = dict(fixture_scenario("W1p"), trials=20, seed=17)
    config = tmp_path / "scenario.json"
    config.write_text(json.dumps(doc))

    reports = []
    codes = []
    for name in ("a.json", "b.json"):
        out = tmp_path / name
        result = run_cli("verify", "--config", str(config), "--report", str(out))
        codes.append(result.returncode)
        loaded = json.loads(out.read_text())
        loaded.pop("wall_time_ms")
        reports.append(loaded)
    deterministic = reports[0] == reports[1] and codes == [0, 0]

    broken = tmp_path / "broken.json"
    broken.write_text(json.dumps({**doc, "weights": [1.0, -2.0, 1.0]}))
    bad = run_cli("verify", "--config", str(broken))
    diagnosed = bad.returncode == 2 and "weights[1]" in bad.stderr

    ok = deterministic and diagnosed
    report(
        12,
        "CLI determinism and config diagnostics",
        ok,
        f"identical reports: {'yes' if deterministic else 'no'}, "
        f"corrupted config exit 2 with field path: {'yes' if diagnosed else 'no'}",
    )
    assert ok
