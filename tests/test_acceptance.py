"""End-to-end gate for the library's advertised numerical guarantees.

Each test prints one PASS/FAIL line (run with ``pytest -s`` to see them
all); every tolerance is pinned here, not deferred.
"""

import math
import random
from fractions import Fraction

from geoseq import (
    CONVERGING,
    Exponents,
    GeoScalar,
    LambdaSequence,
    OrliczFunction,
    SpaceSpec,
    check_delta2_inclusion,
    check_exponent_inclusion,
    check_linear_combination,
    check_solidity,
    classify_membership,
    difference_transform_log,
    fib,
    from_log,
    gabs,
    gadd,
    generate_member,
    gmul,
    gscale,
    gsub,
    gsum,
    kernel_log_sequence,
    luxemburg_norm,
    modular_density_bound,
    paranorm,
    stat_converges,
    stat_density,
)
from geoseq.cli import main
from geoseq.fibonacci import GOLDEN_RATIO, fib_inverse_ratio, fib_partial_sum
from geoseq.orlicz_checks import small_argument_threshold


def criterion(label: str, ok: bool) -> None:
    print(f"{'PASS' if ok else 'FAIL'} {label}")
    assert ok, label


def gs(u):
    return GeoScalar.from_log(u)


def spec(lam, M, p, variant="zero", transform="fhat", rho=1.0):
    return SpaceSpec(
        lam=lam, orlicz=M, exponents=p, variant=variant,
        transform=transform, rho=rho,
    )


P1 = OrliczFunction.power(1.0)
P2 = OrliczFunction.power(2.0)
E1 = Exponents.constant(1.0)


def test_01_isomorphism_oracle():
    rng = random.Random(1_000_003)
    ok = True
    for _ in range(100_000):
        u = rng.uniform(-50.0, 50.0)
        v = rng.uniform(-50.0, 50.0)
        c = rng.uniform(-3.0, 3.0)
        x, y = gs(u), gs(v)
        ok &= abs(gadd(x, y).log - (u + v)) <= 1e-12
        ok &= abs(gsub(x, y).log - (u - v)) <= 1e-12
        ok &= abs(gmul(x, y).log - (u * v)) <= 1e-12
        ok &= abs(gscale(c, x).log - (c * u)) <= 1e-12
        ok &= abs(gabs(x).log - abs(u)) <= 1e-12
        ok &= abs(gsum([x, y, x]).log - math.fsum([u, v, u])) <= 1e-12
        if not ok:
            break
    criterion("01 isomorphism: 1e5 random pairs, every op within 1e-12", ok)


def test_02_fibonacci_identities():
    cassini_ok = all(
        fib(n - 1) * fib(n + 1) - fib(n) ** 2 == (-1) ** (n + 1)
        for n in range(1, 301)
    )
    sum_ok = all(fib_partial_sum(n) == fib(n + 2) - 1 for n in range(301))
    ratio_ok = all(
        abs(fib_inverse_ratio(n) - GOLDEN_RATIO) <= 1e-12 for n in range(40, 301)
    )
    criterion("02 exact product/sum identities to n=300, ratio within 1e-12",
              cassini_ok and sum_ok and ratio_ok)


def test_03_kernel_witness():
    u = kernel_log_sequence(26)
    y = difference_transform_log(u)
    rows_ok = all(abs(y[k]) <= 1e-9 * u[k] for k in range(1, 26))

    # exact-rational oracle: the transformed rows vanish identically
    f = [fib(n) for n in range(28)]
    exact_ok = all(
        Fraction(f[k], f[k + 1]) * int(u[k])
        - Fraction(f[k + 1], f[k]) * int(u[k - 1])
        == 0
        for k in range(1, 26)
    )

    res = paranorm(from_log(u), spec(LambdaSequence.half(), P1, E1))
    # pinned at the float cancellation scale of the witness (~eps * f_k f_{k+1})
    paranorm_ok = res.g <= 1e-5
    criterion(
        "03 kernel witness: rows within 1e-9 relative, paranorm 0 (<= 1e-5)",
        rows_ok and exact_ok and paranorm_ok,
    )


def test_04_constant_sequences():
    ok = True
    s = spec(LambdaSequence.half(), P2, E1, variant="limit")
    for c in (-2.0, 0.5, 3.0):
        rep = classify_membership(from_log([c] * 200), s)
        ok &= rep.verdict == CONVERGING
        ok &= abs(rep.limit_estimate.log + c) <= 1e-3
    criterion("04 constant sequences converge with limit within 1e-3", ok)


def test_05_paranorm_contract():
    zero_ok = paranorm(from_log([0.0] * 30), spec(LambdaSequence.half(), P1, E1)).g == 0.0

    closed = paranorm(
        from_log([1.0] + [0.0] * 39),
        spec(LambdaSequence.identity(), P1, E1, transform="identity"),
    )
    closed_ok = abs(closed.rho_star - 1.0) <= 1e-9

    # triangle inequality over 1000 random pairs at a fixed spec; the
    # monotonicity of the constraint map is asserted inside every probe
    s = spec(LambdaSequence.half(), P1, E1)
    rng = random.Random(55_001)
    triangle_ok = True
    for _ in range(1000):
        u = [rng.uniform(-3.0, 3.0) for _ in range(16)]
        v = [rng.uniform(-3.0, 3.0) for _ in range(16)]
        gx = paranorm(from_log(u), s).g
        gy = paranorm(from_log(v), s).g
        gxy = paranorm(from_log([a + b for a, b in zip(u, v)]), s).g
        if gxy > gx + gy + 1e-9:
            triangle_ok = False
            break
    criterion(
        "05 paranorm: zero maps to 0, closed-form scale 1 within 1e-9, "
        "triangle within 1e-9 on 1000 pairs",
        zero_ok and closed_ok and triangle_ok,
    )


def test_06_linear_combination_bound():
    rng = random.Random(66_001)
    profiles = [E1, Exponents.constant(1.5), Exponents.formula(1.0, 1.0)]
    ok = True
    for trial in range(100):
        for p in profiles:
            s = spec(LambdaSequence.half(), P2, p)
            x = from_log([rng.uniform(-5, 5) for _ in range(40)])
            y = from_log([rng.uniform(-5, 5) for _ in range(40)])
            out = check_linear_combination(
                x, y, rng.uniform(-3, 3), rng.uniform(-3, 3), s,
                rng.uniform(0.5, 2.0), rng.uniform(0.5, 2.0), slack=1e-12,
            )
            ok &= out.passed
        if not ok:
            break
    criterion("06 combination bound B*(S1+S2): zero violations beyond 1e-12", ok)


def test_07_solidity():
    rng = random.Random(77_001)
    s = spec(LambdaSequence.half(), P2, E1, transform="identity")
    ok = True
    for trial in range(100):
        y = from_log([rng.uniform(-3, 3) for _ in range(40)])
        alphas = [gs(rng.uniform(-1, 1)) for _ in range(40)]
        ok &= check_solidity(y, alphas, s, slack=1e-12).passed
        masks = [gs(float(rng.randint(0, 1))) for _ in range(40)]
        ok &= check_solidity(y, masks, s, slack=1e-12).passed
        if not ok:
            break
    criterion("07 solidity: damped modulars never exceed originals", ok)


def test_08_density_bound_and_consistency():
    rng = random.Random(88_001)
    s = spec(LambdaSequence.half(), P2, E1, variant="limit")
    bound_ok = True
    for trial in range(100):
        x = from_log([rng.uniform(-3, 3) for _ in range(40)])
        ell = gs(rng.uniform(-1, 1))
        epsilon = gs(rng.uniform(0.1, 2.0))
        for n in range(1, 40):
            lhs, rhs = modular_density_bound(x, s, ell, epsilon, n)
            if lhs < rhs - 1e-12 * max(1.0, abs(rhs)):
                bound_ok = False
                break
        if not bound_ok:
            break

    consistency_ok = True
    m_spec = spec(LambdaSequence.half(), P2, E1, variant="limit")
    for trial in range(100):
        sample = generate_member(m_spec, 88, 56, "acc_consistency", trial)
        rep = classify_membership(sample.sequence, m_spec)
        if rep.verdict != CONVERGING:
            consistency_ok = False
            break
        for eps_log in (0.1, 1.0, 2.0):
            trace = stat_density(
                sample.sequence, m_spec.lam, rep.limit_estimate, gs(eps_log)
            )
            if stat_converges(trace) != CONVERGING:
                consistency_ok = False
                break
        if not consistency_ok:
            break
    criterion(
        "08 density bound exact on all windows; strong => statistical at "
        "three thresholds",
        bound_ok and consistency_ok,
    )


def test_09_doubling_inclusion():
    from geoseq import delta2_constant

    ok = True
    for p in (1.0, 2.0, 3.0):
        M = OrliczFunction.power(p)
        rep = delta2_constant(M)
        ok &= abs(rep.K - 2.0 ** p) <= 1e-12 * 2.0 ** p
        s = spec(LambdaSequence.half(), M, E1, variant="limit")
        eps = 0.1
        delta = small_argument_threshold(M, eps)
        trials = 100 if p == 2.0 else 20
        for trial in range(trials):
            sample = generate_member(s, 99, 56, f"acc_d2_{p}", trial)
            out = check_delta2_inclusion(
                sample.sequence, M, s, delta, eps, ell=sample.ell, slack=1e-12
            )
            ok &= out.passed
            if not ok:
                break
    criterion(
        "09 doubling inclusion: K = 2**p exactly, window bound and "
        "end-to-end hold",
        ok,
    )


def test_10_exponent_inclusion():
    ok = True
    s = spec(LambdaSequence.half(), P2, E1)
    pairings = [
        (Exponents.constant(1.0), Exponents.constant(2.0)),      # q = 2p
        (Exponents.constant(1.0), Exponents.formula(1.0, 1.0)),  # q = p + 1/k
    ]
    for p, q in pairings:
        for trial in range(100):
            sample = generate_member(
                spec(LambdaSequence.half(), P2, q), 111, 56, "acc_pq", trial
            )
            out = check_exponent_inclusion(sample.sequence, p, q, s, slack=1e-12)
            ok &= out.passed
            if not ok:
                break
    criterion("10 exponent inclusion: split bound and q => p membership", ok)


def test_11_luxemburg_matches_lp():
    rng = random.Random(111_001)
    ok = True
    for p in (1.0, 2.0, 4.0):
        M = OrliczFunction.power(p)
        for _ in range(1000):
            x = [rng.uniform(-10, 10) for _ in range(rng.randint(1, 12))]
            lp = sum(abs(v) ** p for v in x) ** (1.0 / p)
            if abs(luxemburg_norm(x, M) - lp) > 1e-9 * max(1.0, lp):
                ok = False
                break
        if not ok:
            break
    criterion("11 Luxemburg norm matches the p-norm within 1e-9 on 3000 vectors", ok)


def test_12_determinism(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(
        '{"lambda": {"kind": "half"}, "orlicz": {"kind": "power", "p": 2},'
        ' "trials": 10}'
    )
    outputs = []
    for name in ("r1.json", "r2.json"):
        out = tmp_path / name
        code = main(
            [
                "verify", "--config", str(cfg), "--seed", "42",
                "--format", "json", "--out", str(out),
            ]
        )
        assert code == 0
        outputs.append(out.read_bytes())
    criterion("12 verify --seed 42 twice: byte-identical reports",
              outputs[0] == outputs[1])
