import ast
import math
import random
import re

import pytest

from entropia import arith, entropy, laws, numfield
from entropia.errors import DomainError, RangeError, VerificationError
from entropia.laws import (
    Relation,
    check_corollary_ideal,
    check_corollary_int,
    check_family_exponents_ge3,
    check_family_pkq,
    check_family_two_prime_powers,
    classify_prop41,
    gap_formula,
    product_entropy_gap,
    scan_product_inequality,
)


# --- gap and the closed-form identity ---------------------------------------


def test_gap_goldens():
    rep = product_entropy_gap(22, 105)
    assert rep.relation is Relation.LESS
    assert rep.gap == pytest.approx(math.log(5 / 6), abs=1e-12)
    rep = product_entropy_gap(20, 63)
    assert rep.relation is Relation.GREATER
    assert rep.gap == pytest.approx(math.log(32 / 27) / 3, abs=1e-12)
    rep = product_entropy_gap(6, 35)
    assert rep.relation is Relation.EQUAL
    assert rep.gap == pytest.approx(0.0, abs=1e-12)


def test_gap_validation():
    with pytest.raises(DomainError):
        product_entropy_gap(6, 10)  # not coprime
    with pytest.raises(DomainError):
        product_entropy_gap(1, 5)


def test_gap_formula_matches_direct_on_range():
    for m in range(2, 60):
        for n in range(2, 60):
            if math.gcd(m, n) != 1:
                continue
            rep = product_entropy_gap(m, n)  # raises internally on mismatch
            formula = gap_formula(arith.factorize(m), arith.factorize(n))
            assert formula == pytest.approx(rep.gap, rel=1e-12, abs=1e-12)


def _gap_direct_oracle(m, n):
    h_m = entropy.entropy_H(arith.factorize(m))
    h_n = entropy.entropy_H(arith.factorize(n))
    h_mn = entropy.entropy_H(arith.factorize(m * n))
    gap = h_mn - h_m - h_n
    return laws.GapReport(m, n, h_m, h_n, h_mn, gap, laws._relation(gap))


def _product_entropy_gap_oracle(m, n):
    """product_entropy_gap as it was when it factored mn itself."""
    if m < 2 or n < 2:
        raise DomainError("m and n must both be >= 2")
    if math.gcd(m, n) != 1:
        raise DomainError(f"gcd({m}, {n}) != 1")
    rep = _gap_direct_oracle(m, n)
    formula = gap_formula(arith.factorize(m), arith.factorize(n))
    if abs(rep.gap - formula) > laws.EQUAL_TOL * max(1.0, abs(rep.gap)):
        raise VerificationError(
            f"gap routes disagree for ({m}, {n}): direct {rep.gap}, formula {formula}"
        )
    return rep


def _same_report(got, want):
    """Equal dataclasses, with every float equal bit for bit."""
    assert got == want
    for a, b in zip(vars(got).values(), vars(want).values()):
        if isinstance(a, float):
            assert a.hex() == b.hex()


def test_gap_from_merged_factorizations_matches_factoring_mn():
    for m in range(2, 151):
        for n in range(2, 151):
            if math.gcd(m, n) == 1:
                _same_report(product_entropy_gap(m, n), _product_entropy_gap_oracle(m, n))
    rng = random.Random(8)
    pairs = 0
    while pairs < 2000:
        m, n = rng.randint(2, 10**9), rng.randint(2, 10**9)
        if math.gcd(m, n) == 1:
            _same_report(product_entropy_gap(m, n), _product_entropy_gap_oracle(m, n))
            pairs += 1


def test_gap_routes_disagreeing_raise(monkeypatch):
    monkeypatch.setattr(laws, "gap_formula", lambda fm, fn: 1.0)
    with pytest.raises(VerificationError, match="gap routes disagree"):
        product_entropy_gap(22, 105)


# --- parametric families ----------------------------------------------------


def test_family_pkq():
    rep = check_family_pkq(2, 3, 5, 1)
    assert rep.relation is Relation.LESS
    assert rep.h_m == pytest.approx(math.log(2))
    assert rep.h_mn == pytest.approx(math.log(4) - 0.5 * math.log(2))
    assert check_family_pkq(2, 3, 5, 2).relation is Relation.LESS
    with pytest.raises(DomainError):
        check_family_pkq(2, 2, 5, 1)


def test_family_two_prime_powers():
    rep = check_family_two_prime_powers(2, 3, 5, 7, 1)
    assert rep.relation is Relation.EQUAL
    for k in (2, 3, 5):
        assert check_family_two_prime_powers(2, 3, 5, 7, k).relation is Relation.GREATER
    with pytest.raises(DomainError):
        check_family_two_prime_powers(2, 3, 5, 5, 1)


def test_family_grids_clean():
    summary = laws.check_family_grids(pkq_primes=5, pkq_max_k=4, tpp_primes=6, tpp_max_k=4)
    assert summary.ok
    assert summary.extra["equal_at_k"] == [1]


def test_family_exponents_ge3_small_cases_hold():
    assert check_family_exponents_ge3(8, 27).relation is Relation.GREATER
    assert check_family_exponents_ge3(2**3 * 3**4, 5**3).relation is Relation.GREATER
    assert check_family_exponents_ge3(2**5, 3**3 * 5**4).relation is Relation.GREATER
    with pytest.raises(DomainError):
        check_family_exponents_ge3(12, 25)  # exponent < 3


def test_family_exponents_ge3_has_counterexamples():
    # The claimed inequality fails once both Omega values grow: the
    # checker must detect and report it.
    with pytest.raises(VerificationError):
        check_family_exponents_ge3(2**3 * 3**3, 5**4 * 7**4)


def _exponents_ge3_oracle(m, n):
    """check_family_exponents_ge3 as it was when _gap_direct factored m, n, mn."""
    rep = _gap_direct_oracle(m, n)
    if rep.relation is not Relation.GREATER:
        raise VerificationError(f"expected GREATER for exponents>=3 family, got {rep}")
    return rep


def _outcome(check, m, n):
    try:
        return check(m, n), None
    except VerificationError as exc:
        return None, str(exc)


def test_family_exponents_ge3_matches_the_factor_mn_route():
    # The pairs random_exponents_ge3_family draws at seeds 0 and 3.
    primes = arith.primes_up_to(60)
    for seed in (0, 3):
        rng = random.Random(seed)
        for _ in range(10**3):
            ps = rng.sample(primes, rng.randint(2, 4))
            split = rng.randint(1, len(ps) - 1)
            m = math.prod(p ** rng.randint(3, 6) for p in ps[:split])
            n = math.prod(p ** rng.randint(3, 6) for p in ps[split:])
            got, got_err = _outcome(check_family_exponents_ge3, m, n)
            want, want_err = _outcome(_exponents_ge3_oracle, m, n)
            assert got_err == want_err
            if want is not None:
                _same_report(got, want)


def test_family_exponents_ge3_factors_each_value_once(monkeypatch):
    factored = _count_calls(monkeypatch, arith, "factorize")
    check_family_exponents_ge3(8, 625)
    assert factored == [(8,), (625,)]


@pytest.mark.xfail(
    strict=True,
    reason="claimed inequality is false for larger exponent sums; "
    "counterexample m=216, n=1500625",
)
def test_family_exponents_ge3_claim_as_stated():
    summary = laws.random_exponents_ge3_family(count=10**3, seed=0)
    assert summary.ok


# --- appended-prime trichotomy ----------------------------------------------


def test_prop41_case_i_squarefree():
    rep = classify_prop41(6, 5, 3, 1)
    assert "i" in rep.cases and not rep.contradictions
    assert rep.threshold == pytest.approx(1.0, abs=1e-12)
    assert rep.h_alpha <= rep.h_beta + 1e-12


def test_prop41_case_ii():
    rep = classify_prop41(32, 3, 2, 1)  # threshold = 5; alpha stays below it
    assert rep.cases == ("ii",) and not rep.contradictions
    assert rep.h_alpha >= rep.h_beta - 1e-12


def test_prop41_alpha_equals_beta():
    rep = classify_prop41(12, 5, 2, 2)
    assert rep.h_alpha == rep.h_beta
    assert not rep.contradictions


def test_prop41_validation():
    with pytest.raises(DomainError):
        classify_prop41(6, 3, 2, 1)  # p | n
    with pytest.raises(DomainError):
        classify_prop41(6, 5, 1, 2)  # alpha < beta
    with pytest.raises(DomainError):
        classify_prop41(1, 5, 2, 1)  # n < 2
    with pytest.raises(DomainError):
        classify_prop41(6, 25, 2, 1)  # p not prime
    with pytest.raises(DomainError):
        classify_prop41(6, 5, 0, 0)  # beta < 1


def test_prop41_case_iii_counterexample_detected():
    # n=12, p=5: threshold = 2^(2/3); beta=1 <= thr <= alpha=2, yet
    # H(12*25) > H(12*5).  The classifier must flag case iii.
    rep = classify_prop41(12, 5, 2, 1, strict=False)
    assert rep.cases == ("iii",)
    assert rep.contradictions == ("iii",)
    with pytest.raises(VerificationError):
        classify_prop41(12, 5, 2, 1)


def _classify_prop41_oracle(n, p, alpha, beta):
    """classify_prop41(strict=False) as it was, with H(n) computed three times."""
    if n < 2:
        raise DomainError("n must be >= 2")
    if not arith.is_prime(p):
        raise DomainError(f"{p} is not prime")
    if n % p == 0:
        raise DomainError(f"p = {p} must be coprime to n = {n}")
    if not 1 <= beta <= alpha:
        raise DomainError(f"need alpha >= beta >= 1, got alpha={alpha}, beta={beta}")
    tol = laws.EQUAL_TOL
    f = arith.factorize(n)
    thr = entropy.threshold(f)
    h_a = entropy.entropy_H_appended(f, p, alpha)
    h_b = entropy.entropy_H_appended(f, p, beta)
    cases: list[str] = []
    if beta >= thr - tol:
        cases.append("i")
    if alpha <= thr + tol:
        cases.append("ii")
    if beta <= thr + tol and alpha >= thr - tol:
        cases.append("iii")
    contradictions = []
    for case in cases:
        if case in ("i", "iii") and h_a > h_b + tol:
            contradictions.append(case)
        elif case == "ii" and h_a < h_b - tol:
            contradictions.append(case)
    return laws.Prop41Report(
        n, p, alpha, beta, thr, h_a, h_b, tuple(cases), tuple(contradictions)
    )


def test_prop41_matches_the_three_call_route():
    rng = random.Random(41)
    primes = arith.primes_up_to(100)
    for _ in range(3000):
        n = rng.randint(2, 10**6)
        p = rng.choice([q for q in primes if n % q])
        beta = rng.randint(1, 12)
        alpha = beta + rng.randint(0, 12)
        _same_report(
            classify_prop41(n, p, alpha, beta, strict=False),
            _classify_prop41_oracle(n, p, alpha, beta),
        )


def _count_calls(monkeypatch, module, name):
    calls = []
    real = getattr(module, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)
    return calls


def test_prop41_factors_once_and_computes_h_once(monkeypatch):
    factored = _count_calls(monkeypatch, arith, "factorize")
    entropies = _count_calls(monkeypatch, entropy, "entropy_H")
    classify_prop41(12, 5, 2, 1, strict=False)
    assert len(factored) == 1 and len(entropies) == 1


@pytest.mark.xfail(
    strict=True,
    reason="trichotomy case iii is false as stated; see (n=12, p=5, alpha=2, beta=1)",
)
def test_prop41_no_contradictions_as_stated():
    assert laws.random_prop41(count=2000, seed=0).ok


def test_prop41_cases_i_and_ii_never_contradicted():
    summary = laws.random_prop41(count=2000, seed=0)
    for message in summary.violations:
        assert "('iii',)" in message  # every contradiction names case iii only


# --- e-divisor corollaries --------------------------------------------------


def test_corollary_int_validation():
    with pytest.raises(DomainError):
        check_corollary_int(12)  # omega = 2
    with pytest.raises(DomainError):
        check_corollary_int(2**3 * 3 * 5)  # exponent 3


def test_corollary_int_squarefree_passes_trivially():
    rep = check_corollary_int(30)
    assert rep.checked == 1 and not rep.violations


def test_corollary_int_uniform_square_passes():
    rep = check_corollary_int((2 * 3 * 5) ** 2)
    assert rep.checked == 8 and not rep.violations


def test_corollary_int_mixed_exponents_fail():
    # The radical is an e-divisor with H = log omega(n) > H(n).
    rep = check_corollary_int(60, strict=False)
    assert rep.violations == ((30, pytest.approx(math.log(3))),)
    with pytest.raises(VerificationError):
        check_corollary_int(60)
    # ... including the 180/30 instance; the 180/60 pair alone does hold:
    rep = check_corollary_int(180, strict=False)
    assert 30 in [v for v, _ in rep.violations]
    assert 60 not in [v for v, _ in rep.violations]


@pytest.mark.xfail(
    strict=True,
    reason="H(d_e) <= H(n) fails for every conforming n with mixed exponents; "
    "smallest counterexample n=60, d_e=30",
)
def test_corollary_int_as_stated():
    assert laws.sweep_corollary_int(10**3).ok


def test_corollary_ideal_mirrors_integer_case():
    uniform = numfield.SplittingPattern(((1, 1),) * 3)
    rep = check_corollary_ideal(uniform)
    assert rep.checked == 1 and not rep.violations
    mixed = numfield.SplittingPattern(((2, 1), (2, 1), (1, 1)))
    with pytest.raises(VerificationError):
        check_corollary_ideal(mixed)
    rep = check_corollary_ideal(mixed, strict=False)
    assert ((1, 1, 1), pytest.approx(math.log(3))) in rep.violations
    with pytest.raises(DomainError):
        check_corollary_ideal(numfield.SplittingPattern(((1, 1), (1, 1))))
    with pytest.raises(DomainError):
        check_corollary_ideal(numfield.SplittingPattern(((3, 1), (1, 1), (1, 1))))


def test_corollary_errors_name_their_subject():
    with pytest.raises(DomainError, match=r"n=12: 2 exponents"):
        check_corollary_int(12)
    with pytest.raises(DomainError, match=r"n=120: an exponent outside"):
        check_corollary_int(120)
    with pytest.raises(DomainError, match=r"indices \(1, 1\): 2 exponents"):
        check_corollary_ideal(numfield.SplittingPattern(((1, 1), (1, 1))))


def test_corollary_int_violations_match_the_edivisor_values():
    # Each violating vector maps to its value; the values stay ascending.
    for n in range(2, 3001):
        f = arith.factorize(n)
        if len(f.entries) < 3 or max(f.exponents) > 2:
            continue
        h_n = entropy.entropy_H(f)
        want = []
        for d in arith.exponential_divisors(f):
            h_d = entropy.entropy_H(arith.factorize(d))
            if h_d > h_n + laws.EQUAL_TOL:
                want.append((d, h_d))
        rep = laws._corollary_int_on(f, strict=False)
        assert rep.violations == tuple(want), n
        assert rep.checked == arith.tau_e(f.exponents)


def test_corollary_kernel_matches_the_class_count():
    # The class table that sweep_corollary_int multiplies out, against
    # enumeration, for omega up to 8 (sweeps to 10^5 reach only omega 6).
    for omega in range(3, 9):
        for t in range(omega + 1):
            _, checked, violations = laws._edivisor_bound(
                "class", (1,) * (omega - t) + (2,) * t
            )
            assert checked == 2**t
            assert len(violations) == laws._corollary_class_violations(omega - t, t)


def test_corollary_ideal_witnesses_are_edivisors_of_their_indices():
    summary = laws.sweep_corollary_ideal()
    assert (summary.checked, summary.violation_count) == (56, 112)
    assert len(summary.violations) == laws.MAX_VIOLATIONS_KEPT
    line = re.compile(r"e=(\(.*?\)): H\((\(.*?\))\) = (\S+) > H\(I\) = (\S+)")
    for message in summary.violations:
        es, betas, h_d, h_i = line.fullmatch(message).groups()
        es, betas = ast.literal_eval(es), ast.literal_eval(betas)
        assert len(betas) == len(es), message
        assert all(e % b == 0 for e, b in zip(es, betas)), message
        assert h_d == format(entropy.entropy_of_exponents(betas), ".12g")
        assert h_i == format(entropy.entropy_of_exponents(es), ".12g")


def test_ideal_sweeps_refuse_vacuous_bounds():
    with pytest.raises(DomainError, match="bound >= 3"):
        laws.sweep_corollary_ideal(2)
    with pytest.raises(DomainError, match="bound >= 2"):
        laws.sweep_ideal_edivisor_counts(1)
    assert laws.sweep_corollary_ideal(3).checked == 8
    assert laws.sweep_ideal_edivisor_counts(2).checked == len(laws.FIELD_MATRIX)


# --- scans and sweeps -------------------------------------------------------


def test_scan_product_inequality():
    summary = scan_product_inequality(200, 200)
    assert summary.counts["LESS"] > 0
    assert summary.counts["EQUAL"] > 0
    assert summary.counts["GREATER"] > 0
    assert sum(summary.counts.values()) == summary.pairs
    assert not summary.violations
    # witnesses recompute to the reported gap
    for witness in (summary.witness_greater, summary.witness_less):
        m, n, gap = witness
        assert product_entropy_gap(m, n).gap == pytest.approx(gap, abs=1e-12)


def test_scan_range_guard_and_boundary():
    with pytest.raises(RangeError):
        scan_product_inequality(10**5, 10)
    summary = scan_product_inequality(2, 2)
    assert summary.pairs == 0  # (2, 2) filtered by gcd


def test_sweep_entropy_bounds_small():
    summary = laws.sweep_entropy_bounds(10**4)
    assert summary.ok and summary.checked == 10**4 - 1


def test_sweep_edivisor_counts_small():
    summary = laws.sweep_edivisor_counts(10**4)
    assert summary.ok


# Each part of the edivisors suite, given one planted fault, must report it.


def test_edivisors_reports_a_dropped_edivisor(monkeypatch):
    enumerate_all = arith.exponential_divisors
    monkeypatch.setattr(
        arith,
        "exponential_divisors",
        lambda f: enumerate_all(f)[:-1] if f.value == 7200 else enumerate_all(f),
    )
    summary = laws.sweep_edivisor_counts(10**4)
    assert summary.violation_count == 1
    assert summary.violations == [
        "n=7200: e-divisors [30, 90, 150, 450, 480, 1440, 2400] enumerated, "
        "[30, 90, 150, 450, 480, 1440, 2400, 7200] by definition"
    ]


def test_edivisors_reports_a_wrong_kernel_tau(monkeypatch):
    tau_e = arith.tau_e
    monkeypatch.setattr(arith, "tau_e", lambda es: 3 if tuple(es) == (7,) else tau_e(es))
    summary = laws.sweep_edivisor_counts(1000)
    assert summary.violation_count == 4  # 128 times 1, 3, 5 and 7
    assert summary.violations[0] == "n=128: tau_e = 3 by the exponent kernel, 2 by 1 * g"


def test_edivisors_reports_a_wrong_convolution_weight(monkeypatch):
    weights = laws._convolution_weights
    monkeypatch.setattr(
        laws,
        "_convolution_weights",
        lambda limit: [(k, w + (k == 2**5)) for k, w in weights(limit)],
    )
    summary = laws.sweep_edivisor_counts(1000)
    assert summary.violation_count == 1000 // 32
    assert summary.violations[0] == "n=32: tau_e = 2 by the exponent kernel, 3 by 1 * g"


def test_ideal_edivisors_reports_a_dropped_vector(monkeypatch):
    vectors = arith.exponential_divisor_vectors
    monkeypatch.setattr(
        arith,
        "exponential_divisor_vectors",
        lambda es: vectors(es)[:-1] if tuple(es) == (12,) else vectors(es),
    )
    summary = laws.sweep_ideal_edivisor_counts()
    assert summary.violation_count == 1
    assert summary.violations == [
        "pattern ((12, 1),): e-divisor vectors [(1,), (2,), (3,), (4,), (6,)], "
        "definition [(1,), (2,), (3,), (4,), (6,), (12,)]"
    ]


def test_sweep_splitting_small():
    summary = laws.sweep_splitting(10**3)
    assert summary.ok


def test_splitting_reports_a_pattern_of_the_wrong_degree(monkeypatch):
    split = numfield._split_quadratic
    monkeypatch.setattr(
        numfield, "_split_quadratic", lambda d, p: ((1, 1),) if p == 7 else split(d, p)
    )
    summary = laws.sweep_splitting(20)
    assert summary.checked == len(laws.FIELD_MATRIX) * 8  # 8 primes <= 20
    quads = [f for f in laws.FIELD_MATRIX if isinstance(f, numfield.Quadratic)]
    assert summary.violation_count == len(quads)
    assert summary.violations == [
        f"quad:{f.d}, p=7: sum e_i f_i = 1 != degree 2" for f in quads
    ]


def _splitting_per_prime(max_p):
    """sweep_splitting as it ran before its per-pattern verdicts: every
    check at every (field, p)."""
    summary = laws.CheckSummary("splitting", 0)
    for fld in laws.FIELD_MATRIX:
        label = numfield.field_label(fld)
        for p in arith.primes_up_to(max_p):
            summary.checked += 1
            try:
                sp = numfield.split_prime(fld, p)
            except DomainError as exc:
                summary.record(f"{label}, p={p}: {exc}")
                continue
            if numfield.is_galois(fld):
                es = set(sp.ramification_indices)
                fs = set(sp.residue_degrees)
                if len(es) != 1 or len(fs) != 1:
                    summary.record(f"{label}, p={p}: non-uniform Galois pattern")
                    continue
                e, f = es.pop(), fs.pop()
                if e * f * sp.g != fld.degree:
                    summary.record(f"{label}, p={p}: efg != degree")
                if abs(numfield.ideal_entropy(sp) - math.log(sp.g)) > laws.EQUAL_TOL:
                    summary.record(f"{label}, p={p}: H != log g")
    return summary


def test_splitting_reports_every_prime_of_a_failing_pattern(monkeypatch):
    split = numfield._split_cyclotomic
    monkeypatch.setattr(
        numfield,
        "_split_cyclotomic",
        # Degree 4, so the pattern is built, but not uniform.
        lambda l, p: ((2, 1), (1, 2)) if l == 5 and p != 5 else split(l, p),
    )
    summary = laws.sweep_splitting(100)
    primes = [p for p in arith.primes_up_to(100) if p != 5]
    assert summary.violation_count == len(primes) == 24
    assert summary.violations == [
        f"cyclo:5, p={p}: non-uniform Galois pattern" for p in primes[:20]
    ]
    assert summary == _splitting_per_prime(100)


def test_splitting_sweep_equals_a_check_at_every_prime():
    summary = laws.sweep_splitting(10**4)
    assert summary.checked == 20893 and summary.ok
    assert summary == _splitting_per_prime(10**4)


def test_random_suites_clean():
    assert laws.random_eq_identity(count=2000, bound=10**5, seed=0).ok
    assert laws.random_hbar_additivity(count=2000, seed=0).ok
    assert laws.check_appended_identity(count=2000, seed=0).ok
    assert laws.check_hbar_closed_form().ok
    assert laws.check_shannon_identity().ok
    assert laws.check_hbar_limit_monotone(10**5).ok


def test_hbar_limit_witnesses_name_integer_primes(monkeypatch):
    monkeypatch.setattr(arith, "primes_up_to", lambda limit: [2, 5, 3, 7])
    summary = laws.check_hbar_limit_monotone(10)
    assert summary.violation_count == 1
    assert summary.violations == ["not decreasing between primes 5 and 3"]


def test_eq_identity_needs_a_coprime_pair_in_range():
    # Below 3 the only draw is (2, 2); rejected instead of redrawing forever.
    with pytest.raises(DomainError):
        laws.random_eq_identity(count=1, bound=2)
    assert laws.random_eq_identity(count=10, bound=3).checked == 10
