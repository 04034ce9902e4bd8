"""Wildness detectors, the polynilpotent constructor, and the span
sampler with its exact-rank oracle."""
from fractions import Fraction

import pytest

from tangentia import (
    AlgebraError,
    Derivation,
    Endomorphism,
    NotIA,
    QuotientContext,
    build_polynilpotent_witness,
    corpus,
    detect_divergence_wild,
    detect_rank2_associative,
    derivation_from_vector,
    derivation_vector,
    divergence,
    divergence_kernel_rank,
    free_associative,
    free_lie,
    ia_level,
    metabelian_context,
    metabelian_lie,
    nilpotent_context,
    polynilpotent_context,
    polynomial,
    tangent,
    tangent_span,
    user_context,
    var_m2k_context,
)
from tangentia import wildness
from tangentia.wildness import EVIDENCE_BUILTIN, EVIDENCE_USER, LeadingTerm, _lt_bracket


# -- contexts ---------------------------------------------------------------


def test_context_min_degrees():
    L = free_lie(3)
    assert metabelian_context(L).min_degree == 4
    assert nilpotent_context(L, 2).min_degree == 4
    assert var_m2k_context(free_associative(2)).min_degree == 5
    assert polynilpotent_context(L, (2, 1)).min_degree == 6
    assert polynilpotent_context(L, (1, 15, 1)).min_degree == 64
    assert user_context(L, "my ideal", 7).min_degree == 7


def test_context_rejects_small_ideals():
    with pytest.raises(AlgebraError):
        QuotientContext(free_lie(2), "bogus", 1)
    with pytest.raises(AlgebraError):
        nilpotent_context(free_lie(2), 0)


@pytest.mark.parametrize(
    "c, message",
    [
        ((-3, -3), "nilpotency parameters must be >= 1"),
        ((2, -1), "nilpotency parameters must be >= 1"),
        ((), "need at least one nilpotency parameter"),
    ],
)
def test_polynilpotent_context_checks_its_tuple(c, message):
    """(-3, -3) used to give a context with min_degree 4, and (2, -1)
    failed only on the unrelated degree check of ``QuotientContext``."""
    with pytest.raises(AlgebraError, match=message):
        polynilpotent_context(free_lie(3), c)


# -- divergence detector ----------------------------------------------------


def _mb_wild_example():
    M = metabelian_lie(3)
    y1, y2, y3 = M.gens()
    return Endomorphism(M, (y1 + (y1 * y2) * y2, y2, y3))


def test_divergence_detector_positive():
    phi = _mb_wild_example()
    ctx = metabelian_context(phi.variety)
    cert = detect_divergence_wild(phi, ctx)
    assert cert.verdict == "AbsolutelyWild"
    assert cert.is_wild
    assert cert.reasons == []
    # independent recomputation of the witness
    assert cert.witness.trace == divergence(tangent(phi)).trace
    assert cert.witness.trace.coeffs == {(0, 2, 0): 1}
    assert any("ia level 2" in line for line in cert.trace)


def test_divergence_detector_zero_divergence_is_inconclusive():
    for name in ("tau", "chein-cubic", "drensky-exp"):
        phi = corpus.build(name)
        cert = detect_divergence_wild(phi, metabelian_context(phi.variety))
        assert cert.verdict == "Inconclusive"
        assert not cert.is_wild
        assert "divergence of the tangent is zero" in cert.reasons


def test_divergence_detector_small_ideal_is_inconclusive():
    """A nonzero divergence proves nothing when the ideal may reach down
    to the deviation degree."""
    phi = _mb_wild_example()  # IA(2), deviation degree 3
    ctx = nilpotent_context(phi.variety, 1)  # ideal starts in degree 3
    cert = detect_divergence_wild(phi, ctx)
    assert cert.verdict == "Inconclusive"
    assert any("degree" in r for r in cert.reasons)


def test_divergence_detector_input_validation():
    M = metabelian_lie(3)
    with pytest.raises(NotIA):
        detect_divergence_wild(Endomorphism.identity(M), metabelian_context(M))
    not_ia = Endomorphism(M, (M.gen(0).scale(2), M.gen(1), M.gen(2)))
    with pytest.raises(NotIA):
        detect_divergence_wild(not_ia, metabelian_context(M))
    phi = _mb_wild_example()
    with pytest.raises(AlgebraError):
        detect_divergence_wild(phi, metabelian_context(metabelian_lie(4)))


def test_polynomial_divergence_detector_on_tame_maps():
    phi = corpus.build("nagata")
    ctx = user_context(phi.variety, "polynomial identities", 4)
    cert = detect_divergence_wild(phi, ctx)
    assert cert.verdict == "Inconclusive"
    assert "divergence of the tangent is zero" in cert.reasons


# -- rank-2 associative detector -------------------------------------------


def test_rank2_detector_positive():
    phi = corpus.build("bergman")
    ctx = var_m2k_context(phi.variety)
    cert = detect_rank2_associative(phi, ctx)
    assert cert.verdict == "AbsolutelyWild"
    # independent witness: T(phi) = ([x1,x2]^2, 0) applied to [x1,x2]
    A = phi.variety
    x1, x2 = A.gens()
    c = x1 * x2 - x2 * x1
    T = Derivation(A, (c * c, A.zero()))
    assert tangent(phi) == T
    assert cert.witness == T.apply(c)
    assert not cert.witness.is_zero()


def test_rank2_detector_tame_is_inconclusive():
    A = free_associative(2)
    x1, x2 = A.gens()
    tame = Endomorphism(A, (x1 + x2 * x2, x2))
    cert = detect_rank2_associative(tame, var_m2k_context(A))
    assert cert.verdict == "Inconclusive"
    assert "the tangent kills [x1,x2]" in cert.reasons


def test_rank2_detector_needs_rank2_associative():
    with pytest.raises(AlgebraError):
        detect_rank2_associative(
            corpus.build("anick"), var_m2k_context(free_associative(3))
        )


# -- polynilpotent constructor ----------------------------------------------


def test_leading_term_bracket():
    a = LeadingTerm((0,), Fraction(1))
    b = LeadingTerm((1,), Fraction(1))
    ab = _lt_bracket(a, b)
    assert ab.word == (0, 1) and ab.coeff == 1
    ba = _lt_bracket(b, a)
    assert ba.word == (0, 1) and ba.coeff == -1
    with pytest.raises(AlgebraError):
        _lt_bracket(a, a)


def test_polynilpotent_2_1():
    u, psi, rep = build_polynilpotent_witness((2, 1), 3)
    assert rep.degrees == [3]
    assert rep.product_bound == 6
    assert rep.inequality_holds
    assert rep.leading_words == [(0, 0, 1)]
    assert rep.leading_recursion_ok
    assert rep.materialized
    # u = [x1,[x1,x2]] in the Lyndon basis
    L = u.variety
    assert u == L.gen(0) * (L.gen(0) * L.gen(1))
    # psi is IA(4) with nonzero divergence, certified wild in context
    lev = ia_level(psi)
    assert lev.status == "level" and lev.i == 4
    assert not divergence(tangent(psi)).is_zero()
    cert = detect_divergence_wild(psi, polynilpotent_context(L, (2, 1)))
    assert cert.verdict == "AbsolutelyWild"


def test_polynilpotent_1_2_and_2_2():
    _, psi, rep = build_polynilpotent_witness((1, 2), 3)
    assert rep.degrees == [2] and rep.product_bound == 6
    cert = detect_divergence_wild(
        psi, polynilpotent_context(psi.variety, (1, 2))
    )
    assert cert.verdict == "AbsolutelyWild"
    _, psi2, rep2 = build_polynilpotent_witness((2, 2), 3)
    assert rep2.degrees == [3] and rep2.product_bound == 9
    cert2 = detect_divergence_wild(
        psi2, polynilpotent_context(psi2.variety, (2, 2))
    )
    assert cert2.verdict == "AbsolutelyWild"


def test_polynilpotent_1_1_rejected():
    with pytest.raises(AlgebraError, match=r"inequality \(99\)"):
        build_polynilpotent_witness((1, 1), 3)


def test_polynilpotent_large_tuple_not_materialized():
    u, psi, rep = build_polynilpotent_witness((1, 15, 1), 3)
    assert u is None and psi is None
    assert rep.degrees == [2, 33]
    assert rep.product_bound == 64
    assert rep.inequality_holds
    assert rep.leading_recursion_ok
    assert not rep.materialized


def test_polynilpotent_argument_validation():
    with pytest.raises(AlgebraError):
        build_polynilpotent_witness((2,), 3)
    with pytest.raises(AlgebraError):
        build_polynilpotent_witness((2, 1), 2)
    with pytest.raises(AlgebraError):
        build_polynilpotent_witness((0, 1), 3)


# -- vectors and the exact-rank oracle --------------------------------------


def test_derivation_vector_round_trip(rng):
    from conftest import ALL_VARIETIES, random_homogeneous_derivation

    for variety in ALL_VARIETIES:
        for deg in (1, 2):
            D = random_homogeneous_derivation(rng, variety, deg)
            vec = derivation_vector(D, deg)
            assert derivation_from_vector(variety, deg, vec) == D


def test_divergence_kernel_rank_oracle_values():
    assert divergence_kernel_rank(polynomial(3), 1) == 15
    assert divergence_kernel_rank(metabelian_lie(4), 1) == 20


def test_hamiltonian_derivations_are_divergence_free():
    """(dH/dy, -dH/dx) always has divergence zero (soundness spot check
    for the kernel the oracle counts)."""
    from tangentia import fox_derivative
    from tangentia.freealg import Element

    P = polynomial(2)
    x, y = P.gens()
    H = x * x * y + y * y * x
    dx = Element(P, dict(fox_derivative(H, 0).coeffs))
    dy = Element(P, dict(fox_derivative(H, 1).coeffs))
    D = Derivation(P, (dy, -dx))
    assert divergence(D).is_zero()


# -- span sampler -----------------------------------------------------------


def _poly_generators():
    P = polynomial(3)
    x, y, z = P.gens()
    return [
        Endomorphism(P, (x + y * y, y, z)),
        Endomorphism(P, (x, y + z * z, z)),
        Endomorphism(P, (x, y, z + x * x)),
    ]


def test_span_deterministic_for_fixed_seed():
    gens = _poly_generators()
    r1 = tangent_span(gens, 1, 40, seed=7)
    r2 = tangent_span(gens, 1, 40, seed=7)
    assert r1.rank == r2.rank
    assert r1.hits == r2.hits
    assert r1.per_level_counts == r2.per_level_counts


def test_span_rank_bounded_by_oracle():
    gens = _poly_generators()
    rep = tangent_span(gens, 1, 60, seed=3, conjugation_rank=1)
    oracle = divergence_kernel_rank(polynomial(3), 1)
    assert 0 < rep.rank <= oracle
    # every sampled tangent is divergence-free, hence inside the kernel
    for D in rep.basis:
        assert divergence(D).is_zero()


def test_span_skips_generators_without_an_inverse():
    P = polynomial(3)
    x, y, z = P.gens()
    singular = Endomorphism(P, (x + y, x + y + z * z, z))
    rep = tangent_span(_poly_generators() + [singular], 1, 30, seed=5)
    assert rep.samples_used == 30


def test_span_does_not_swallow_other_errors(monkeypatch):
    def broken(phi, k):
        raise ZeroDivisionError("bug in the inverse")

    monkeypatch.setattr(wildness, "truncated_inverse", broken)
    with pytest.raises(ZeroDivisionError):
        tangent_span(_poly_generators(), 1, 10, seed=0)


def test_span_needs_generators():
    with pytest.raises(AlgebraError):
        tangent_span([], 1, 10, seed=0)


def test_span_rejects_a_negative_sample_count():
    with pytest.raises(AlgebraError, match="sample count"):
        tangent_span(_poly_generators(), 1, -1, seed=0)
    assert tangent_span(_poly_generators(), 1, 0, seed=0).samples_used == 0
