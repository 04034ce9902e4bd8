"""Wildness detectors, the polynilpotent constructor, and the span
sampler with its exact-rank oracle."""
import itertools
import random
from fractions import Fraction

import pytest

from tangentia import (
    AlgebraError,
    Derivation,
    Endomorphism,
    NotIA,
    NotInvertible,
    QuotientContext,
    SpanReport,
    basis_coeffs,
    build_polynilpotent_witness,
    compose,
    compose_all,
    conjugate_derivation,
    corpus,
    detect_divergence_wild,
    detect_rank2_associative,
    derivation_from_vector,
    derivation_vector,
    divergence,
    divergence_kernel_rank,
    free_associative,
    free_lie,
    ia_correct,
    ia_level,
    linear,
    metabelian_context,
    metabelian_lie,
    monomials_of_degree,
    nilpotent_context,
    polynilpotent_context,
    polynomial,
    tangent,
    tangent_span,
    truncated_inverse,
    user_context,
    var_m2k_context,
)
from tangentia import linalg, wildness
from tangentia.wildness import EVIDENCE_BUILTIN, EVIDENCE_USER, LeadingTerm, _lt_bracket

from conftest import check_scaled_inverse


# -- contexts ---------------------------------------------------------------


def test_context_min_degrees():
    L = free_lie(3)
    assert metabelian_context(L).min_degree == 4
    assert nilpotent_context(L, 2).min_degree == 4
    assert var_m2k_context(free_associative(2)).min_degree == 5
    assert polynilpotent_context(L, (2, 1)).min_degree == 6
    assert polynilpotent_context(L, (1, 15, 1)).min_degree == 64
    assert user_context(L, "my ideal", 7).min_degree == 7


def _mat2_mul(a, b):
    return (
        a[0] * b[0] + a[1] * b[2], a[0] * b[1] + a[1] * b[3],
        a[2] * b[0] + a[3] * b[2], a[2] * b[1] + a[3] * b[3],
    )


def _word_on_matrices(w, mats):
    out = (1, 0, 0, 1)
    for i in w:
        out = _mat2_mul(out, mats[i])
    return out


def test_var_m2k_context_holds_at_rank_at_most_3_only():
    """The registry's least degree 5 for Var(M_2(K)), checked on integer
    2x2 matrices.  At ranks 2 and 3 the degree-4 words, evaluated on
    random matrix tuples, are linearly independent, so no polynomial of
    degree <= 4 in those variables is an identity.  At rank 4 the standard
    polynomial s_4 vanishes (Amitsur-Levitzki), so the context rejects a
    free associative ambient of rank >= 4, and its divergence certificate
    ``AbsolutelyWild`` for (x1 + x1*x2*x3*x4, x2, x3, x4) cannot be made.
    Lie and polynomial ambients keep degree 5: s_4 is not a Lie element,
    and it abelianizes to 0."""
    rng = random.Random(4)
    samples = [
        [tuple(rng.randint(-3, 3) for _ in range(4)) for _ in range(3)] for _ in range(24)
    ]
    for rank in (2, 3):
        # a word's row: its value's entries on each sampled matrix tuple
        rows = [
            {
                (s, k): x
                for s, mats in enumerate(samples)
                for k, x in enumerate(_word_on_matrices(w, mats))
            }
            for w in monomials_of_degree(free_associative(rank), 4)
        ]
        assert linalg.rank(rows) == rank**4
    for _ in range(5):
        mats = [tuple(rng.randint(-5, 5) for _ in range(4)) for _ in range(4)]
        s4 = [0, 0, 0, 0]
        for perm in itertools.permutations(range(4)):
            sign = (-1) ** sum(a > b for a, b in itertools.combinations(perm, 2))
            for k, x in enumerate(_word_on_matrices(perm, mats)):
                s4[k] += sign * x
        assert s4 == [0, 0, 0, 0]
    for rank in (1, 2, 3):
        assert var_m2k_context(free_associative(rank)).min_degree == 5
    for ambient in (free_lie(4), metabelian_lie(4), polynomial(4)):
        assert var_m2k_context(ambient).min_degree == 5
    for rank in (4, 5):
        with pytest.raises(AlgebraError, match="identity s_4 in 4 or more variables"):
            var_m2k_context(free_associative(rank))


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


@pytest.mark.parametrize("ambient", [free_associative(3), polynomial(3)])
def test_lie_ideal_contexts_need_a_lie_ambient(ambient):
    kind = ambient.kind.value
    with pytest.raises(AlgebraError, match=f"metabelian context needs a Lie ambient, not {kind}"):
        metabelian_context(ambient)
    with pytest.raises(
        AlgebraError, match=f"polynilpotent context needs a Lie ambient, not {kind}"
    ):
        polynilpotent_context(ambient, (1, 2))
    for lie in (free_lie(3), metabelian_lie(3)):
        assert metabelian_context(lie).ambient == lie
        assert polynilpotent_context(lie, (1, 2)).ambient == lie


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
    to the deviation degree.  A context with an unknown evidence level,
    which only the Python API can ask for, is not built at all."""
    phi = _mb_wild_example()  # IA(2), deviation degree 3
    ctx = nilpotent_context(phi.variety, 1)  # ideal starts in degree 3
    cert = detect_divergence_wild(phi, ctx)
    assert cert.verdict == "Inconclusive"
    assert any("degree" in r for r in cert.reasons)
    with pytest.raises(AlgebraError) as info:
        QuotientContext(free_lie(3), "t", 5, "nonsense")
    assert info.value.args == (
        "automorphism evidence must be one of user-asserted, "
        "verified-by-truncation, builtin-construction, got 'nonsense'",
    )


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


@pytest.mark.parametrize(
    "detect, name, ambient",
    [
        (detect_divergence_wild, "divergence", metabelian_lie(3)),
        (detect_rank2_associative, "rank-2", free_associative(2)),
    ],
)
def test_both_detectors_check_ambient_and_ia_level_alike(detect, name, ambient):
    """The detectors share their input checks: an ambient that is not the
    map's algebra, and a map with no tangent (not IA, or the identity)."""
    x1, x2, *rest = ambient.gens()
    wild = Endomorphism(ambient, (x1 + (x1 * x2) * x2, x2, *rest))
    other = var_m2k_context(free_lie(ambient.rank))
    with pytest.raises(AlgebraError) as info:
        detect(wild, other)
    assert type(info.value) is AlgebraError
    assert str(info.value) == "context ambient differs from the endomorphism's algebra"
    ctx = user_context(ambient, "any", 5)
    not_ia = Endomorphism(ambient, (x1.scale(2), x2, *rest))
    for phi in (not_ia, Endomorphism.identity(ambient)):
        with pytest.raises(NotIA) as info:
            detect(phi, ctx)
        assert str(info.value) == f"{name} detector needs an IA endomorphism with a tangent"
    assert detect(wild, ctx).trace[0] == "ia level 2"


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


def test_polynilpotent_cross_checks_its_leading_term(monkeypatch):
    """The tracked leading term is checked against the materialized u: a
    tracker that gets a sign wrong is caught, not reported."""

    def flipped(a, b):
        lt = _lt_bracket(a, b)
        return LeadingTerm(lt.word, -lt.coeff)

    monkeypatch.setattr(wildness, "_lt_bracket", flipped)
    with pytest.raises(AlgebraError) as info:
        build_polynilpotent_witness((1, 2), 3)
    assert info.value.args == ("leading-term tracker disagrees with the expansion",)


def test_polynilpotent_1_1_rejected():
    with pytest.raises(AlgebraError, match=r"inequality \(99\)"):
        build_polynilpotent_witness((1, 1), 3)


def test_inequality_99_holds_for_every_tuple_but_1_1():
    """deg(u_{k-1}) + 2 < (c_1 + 1)...(c_k + 1) for every tuple of 2 to 5
    entries in 1..6 but (1,1), which is rejected: the witness's assertion
    of it never fires.  The degree comes from its recursion D_0 = c_1 + 1,
    D_t = D_{t-1} (c_{t+1} + 1) + 1, independently of the tracker."""
    for k in range(2, 6):
        for c in itertools.product(range(1, 7), repeat=k):
            if c == (1, 1):
                continue
            _, _, rep = build_polynilpotent_witness(c, 3, materialize_limit=0)
            d = c[0] + 1
            for ct in c[1:-1]:
                d = d * (ct + 1) + 1
            bound = 1
            for ct in c:
                bound *= ct + 1
            assert rep.degrees[-1] == d and rep.product_bound == bound, c
            assert d + 2 < bound and rep.inequality_holds, c


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
            vec = derivation_vector(D)
            # one entry per nonzero basis coordinate, keyed (i, basis key)
            monos = set(monomials_of_degree(variety, deg + 1))
            for (i, m), c in vec.items():
                assert m in monos and c and basis_coeffs(D.coords[i])[m] == c
            assert len(vec) == sum(len(basis_coeffs(f)) for f in D.coords)
            assert derivation_from_vector(variety, vec) == D


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


# two consecutive draws per (seed, rank), as the sampler drew them when it
# returned the matrix alone; seed 10 rejects a singular draw at every rank
_MATRIX_STREAM = {
    (0, 2): [[[1, 1], [-2, 0]], [[2, 1], [1, 0]]],
    (0, 3): [[[1, 1, -2], [0, 2, 1], [1, 0, 1]], [[0, 2, -1], [2, -1, 0], [-1, -2, 2]]],
    (0, 4): [
        [[1, 1, -2, 0], [2, 1, 1, 0], [1, 0, 2, -1], [2, -1, 0, -1]],
        [[-2, 2, 0, 2], [2, -1, 0, -2], [-2, 0, 1, 2], [-2, 0, 1, 0]],
    ],
    (10, 2): [[[2, -2], [1, 1]], [[1, 0], [-1, -2]]],
    (10, 3): [[[2, -2, 1], [1, 2, -2], [-1, 1, 1]], [[-2, 1, -1], [2, 0, 1], [1, 0, 0]]],
    (10, 4): [
        [[2, -2, 1, 1], [2, -2, -1, 1], [1, 0, -1, -2], [2, 1, 0, -2]],
        [[1, -1, 1, 2], [1, -2, 2, -2], [-1, -1, -1, 0], [2, 0, -1, 0]],
    ],
}


@pytest.mark.parametrize("seed, n", sorted(_MATRIX_STREAM))
def test_random_invertible_matrix_stream_and_inverse(seed, n):
    rng = random.Random(seed)
    for want in _MATRIX_STREAM[seed, n]:
        g, s = wildness.random_invertible_matrix(rng, n)
        assert g == want
        check_scaled_inverse(g, s)


def _reference_span(generators, degree, samples, seed):
    """The sampler with whole-map conjugation: each word phi is conjugated
    to alpha phi alpha^-1 by two compositions before IA correction, and the
    report is built from those conjugates.  On the way it checks, sample
    by sample, that IA correction, the IA level and the tangent commute
    with the conjugation, which is what lets ``tangent_span`` conjugate
    only the tangents it keeps."""
    var = generators[0].variety
    rng = random.Random(seed)
    trunc = 2 * degree + 2
    pool = list(generators)
    for g in generators:
        try:
            pool.append(truncated_inverse(g, trunc))
        except NotInvertible:
            continue
    per_level_counts = {}
    rows = []
    for _ in range(samples):
        length = rng.randint(1, wildness.MAX_WORD_LEN)
        word = [rng.choice(pool) for _ in range(length)]
        phi = compose_all(word, max_degree=trunc)
        g, s = wildness.random_invertible_matrix(rng, var.rank)
        check_scaled_inverse(g, s)
        alpha, alpha_inv = linear(var, g), linear(var, linalg.inverse(g))
        conj = ia_correct(compose(alpha, compose(phi, alpha_inv)))
        plain = ia_correct(phi)
        assert (conj is None) == (plain is None)
        if conj is None:
            continue
        lev = ia_level(conj, trunc)
        assert lev == ia_level(plain, trunc)
        if lev.status != "level":
            continue
        T = tangent(conj, trunc)
        assert T == conjugate_derivation(g, tangent(plain, trunc))
        per_level_counts[lev.i] = per_level_counts.get(lev.i, 0) + 1
        if lev.i == degree:
            rows.append(derivation_vector(T))
    reduced, pivots = linalg.rref(rows)
    assert len(reduced) == len(pivots)
    basis = [derivation_from_vector(var, row) for row in reduced]
    return SpanReport(degree, len(pivots), basis, samples, len(rows), per_level_counts)


def _span_generators(kind):
    """Tame generators of each kind with tangents in degrees 1 and 2, and
    a constant term in the unital kinds."""
    if kind == "polynomial":
        P = polynomial(3)
        x, y, z = P.gens()
        return [
            Endomorphism(P, (x + y * y, y, z)),
            Endomorphism(P, (x, y + z * z + P.one(), z)),
            Endomorphism(P, (x, y, z + x * x * y)),
            Endomorphism(P, (y, x, z)),
        ]
    if kind == "assoc":
        A = free_associative(3)
        x, y, z = A.gens()
        return [
            Endomorphism(A, (x + y * z + A.scalar(2), y, z)),
            Endomorphism(A, (x, y + z * x, z)),
            Endomorphism(A, (x, y, z + x * y * x)),
            Endomorphism(A, (x + y * y * z, y, z)),
        ]
    if kind == "lie":
        L = free_lie(3)
        x1, x2, x3 = L.gens()
        return [
            Endomorphism(L, (x1 + x2 * x3, x2, x3)),
            Endomorphism(L, (x1, x2 + x3 * x1, x3)),
            Endomorphism(L, (x1, x2, x3 + (x1 * x2) * x2)),
            Endomorphism(L, (x1 + (x2 * x3) * x3, x2, x3)),
        ]
    M = metabelian_lie(4)
    y1, y2, y3, y4 = M.gens()
    return [
        Endomorphism(M, (y1 + y2 * y3, y2, y3, y4)),
        Endomorphism(M, (y1, y2, y3 + y4 * y1, y4)),
        Endomorphism(M, (y1, y2, y3, y4 + (y1 * y2) * y3)),
        Endomorphism(M, (y1 + (y2 * y3) * y4, y2, y3, y4)),
    ]


@pytest.mark.parametrize("degree", [1, 2])
@pytest.mark.parametrize("kind", ["polynomial", "assoc", "lie", "metabelian"])
def test_span_conjugates_the_tangent_as_the_whole_map_would(kind, degree):
    """Conjugating each kept tangent gives the report that conjugating
    each sampled word as a whole map gave, field by field."""
    gens = _span_generators(kind)
    expected = _reference_span(gens, degree, 30, seed=degree)
    assert expected.hits > 0 and expected.rank > 0
    got = tangent_span(gens, degree, 30, seed=degree, conjugation_rank=1)
    assert got == expected


def test_span_with_a_constant_term_needs_exact_inverses():
    """With a constant among the generators, the part of an inverse above
    the cut 2 * degree + 2 lands in low degrees of the samples, so each
    inverse must be exact.  Then every word composed with the cut is its
    exact composite cut; without a constant no check runs."""
    P = polynomial(2, ("x", "y"))
    x, y = P.gens()
    a = Endomorphism(P, (x + P.one(), y))
    far = Endomorphism(P, (x, y + x.power(5)))
    with pytest.raises(AlgebraError) as info:
        tangent_span([a, far], 1, 10, seed=0)
    assert info.value.args == (
        "span generator 2, (x, y + x^5), needs an exact inverse of degree <= 4 "
        "when a generator has a constant term",
    )
    assert tangent_span([far], 1, 10, seed=0).samples_used == 10
    b = Endomorphism(P, (x, y + x * x))
    pool = [a, b] + [truncated_inverse(g, 4) for g in (a, b)]
    for word in itertools.product(pool, repeat=3):
        assert compose_all(word, max_degree=4) == compose_all(word).truncate(4)
    assert tangent_span([a, b], 1, 30, seed=0).hits > 0


@pytest.mark.parametrize("kind", ["polynomial", "metabelian"])
def test_span_rows_stay_on_integers(kind, monkeypatch):
    """With integer generators, every row the sampler reduces is an
    integer row: the tangents are conjugated with the integer multiple
    d g^-1 of the drawn g's inverse, so no Fraction is formed."""
    if kind == "polynomial":
        gens = _poly_generators()
    else:
        M = metabelian_lie(4)
        y = M.gens()
        gens = [Endomorphism(M, (y[0] + y[1] * y[2],) + y[1:])]
    seen = []
    rref = linalg.rref

    def capture(rows):
        seen.extend(rows)
        return rref(rows)

    monkeypatch.setattr(wildness.linalg, "rref", capture)
    rep = tangent_span(gens, 1, 60, seed=0, conjugation_rank=1)
    assert rep.hits == len(seen) > 0
    for row in seen:
        assert type(row) is dict and row
        assert all(type(x) is int for x in row.values()), row


def test_span_and_ia_queries_build_no_identity_map(monkeypatch):
    """The IA level, the tangent and the identity test compare images
    with the generators directly."""

    def refuse(cls, variety):
        raise AssertionError("Endomorphism.identity was called")

    monkeypatch.setattr(Endomorphism, "identity", classmethod(refuse))
    gens = _poly_generators()
    assert tangent_span(gens, 1, 30, seed=0, conjugation_rank=1).rank > 0
    P = polynomial(3)
    x, y, z = P.gens()
    phi = Endomorphism(P, (x + y * y, y, z))
    assert ia_level(phi).i == 1
    assert tangent(phi).coords == (y * y, P.zero(), P.zero())
    assert phi.is_identity_through(1) and not phi.is_identity_through(2)


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
