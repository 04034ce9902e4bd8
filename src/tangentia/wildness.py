"""Detection laboratory for absolutely wild automorphisms.

Three detectors and one sampler:

* a divergence certificate: a nonzero divergence of the tangent of an
  IA endomorphism certifies absolute wildness of the automorphism it
  induces on a quotient whose defining ideal starts in high enough degree;
* the rank-2 associative test: the tangent of a rank-2 IA map must kill
  the commutator of the generators, so a nonzero value is a certificate;
* the polynilpotent witness constructor (iterated ad-power elements with
  exact leading-term certificates);
* a seeded tangent-span sampler with an independent exact-rank oracle for
  the divergence kernel.

A too-small ideal degree downgrades the verdict to Inconclusive with a
reason.  The automorphism-evidence level is a label that is recorded and
never checked: any of the three levels is taken on trust, so a map that
induces no automorphism of the quotient can be certified AbsolutelyWild.
"""
from __future__ import annotations

import math
import operator
import random
from dataclasses import dataclass, field

from .freealg import (
    AlgebraError,
    Element,
    Kind,
    Variety,
    _check_type,
    _decoder,
    basis_coeffs,
    free_lie,
    monomials_of_degree,
)
from .deriv import Derivation, divergence
from .morphism import (
    DEFAULT_MAX_DEGREE,
    Endomorphism,
    NotIA,
    NotInvertible,
    _conjugate,
    _tangent_at,
    compose,
    compose_all,
    ia_correct,
    ia_level,
    truncated_inverse,
)
from .envelope import trace_class
from .fox import fox_derivative
from . import linalg

__all__ = [
    "QuotientContext",
    "SpanReport",
    "WildnessCertificate",
    "build_polynilpotent_witness",
    "derivation_vector",
    "detect_divergence_wild",
    "detect_rank2_associative",
    "divergence_kernel_rank",
    "metabelian_context",
    "nilpotent_context",
    "polynilpotent_context",
    "tangent_span",
    "user_context",
    "var_m2k_context",
]


# the automorphism-evidence levels, keyed by the name a script gives each
_EVIDENCE = {"user": "user-asserted", "truncation": "verified-by-truncation",
             "builtin": "builtin-construction"}
EVIDENCE_USER, EVIDENCE_TRUNCATION, EVIDENCE_BUILTIN = _EVIDENCE.values()


@dataclass(frozen=True)
class QuotientContext:
    """Hypothesis bundle for the detectors: the ambient free algebra, a
    named identity-ideal I, the least degree of a nonzero element of I,
    and the evidence that the endomorphism induces an automorphism of the
    quotient."""

    ambient: Variety
    ideal_tag: str
    min_degree: int
    induces_automorphism: str = EVIDENCE_USER

    def __post_init__(self):
        _check_type(self.ambient, Variety)
        _check_type(self.min_degree, int)
        if self.min_degree < 2:
            raise AlgebraError("identity ideals start in degree >= 2")
        if self.induces_automorphism not in _EVIDENCE.values():
            levels = ", ".join(_EVIDENCE.values())
            raise AlgebraError(f"automorphism evidence must be one of {levels}, "
                               f"got {self.induces_automorphism!r}")


def _lie_ambient(ambient, context):
    _check_type(ambient, Variety)
    if not ambient.is_lie:
        kind = ambient.kind.value
        raise AlgebraError(f"the {context} context needs a Lie ambient, not {kind}")


def metabelian_context(ambient, evidence=EVIDENCE_BUILTIN):
    """Quotient of a free Lie algebra by L'' (least identity degree 4)."""
    _lie_ambient(ambient, "metabelian")
    return QuotientContext(ambient, "metabelian: L''", 4, evidence)


def nilpotent_context(ambient, c, evidence=EVIDENCE_BUILTIN):
    """Nilpotency class c+1: the ideal starts in degree c+2."""
    _check_type(c, int)
    if c < 1:
        raise AlgebraError("nilpotency parameter must be >= 1")
    return QuotientContext(ambient, f"nilpotent class {c + 1}", c + 2, evidence)


def var_m2k_context(ambient, evidence=EVIDENCE_USER):
    """Var(M_2(K)) in at most three variables, where its T-ideal has no
    elements of degree <= 4.  In four or more the standard polynomial s_4
    is one (Amitsur-Levitzki): a free associative ambient of rank >= 4 is
    an ``AlgebraError``.  s_4 is not a Lie element and abelianizes to 0."""
    _check_type(ambient, Variety)
    if ambient.kind is Kind.FREE_ASSOCIATIVE and ambient.rank >= 4:
        raise AlgebraError(
            "Var(M_2(K)) has the degree-4 identity s_4 in 4 or more variables; "
            f"the var-m2k context needs assoc rank at most 3, not {ambient.rank}"
        )
    return QuotientContext(ambient, f"Var(M_2(K)) in {ambient.rank} vars", 5, evidence)


def _polynilpotent_degree(c):
    """The least identity degree of the polynilpotent tuple (c_1, ..., c_k),
    each c_i >= 1: the product of the (c_i + 1)."""
    for ci in c:
        _check_type(ci, int)
        if ci < 1:
            raise AlgebraError("nilpotency parameters must be >= 1")
    return math.prod(ci + 1 for ci in c)


def polynilpotent_context(ambient, c, evidence=EVIDENCE_BUILTIN):
    """Polynilpotent ideal for the tuple (c_1, ..., c_k), starting in
    degree ``_polynilpotent_degree(c)``."""
    _lie_ambient(ambient, "polynilpotent")
    if not c:
        raise AlgebraError("need at least one nilpotency parameter")
    tag = "polynilpotent (" + ",".join(str(ci) for ci in c) + ")"
    return QuotientContext(ambient, tag, _polynilpotent_degree(c), evidence)


def user_context(ambient, tag, min_degree):
    return QuotientContext(ambient, f"user-asserted: {tag}", min_degree, EVIDENCE_USER)


VERDICT_WILD = "AbsolutelyWild"
VERDICT_INCONCLUSIVE = "Inconclusive"


@dataclass
class WildnessCertificate:
    verdict: str
    witness: object
    hypotheses: QuotientContext
    reasons: list = field(default_factory=list)
    trace: list = field(default_factory=list)

    @property
    def is_wild(self):
        return self.verdict == VERDICT_WILD


def _certify(phi, ctx, max_degree, detector, witness):
    """The certificate of ``detector``: the ambient and IA checks, then
    ``witness(T, trace)`` on the tangent T, which appends its own trace
    lines and gives the witness and the reason to report if it is zero,
    then the hypotheses.  Every reason is formed here, and the verdict is
    ``AbsolutelyWild`` iff there is none."""
    _check_type(ctx, QuotientContext)
    if phi.variety != ctx.ambient:
        raise AlgebraError("context ambient differs from the endomorphism's algebra")
    lev = ia_level(phi, max_degree)
    if lev.status != "level":
        raise NotIA(f"{detector} detector needs an IA endomorphism with a tangent")
    trace = [f"ia level {lev.i}"]
    value, if_zero = witness(_tangent_at(phi, lev.i), trace)
    trace.append(f"hypotheses: ideal '{ctx.ideal_tag}' min degree {ctx.min_degree}, "
                 f"automorphism evidence '{ctx.induces_automorphism}'")
    reasons = [if_zero] if value.is_zero() else []
    if ctx.min_degree <= lev.i + 1:
        reasons.append(f"ideal may contain elements of degree <= {lev.i + 1} "
                       f"(registry min degree {ctx.min_degree})")
    verdict = VERDICT_INCONCLUSIVE if reasons else VERDICT_WILD
    return WildnessCertificate(verdict, value, ctx, reasons, trace)


def detect_divergence_wild(eps, ctx, max_degree=DEFAULT_MAX_DEGREE):
    """Certificate from div(T(eps)) != 0 computed in the ambient U."""
    _check_type(eps, Endomorphism)

    def witness(T, trace):
        trace.append(f"tangent = {T!r}")
        div = divergence(T)
        trace.append(f"divergence {'zero' if div.is_zero() else 'nonzero'}")
        return div, "divergence of the tangent is zero"

    return _certify(eps, ctx, max_degree, "divergence", witness)


def detect_rank2_associative(phi, ctx, max_degree=DEFAULT_MAX_DEGREE):
    """Certificate from T(phi)([x1,x2]) != 0 in the rank-2 free
    associative algebra."""
    _check_type(phi, Endomorphism)
    var = phi.variety
    if var.kind is not Kind.FREE_ASSOCIATIVE or var.rank != 2:
        raise AlgebraError("rank-2 associative detector needs K<x1,x2>")
    x1, x2 = var.gens()

    def witness(T, trace):
        value = T.apply(x1 * x2 - x2 * x1)
        trace.append(f"T(phi)([x1,x2]) = {value!s}")
        return value, "the tangent kills [x1,x2]"

    return _certify(phi, ctx, max_degree, "rank-2", witness)


# ---------------------------------------------------------------------------
# Polynilpotent witness construction
#
# u_1 = ad(x1)^{c_1}(x2), u_{t+1} = ad(u_t)^{c_{t+1}}(ad(x1)(u_t)), one
# recursion (``_ad_powers``) for both the leading terms and the elements.
# Degrees and leading words are certified by exact leading-term tracking
# in the lexicographic order with x1 > x2 > ... > xn (greatest letter =
# smallest index, so the leading word is the tuple-minimal one); leading
# terms of products multiply, and a commutator's leading term is the
# smaller of the two concatenations unless they coincide.


class LeadingTermIndeterminate(AlgebraError):
    pass


@dataclass(frozen=True)
class LeadingTerm:
    word: tuple
    coeff: int


def _lt_bracket(a, b):
    w1 = a.word + b.word
    w2 = b.word + a.word
    c = a.coeff * b.coeff
    if w1 < w2:
        return LeadingTerm(w1, c)
    if w2 < w1:
        return LeadingTerm(w2, -c)
    raise LeadingTermIndeterminate(
        "leading concatenations coincide; full expansion required"
    )


def _ad_powers(c, bracket, x1, x2):
    """``[u_1, ..., u_{k-1}]`` for the tuple c = (c_1, ..., c_k), with
    ``bracket`` as the Lie bracket of x1, x2 and what they generate."""
    us = [x2]
    for _ in range(c[0]):
        us[0] = bracket(x1, us[0])
    for ct in c[1:-1]:
        cur = bracket(x1, us[-1])
        for _ in range(ct):
            cur = bracket(us[-1], cur)
        us.append(cur)
    return us


@dataclass
class PolynilpotentReport:
    c: tuple
    degrees: list
    recursion_degrees: list
    product_bound: int
    inequality_holds: bool
    leading_words: list
    leading_recursion_ok: bool
    materialized: bool


def build_polynilpotent_witness(c, n, materialize_limit=DEFAULT_MAX_DEGREE):
    """Witness data for the polynilpotent tuple (c_1, ..., c_k) at rank n.

    Returns (u, psi, report).  u = u_{k-1} in the free Lie algebra of
    rank n and psi = (x1 + [[w,x1],x1], x2, ..., xn) with w = u(x2, x3)
    are materialized only when deg(u) <= materialize_limit; the report
    (degrees, inequality, leading words) is always exact.
    """
    c = tuple(c)
    k = len(c)
    if k < 2:
        raise AlgebraError("need at least two nilpotency parameters")
    if n < 3:
        raise AlgebraError("witness construction needs rank >= 3")
    product_bound = _polynilpotent_degree(c)
    if c == (1, 1):
        raise AlgebraError(
            "tuple (1,1) is the metabelian variety: inequality (99) fails"
        )

    leads = _ad_powers(c, _lt_bracket, LeadingTerm((0,), 1), LeadingTerm((1,), 1))
    degrees = [len(lt.word) for lt in leads]
    recursion = _ad_powers(c, operator.add, 1, 1)  # a bracket's degree is the sum
    inequality_holds = degrees[-1] + 2 < product_bound
    assert inequality_holds, (
        "inequality (99) cannot fail: with P_t = (c_0 + 1)...(c_t + 1), "
        "D_t = P_t (1 + sum 1/P_s) < 1.5 P_t, so D_{k-2} + 2 < P_{k-1} once "
        "P_{k-2} >= 4; below that only k = 2 is left, where it fails for "
        "(1,1) alone, which is rejected above"
    )

    lead_ok = leads[0].word == (0,) * c[0] + (1,)
    for t in range(1, k - 1):
        lead_ok = lead_ok and leads[t].word == (0,) + leads[t - 1].word * (c[t] + 1)

    report = PolynilpotentReport(
        c=c,
        degrees=degrees,
        recursion_degrees=recursion,
        product_bound=product_bound,
        inequality_holds=inequality_holds,
        leading_words=[lt.word for lt in leads],
        leading_recursion_ok=lead_ok,
        materialized=degrees[-1] <= materialize_limit,
    )

    if not report.materialized:
        return None, None, report

    gens = free_lie(n).gens()
    u = _ad_powers(c, operator.mul, gens[0], gens[1])[-1]
    # cross-check the tracked leading term against the materialized element:
    # u is homogeneous, so its least code is its least word
    least = min(u.coeffs)
    word = _decoder(u.variety._format)(least)
    if word != leads[-1].word or u.coeffs[least] != leads[-1].coeff:
        raise AlgebraError("leading-term tracker disagrees with the expansion")

    w = u.substitute(gens[1:3] + gens[2:])  # u(x2, x3)
    psi = Endomorphism(u.variety, (gens[0] + (w * gens[0]) * gens[0],) + gens[1:])
    return u, psi, report


# ---------------------------------------------------------------------------
# Exact-rank oracle and span sampling


def derivation_vector(D):
    """The coordinates of ``D`` as a sparse row for ``linalg``:
    ``{(i, m): c}`` with c the coefficient of the basis key m
    (``basis_coeffs``) in D(x_i), so the columns sort by coordinate, then
    by basis key."""
    _check_type(D, Derivation)
    return {(i, m): c for i, f in enumerate(D.coords) for m, c in basis_coeffs(f).items()}


def derivation_from_vector(variety, vec):
    """The derivation of ``variety`` whose coordinates are the sparse row
    ``vec`` of ``derivation_vector``, grouped back by coordinate."""
    coords = [{} for _ in range(variety.rank)]
    for (i, m), c in vec.items():
        coords[i][m] = c
    return Derivation(variety, tuple(Element(variety, f) for f in coords))


def divergence_kernel_rank(variety, degree):
    """Dimension of the zero-divergence subspace of L_degree, computed by
    exact linear algebra on the divergence map (the independent oracle
    for the span sampler): one row per basis derivation m d/dx_i with m
    of degree ``degree`` + 1, the coefficient dict of the trace class of
    its divergence, keyed by trace key."""
    monos = monomials_of_degree(variety, degree + 1)
    rows = [
        trace_class(fox_derivative(Element(variety, {m: 1}), i)).coeffs
        for i in range(variety.rank)
        for m in monos
    ]
    return len(rows) - linalg.rank(rows)


@dataclass
class SpanReport:
    degree: int
    rank: int
    basis: list
    samples_used: int
    hits: int
    per_level_counts: dict


# tries per invertible matrix, and letters per sampled word at most
MATRIX_ATTEMPTS = 50
MAX_WORD_LEN = 4


def random_invertible_matrix(rng, n):
    """A random invertible n x n matrix g with entries in -2..2, and an
    integer multiple s = d g^-1 of its inverse (d a nonzero int), as the
    pair ``(g, s)``.  Singular draws are rejected, up to
    ``MATRIX_ATTEMPTS`` tries; s is the one the invertibility test
    computes (``linalg.scaled_inverse``), so no rational is formed."""
    for _ in range(MATRIX_ATTEMPTS):
        mat = [[rng.randint(-2, 2) for _ in range(n)] for _ in range(n)]
        try:
            return mat, linalg.scaled_inverse(mat)[1]
        except linalg.SingularMatrix:
            continue
    raise AlgebraError("failed to sample an invertible matrix")


def tangent_span(
    generators,
    degree,
    samples,
    seed,
    conjugation_rank=0,
):
    """Sample random words in the generators and their truncated inverses,
    correct each word by the inverse of its affine part (a member of G_n),
    and accumulate the tangents of the samples that land exactly in IA(degree).

    Returns the exact rank and a basis of the spanned subspace of
    L_degree, and how many samples landed at each IA level.
    ``conjugation_rank`` > 0 additionally draws a random invertible linear
    map alpha with an integer multiple d g^-1 of its inverse for each
    sample, and conjugates the tangent of each sample kept at ``degree``
    by it: that is the tangent of the conjugated word, since IA
    correction, IA level and tangent commute with the conjugation.  The
    conjugation is one batched substitution of the tangent's coordinates,
    combined with the drawn d g^-1 (``_conjugate``), so each row is d
    times the conjugated tangent.  A row is needed only up to a nonzero
    multiple, since the reduced echelon form of the rows' span is unique;
    for generators with integer coefficients and linear parts of
    determinant +-1 (such as IA generators), every row is an integer row.

    Words are composed exactly through the cut 2 * degree + 2, as long as
    their inverses are exact.  Where a generator has a constant term, the
    part of an inverse above the cut lands lower, so then each inverse
    must be exact, or ``AlgebraError`` names its generator.
    """
    if not generators:
        raise AlgebraError("need at least one generator")
    if degree < 1:
        raise AlgebraError(f"span degree must be >= 1, got {degree}")
    if samples < 0:
        raise AlgebraError(f"sample count must be >= 0, got {samples}")
    var = generators[0].variety
    rng = random.Random(seed)
    # samples are cut at this degree, so per_level_counts (which reports
    # print) counts the levels through 2*degree + 1
    trunc = 2 * degree + 2
    constant = any(any(g.constant_part()) for g in generators)
    pool = list(generators)
    for i, g in enumerate(generators, 1):
        try:
            inv = truncated_inverse(g, trunc)
        except NotInvertible:
            continue
        if constant and not compose(g, inv).is_identity():
            raise AlgebraError(f"span generator {i}, {g!r}, needs an exact inverse of degree "
                               f"<= {trunc} when a generator has a constant term")
        pool.append(inv)

    per_level_counts = {}
    rows = []
    for _ in range(samples):
        length = rng.randint(1, MAX_WORD_LEN)
        word = [rng.choice(pool) for _ in range(length)]
        pair = random_invertible_matrix(rng, var.rank) if conjugation_rank else None
        phi = ia_correct(compose_all(word, max_degree=trunc))
        if phi is None:
            continue
        lev = ia_level(phi, trunc)
        if lev.status != "level":
            continue
        per_level_counts[lev.i] = per_level_counts.get(lev.i, 0) + 1
        if lev.i == degree:
            T = _tangent_at(phi, degree)
            rows.append(derivation_vector(_conjugate(*pair, T) if pair else T))

    reduced = linalg.rref(rows)[0]
    basis = [derivation_from_vector(var, row) for row in reduced]

    return SpanReport(
        degree=degree,
        rank=len(reduced),
        basis=basis,
        samples_used=samples,
        hits=len(rows),
        per_level_counts=per_level_counts,
    )
