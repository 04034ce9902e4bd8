"""Endomorphisms of a free algebra: composition, truncated inverses (the
fixed point psi = L^-1 (x - h(psi)) over phi's short nonlinear part h,
solved online: round m forms only the degree-m component of each prefix
product of h's words, from components kept for the whole call; then an
exact translation for constants), the IA filtration, tangent
derivations, group commutators, conjugation, and the standard generators
(linear / affine / elementary).

Composition convention, fixed once and used everywhere including the
chain rule: ``compose(phi, psi)`` is the map ``x_k -> phi(psi(x_k))``,
i.e. the group product ``phi psi`` (apply psi, then phi).  On coordinate
tuples this is the substitution of phi's images into psi's coordinates.
"""
from __future__ import annotations

from dataclasses import dataclass

from .freealg import (
    AlgebraError,
    Element,
    VarietyMismatch,
    _mono_degree,
    _product,
    _split_key,
    _substitute,
)
from .deriv import Derivation
from . import linalg


class NotIA(AlgebraError):
    """The endomorphism has no tangent (it is not an IA map)."""


class NotInvertible(AlgebraError):
    pass


DEFAULT_MAX_DEGREE = 12


class Endomorphism:
    """phi = (f_1, ..., f_n), acting by x_i -> f_i.

    This class models formal endomorphisms; automorphism status is never
    decided in general.  A map is certified invertible only through
    explicit composition checks (exact or truncated).
    """

    __slots__ = ("variety", "images")

    def __init__(self, variety, images):
        images = tuple(images)
        if len(images) != variety.rank:
            raise AlgebraError("need one image per generator")
        for f in images:
            if f.variety.kind is not variety.kind or f.variety.rank != variety.rank:
                raise VarietyMismatch("image lives in a different algebra")
            if variety.is_lie and () in f.coeffs:
                raise AlgebraError("constant image part in a Lie variety")
        self.variety = variety
        self.images = images

    @classmethod
    def identity(cls, variety):
        return cls(variety, variety.gens())

    def coords_tuple(self):
        return self.images

    def apply(self, a):
        return a.substitute(self.images)

    def __eq__(self, other):
        if not isinstance(other, Endomorphism):
            return NotImplemented
        return self.variety == other.variety and self.images == other.images

    def __hash__(self):
        return hash((self.variety, self.images))

    def truncate(self, k):
        return Endomorphism(self.variety, tuple(f.truncate(k) for f in self.images))

    def is_identity(self):
        return self == Endomorphism.identity(self.variety)

    def is_identity_through(self, k):
        return self.truncate(k) == Endomorphism.identity(self.variety).truncate(k)

    def linear_part(self):
        """Matrix g with phi(x_i) = sum_j g[i][j] x_j + higher order."""
        n = self.variety.rank
        gens = self.variety.gens()
        mat = []
        for f in self.images:
            lin = f.homogeneous_component(1)
            row = [lin.coeffs.get(next(iter(gens[j].coeffs)), 0) for j in range(n)]
            mat.append(row)
        return mat

    def constant_part(self):
        return tuple(f.constant_term() for f in self.images)

    def __repr__(self):
        imgs = ", ".join(str(f) for f in self.images)
        return f"({imgs})"


def compose(phi, psi, max_degree=None):
    """The group product phi psi: x_k -> phi(psi(x_k)).

    With ``max_degree`` set, all terms above that degree are dropped
    (valid truncated-series arithmetic: degrees only grow under
    substitution, so the result is exact through ``max_degree``).  All of
    psi's images, each cut at ``max_degree`` first, are substituted in one
    batch.
    """
    if phi.variety != psi.variety:
        raise VarietyMismatch("endomorphisms over different varieties")
    dicts = [
        g.coeffs if max_degree is None else g.truncate(max_degree).coeffs
        for g in psi.images
    ]
    target = phi.images[0].variety  # the variety, named as phi's images are
    images = _substitute(dicts, phi.images, max_degree)
    return Endomorphism(phi.variety, tuple(Element._raw(target, f) for f in images))


def compose_all(maps, max_degree=None):
    out = maps[0]
    for m in maps[1:]:
        out = compose(out, m, max_degree=max_degree)
    return out


@dataclass(frozen=True)
class FiltrationLevel:
    """Position of an endomorphism in the IA filtration.

    status is one of "not-ia", "level" (with ``i`` set), or "identity"
    meaning identity-to-degree-infinity within the truncation bound.
    """

    status: str
    i: int = 0
    bound: int = DEFAULT_MAX_DEGREE

    @property
    def is_ia(self):
        return self.status != "not-ia"

    def __str__(self):
        if self.status == "not-ia":
            return "not IA"
        if self.status == "identity":
            return f"identity through degree {self.bound}"
        return f"IA({self.i})"


def ia_level(phi, max_degree=DEFAULT_MAX_DEGREE):
    """Least i with a nonzero degree-(i+1) deviation from the identity,
    looked for through degree ``max_degree``; ``AlgebraError`` if it is
    negative."""
    if max_degree < 0:
        raise AlgebraError(f"truncation degree must be >= 0, got {max_degree}")
    idn = Endomorphism.identity(phi.variety)
    lowest = None
    for f, x in zip(phi.images, idn.images):
        dev = f - x
        if dev.is_zero():
            continue
        d = dev.min_degree()
        if lowest is None or d < lowest:
            lowest = d
    if lowest is not None and lowest <= 1:
        return FiltrationLevel("not-ia", bound=max_degree)
    if lowest is None or lowest > max_degree:
        return FiltrationLevel("identity", bound=max_degree)
    return FiltrationLevel("level", i=lowest - 1, bound=max_degree)


def tangent(phi, max_degree=DEFAULT_MAX_DEGREE):
    """The tangent derivation T(phi) in L_i for phi in IA(i); T(id) = 0."""
    lev = ia_level(phi, max_degree)
    if not lev.is_ia:
        raise NotIA("tangent is defined only for IA endomorphisms")
    if lev.status == "identity":
        return Derivation.zero(phi.variety)
    idn = Endomorphism.identity(phi.variety)
    coords = tuple(
        (f - x).homogeneous_component(lev.i + 1) for f, x in zip(phi.images, idn.images)
    )
    return Derivation(phi.variety, coords)


def truncated_inverse(phi, k):
    """The unique psi of degree <= k with compose(phi, psi) = identity
    modulo degree > k, i.e. psi(phi(x)) = x through degree k.

    Write phi = c + L x + h, with h the part of degree >= 2.  The inverse
    of the constant-free map L x + h is the fixed point of
    psi = L^-1 (x - h(psi)).  It is solved online, one degree per round
    (``_online_rounds``): psi starts as L^-1 x, and round m computes only
    the degree-m component of h(psi).  Since h has no linear part, that
    component reads psi below degree m only, so it makes psi exact through
    m.  The constant is undone afterwards by substituting the translation
    x - c, which is affine and so exact.  Raises ``NotInvertible`` if L is
    singular and ``AlgebraError`` if k < 0.
    """
    if k < 0:
        raise AlgebraError(f"truncation degree must be >= 0, got {k}")
    var = phi.variety
    try:
        ginv = linalg.inverse(phi.linear_part())
    except linalg.SingularMatrix as exc:
        raise NotInvertible("linear part is not invertible") from exc
    gens = var.gens()
    psi = [_linear_combination(var, row, gens) for row in ginv]
    if k > 1:
        psi = _online_rounds(var, ginv, psi, phi.images, k)
    inv = Endomorphism(var, tuple(psi) if k else (var.zero(),) * var.rank)
    consts = phi.constant_part()
    if any(consts):
        shift = [x - var.scalar(c) for x, c in zip(gens, consts)]
        inv = compose(Endomorphism(var, shift), inv)
    return inv


def _online_rounds(var, ginv, linear_psi, images, k):
    """psi = L^-1 (x - h(psi)) through degree k, from psi's linear part.

    psi_j is kept as its homogeneous components psi_j[d].  For each proper
    prefix p of h's words (``_split_key``) a memo holds the components
    P(p)[d] of p(psi); it lives for the whole call.  With p = p' x_j,

        P(p)[m] = sum over d of P(p')[d] psi_j[m - d],

    and every factor on the right has degree below m, so it was final
    before round m.  Round m forms the degree-m component of every prefix
    and of every word of h once; a word's component is added into the
    right-hand side and dropped, and a prefix's degree-k component is
    never formed, since no word of degree <= k reads it.  A free-Lie map
    substitutes as the associative map on K<X> it restricts, so its words
    multiply by concatenation, which ``_product`` does for free-Lie keys
    as for associative ones."""
    kind = var.kind
    comps = [[{}, f.coeffs] for f in linear_psi]
    # h: phi's words of degree 2..k (higher ones cannot reach psi through
    # k), each with the coordinates it occurs in and its coefficients
    uses = {}
    for i, f in enumerate(images):
        for w, c in f.coeffs.items():
            if 2 <= _mono_degree(kind, w) <= k:
                uses.setdefault(w, []).append((i, c))
    memo, prefixes = {}, []
    for w in uses:
        p = _split_key(kind, w)[0]
        while p not in memo:  # a loop over p's own prefixes, not recursion
            q, j = _split_key(kind, p)
            e = _mono_degree(kind, p)
            if e == 1:
                memo[p] = comps[j]  # a generator's image is psi_j itself
                break
            memo[p] = [{}] * e  # zero below its degree; one more per round
            prefixes.append((e, p, q, j))
            p = q
    prefixes.sort(key=lambda t: t[0])  # shortest first
    words = sorted(
        ((_mono_degree(kind, w), w, *_split_key(kind, w)) for w in uses),
        key=lambda t: t[0],
    )
    for m in range(2, k + 1):
        if m < k:
            for e, p, q, j in prefixes:
                if e > m:
                    break
                memo[p].append(_component(kind, memo[q], comps[j], m))
        rhs = [{} for _ in images]  # -h(psi)[m]; x has degree 1 only
        for e, w, q, j in words:
            if e > m:
                break
            if m < k and w in memo:  # w is also a prefix of a longer word
                part = memo[w][m]
            else:
                part = _component(kind, memo[q], comps[j], m)
            for i, c in uses[w]:
                acc = rhs[i]
                for key, v in part.items():
                    n = acc.get(key, 0) - c * v
                    if n:
                        acc[key] = n
                    else:
                        acc.pop(key, None)
        rhs = [Element._raw(var, acc) for acc in rhs]
        for row, comp in zip(ginv, comps):
            comp.append(_linear_combination(var, row, rhs).coeffs)
    psi = []
    for comp in comps:
        coeffs = {}
        for part in comp:
            coeffs.update(part)
        psi.append(Element._raw(var, coeffs))
    return psi


def _component(kind, left, right, m):
    """The degree-m component of a product from the components of its
    factors, ``sum(left[d] * right[m - d] for d < m)``, accumulated in one
    dict by ``_product``; each factor's index is below m."""
    out = {}
    for d in range(1, m):
        a, b = left[d], right[m - d]
        if a and b:
            _product(kind, a, ((m - d, b.items()),), None, out)
    return out


def _linear_combination(var, row, elements):
    terms = [e if c == 1 else e.scale(c) for c, e in zip(row, elements) if c]
    return sum(terms[1:], terms[0]) if terms else var.zero()


def group_commutator(phi, psi, k):
    """[phi, psi] = phi^-1 psi^-1 phi psi, exact through degree k for maps
    without constant terms.  With a constant it would not be: each factor
    is cut at degree k, and a cut term evaluated at x + c lands in lower
    degrees.  So a map with a constant term raises ``AlgebraError``, as
    does k < 0 (from ``truncated_inverse``)."""
    for which, m in (("first", phi), ("second", psi)):
        if any(m.constant_part()):
            raise AlgebraError(
                f"the {which} map has a constant term; the commutator is "
                f"exact through degree {k} only for maps without one"
            )
    phi_inv = truncated_inverse(phi, k)
    psi_inv = truncated_inverse(psi, k)
    return compose_all([phi_inv, psi_inv, phi, psi], max_degree=k)


def linear(variety, g):
    """The linear endomorphism x_i -> sum_j g[i][j] x_j."""
    gens = variety.gens()
    return Endomorphism(
        variety, tuple(_linear_combination(variety, row, gens) for row in g)
    )


def affine(variety, g, consts):
    """x_i -> sum_j g[i][j] x_j + consts[i]; unital varieties only."""
    if not variety.unital:
        raise AlgebraError("affine maps need constants; variety is not unital")
    lin = linear(variety, g)
    return Endomorphism(
        variety,
        tuple(
            f + variety.scalar(c) if c else f for f, c in zip(lin.images, consts)
        ),
    )


def elementary(variety, i, alpha, f):
    """(x_1, ..., alpha x_i + f, ..., x_n) with f free of x_i."""
    if alpha == 0:
        raise AlgebraError("elementary automorphism needs a nonzero scalar")
    if f.involves(i):
        raise AlgebraError("the added element may not involve the changed generator")
    if f.variety.kind is not variety.kind or f.variety.rank != variety.rank:
        raise VarietyMismatch("added element lives in a different algebra")
    images = list(variety.gens())
    images[i] = images[i].scale(alpha) + f
    return Endomorphism(variety, tuple(images))


def conjugate(g, phi):
    """alpha phi alpha^-1 for the linear map alpha with matrix g."""
    var = phi.variety
    alpha = linear(var, g)
    alpha_inv = linear(var, linalg.inverse(g))
    return compose(alpha, compose(phi, alpha_inv))


def conjugate_derivation(g, D):
    """alpha D alpha^-1 as a derivation: x_k -> alpha(D(alpha^-1(x_k)))."""
    var = D.variety
    alpha = linear(var, g)
    alpha_inv = linear(var, linalg.inverse(g))
    return Derivation(
        var, tuple(alpha.apply(D.apply(f)) for f in alpha_inv.images)
    )


def ia_correct(phi):
    """Compose phi with the inverse of its affine part (a member of G_n)
    so the result is an IA candidate; returns None if the linear part is
    singular."""
    try:
        corr = truncated_inverse(phi, 1)
    except NotInvertible:
        return None
    # this order: compose(phi, corr) is the identity through degree 1
    return compose(phi, corr)
