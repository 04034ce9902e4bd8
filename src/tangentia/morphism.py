"""Endomorphisms of a free algebra: composition, truncated inverses (the
fixed point psi = L^-1 (x - h(psi)) over phi's short nonlinear part h,
solved online: round m forms only the degree-m component of each prefix
product of h's words, from components kept for the whole call; then an
exact translation for constants), the IA filtration, tangent derivations,
group commutators, conjugation of derivations, and the standard
generators (linear / affine / elementary).

Composition convention, fixed once and used everywhere including the
chain rule: ``compose(phi, psi)`` is the map ``x_k -> phi(psi(x_k))``,
i.e. the group product ``phi psi`` (apply psi, then phi).  On coordinate
tuples this is the substitution of phi's images into psi's coordinates,
whole even in a cut composition.  An endomorphism is a ``freealg._Coords``
whose coordinates are its images, as a derivation's are its own.
"""
from __future__ import annotations

from dataclasses import dataclass

from .freealg import (
    AlgebraError,
    Element,
    Variety,
    _Coords,
    _add_scaled,
    _check_element,
    _check_type,
    _coeff,
    _combine,
    _key_degree,
    _prefix_walk,
    _product,
    _substitute,
)
from .deriv import Derivation
from . import linalg

__all__ = [
    "DEFAULT_MAX_DEGREE",
    "Endomorphism",
    "FiltrationLevel",
    "NotIA",
    "NotInvertible",
    "affine",
    "compose",
    "compose_all",
    "conjugate_derivation",
    "elementary",
    "group_commutator",
    "ia_correct",
    "ia_level",
    "linear",
    "tangent",
    "truncated_inverse",
]


class NotIA(AlgebraError):
    """The endomorphism has no tangent (it is not an IA map)."""


class NotInvertible(AlgebraError):
    pass


def _matrix_inverse(g, what):
    """The inverse of the square matrix g; ``NotInvertible`` names it as
    ``what`` if g is singular."""
    try:
        return linalg.inverse(g)
    except linalg.SingularMatrix as exc:
        raise NotInvertible(f"{what} is not invertible") from exc


DEFAULT_MAX_DEGREE = 12


class Endomorphism(_Coords):
    """phi = (f_1, ..., f_n), acting by x_i -> f_i; its coordinates are
    its images.

    This class models formal endomorphisms; automorphism status is never
    decided in general.  A map is certified invertible only through
    explicit composition checks (exact or truncated).
    """

    __slots__ = ()
    _MESSAGES = ("need one image per generator", "image lives in a different algebra",
                 "constant image part in a Lie variety",
                 "endomorphisms over different varieties")

    @property
    def images(self):
        return self.coords

    @classmethod
    def identity(cls, variety):
        return cls(variety, variety.gens())

    def apply(self, a):
        _check_element(self.variety, a, "argument lives in a different algebra")
        return a.substitute(self.images)

    def truncate(self, k):
        return Endomorphism(self.variety, tuple(f.truncate(k) for f in self.images))

    def is_identity(self):
        return _deviation_degree(self) is None

    def is_identity_through(self, k):
        d = _deviation_degree(self)
        return d is None or d > k

    def linear_part(self):
        """Matrix g with phi(x_i) = sum_j g[i][j] x_j + higher order."""
        var = self.variety
        keys = [var._gen_key(j) for j in range(var.rank)]
        return [[f.coeffs.get(x, 0) for x in keys] for f in self.images]

    def constant_part(self):
        return tuple(f.constant_term() for f in self.images)

    def __repr__(self):
        imgs = ", ".join(str(f) for f in self.images)
        return f"({imgs})"


def compose(phi, psi, max_degree=None):
    """The group product phi psi: x_k -> phi(psi(x_k)).

    With ``max_degree`` set, the result is ``compose(phi, psi)`` without
    its terms above that degree.  psi's images are substituted whole, in
    one batch, into phi's (``freealg._substitute``), which cuts only
    phi's images and the products: degrees only grow under products, but
    a term of psi above the bound lands lower once phi has a constant
    term.  Words go by Horner's rule, which skips a word whose letters'
    least image degrees sum past the bound, and exponent vectors and
    metabelian keys by the prefix walk.  The work still grows with psi's
    terms: with a dense truncated inverse, ``compose(inv, phi)`` is the
    cheaper order.
    """
    _check_type(phi, Endomorphism)
    phi._check(psi)
    target = phi.images[0].variety  # the variety, named as phi's images are
    images = _substitute([g.coeffs for g in psi.images], phi.images, max_degree)
    return Endomorphism(phi.variety, tuple(Element._raw(target, f) for f in images))


def compose_all(maps, max_degree=None):
    """The group product of ``maps`` in order; ``AlgebraError`` if empty."""
    if not maps:
        raise AlgebraError("need at least one map to compose")
    out = maps[0]
    _check_type(out, Endomorphism)
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


def _deviation_degree(phi):
    """The least degree of phi(x_i) - x_i over all i, or None if phi is the
    identity: one pass over the images' terms, forming nothing.  The
    deviation is f_i's terms with 1 taken from the coefficient of x_i,
    so a degree-1 term other than 1 x_i, or a missing x_i, puts it at
    degree 1 or below."""
    var = phi.variety
    degree = _key_degree(var._format)
    lowest = None
    for i, f in enumerate(phi.images):
        x = var._gen_key(i)
        if f.coeffs.get(x) != 1:
            lowest = 1 if lowest is None else min(lowest, 1)
        for m in f.coeffs:
            d = degree(m)
            if (lowest is None or d < lowest) and m != x:
                lowest = d
    return lowest


def ia_level(phi, max_degree=DEFAULT_MAX_DEGREE):
    """Least i with a nonzero degree-(i+1) deviation from the identity,
    looked for through degree ``max_degree``; ``AlgebraError`` if it is
    negative."""
    _check_type(phi, Endomorphism)
    if max_degree < 0:
        raise AlgebraError(f"truncation degree must be >= 0, got {max_degree}")
    lowest = _deviation_degree(phi)
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
    return _tangent_at(phi, lev.i)


def _tangent_at(phi, i):
    """The tangent of phi in IA(i), for i >= 1 (as ``ia_level`` finds it):
    the degree-(i+1) part of phi's images.  That is their deviation from
    the identity in that degree, since the generators have degree 1."""
    return Derivation(
        phi.variety, tuple(f.homogeneous_component(i + 1) for f in phi.images)
    )


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
    x - c, which is affine and so exact.  The rounds stop once h(psi) has
    no terms left to give, so a polynomial inverse costs the same at any
    large k.  Coefficients are stored as ``_coeff`` stores them, an int
    when integral (``_with_ints``).  Raises ``NotInvertible`` if L is
    singular and ``AlgebraError`` if k < 0.
    """
    _check_type(phi, Endomorphism)
    if k < 0:
        raise AlgebraError(f"truncation degree must be >= 0, got {k}")
    var = phi.variety
    ginv = _matrix_inverse(phi.linear_part(), "linear part")
    psi = [f.coeffs for f in linear(var, ginv).images] if k else [{}] * var.rank
    if k > 1:
        psi = _online_rounds(var._format, ginv, psi, phi.images, k)
    inv = Endomorphism(var, (Element._raw(var, f) for f in psi))
    consts = phi.constant_part()
    if any(consts):
        shift = [x - var.scalar(c) for x, c in zip(var.gens(), consts)]
        inv = compose(Endomorphism(var, shift), inv)
    return _with_ints(inv, ginv, (f.coeffs.values() for f in phi.images))


def _with_ints(value, *inputs):
    """The map or derivation ``value`` with each ``Fraction(n, 1)`` in its
    coordinates stored as n (``_coeff``), if the rows of coefficients
    ``inputs`` it came from hold a ``Fraction``; with ints alone none
    arises.  The coordinates are never scanned: they may be thousands of
    terms."""
    if all(type(c) is int for rows in inputs for row in rows for c in row):
        return value
    var = value.variety
    return type(value)(var, (
        Element._raw(var, {m: _coeff(c) for m, c in f.coeffs.items()})
        for f in value.coords
    ))


def _online_rounds(fmt, ginv, linear_psi, images, k):
    """psi = L^-1 (x - h(psi)) through degree k, from psi's linear part,
    as coefficient dicts.

    psi_j is kept as its homogeneous components psi_j[d].  One table,
    sorted by degree, holds every key of h and every proper prefix of one
    (``_prefix_walk``), each with its uses (the coordinates whose image has
    the key, with -c), and a prefix with a memo of the components P(p)[d]
    of p(psi) for the whole call.  With p = p' x_j,

        P(p)[m] = sum over d of P(p')[d] psi_j[m - d],

    and every factor on the right has degree below m, so it was final
    before round m.  Round m walks the table once, forming each entry's
    degree-m component once.  A key with one use and no memo forms it
    times -c straight into the accumulator its use names: -c scales the
    smaller factor of each product, and no dict holds the component
    itself.  Any other entry forms it in a dict of its own, kept in its
    memo if it is a prefix and added times -c into the accumulators its
    uses name.  A prefix that is no key is skipped at m = k, as no word
    of degree <= k reads its degree-k component.

    A free-Lie map substitutes as the associative map on K<X> it
    restricts, so both word kinds run the same rounds on their stored
    words, the codes that every word product multiplies (``fmt``, the
    variety's key format, is their width): the rounds build and hash no
    word tuple.

    The rounds stop early once psi is exact.  If psi's nonzero components
    so far end at degree D and h's words at degree deg(h), then h(psi) has
    no term above deg(h) D; once the rounds are past that degree, every
    later component is zero.  So a map with a polynomial inverse, such as
    (x + y^2, y), costs the same at any large k, and a linear map (empty
    h) runs no round."""
    degree = _key_degree(fmt)
    comps = [[{}, f] for f in linear_psi]
    # h's keys of degree 2..k (no higher one reaches psi) with their uses
    uses = {}
    for i, f in enumerate(images):
        for w, c in f.coeffs.items():
            if 2 <= degree(w) <= k:
                uses.setdefault(w, []).append((i, -c))
    prefixes, memo = set(), {}

    def step(left, q, j):  # q x_j's degree, components and factors, from q's
        prefixes.add(q)
        if left is None:  # a generator's image is psi_j itself
            return 1, comps[j], None
        e = left[0] + 1  # its components are zero below e; one more per round
        return e, [{}] * e, (left[1], comps[j])

    for p in uses:
        _prefix_walk(fmt, p, memo, step)
    table = sorted(  # shortest first
        ((e, own if p in prefixes else None, *factors, uses.get(p, ()))
         for p, (e, own, factors) in memo.items() if factors),
        key=lambda t: t[0],
    )
    h_degree = max(map(degree, uses), default=0)
    psi_degree = 1  # the highest degree of a nonzero component so far
    for m in range(2, k + 1):
        if m > h_degree * psi_degree:  # h(psi) has no term of degree >= m
            break
        accs = [{} for _ in images]  # -h(psi)[m] (x has degree 1 only)
        for e, own, left, right, node_uses in table:
            if e > m:
                break
            if own is None and len(node_uses) == 1:  # a key read once
                i, c = node_uses[0]
                _component(fmt, left, right, m, accs[i], c)
                continue
            if m == k and not node_uses:  # a prefix only: no word reads it
                continue
            part = _component(fmt, left, right, m)
            if own is not None:
                own.append(part)
            for i, c in node_uses:
                _add_scaled(accs[i], c, part)
        for row, comp in zip(ginv, comps):
            comp.append(_combine(row, accs))
        if any(comp[m] for comp in comps):
            psi_degree = m
    for comp in comps:  # each coordinate's components, in its empty degree-0 dict
        for part in comp[1:]:
            comp[0].update(part)
    return [comp[0] for comp in comps]


def _component(fmt, left, right, m, out=None, c=1):
    """The degree-m component of a product from the components of its
    factors, ``sum(left[d] * right[m - d] for d < m)``, accumulated in one
    dict by ``_product``, whose key format is ``fmt``; each factor's index
    is below m.
    Given ``out``, ``c`` times the component is added into that dict,
    which is returned: c scales the smaller factor of each product."""
    if out is None:
        out = {}
    for d in range(1, m):
        a, b = left[d], right[m - d]
        if a and b:
            if c != 1:
                if len(a) <= len(b):
                    a = {key: c * v for key, v in a.items()}
                else:
                    b = {key: c * v for key, v in b.items()}
            _product(fmt, a, ((m - d, b.items()),), None, out)
    return out


def group_commutator(phi, psi, k):
    """[phi, psi] = phi^-1 psi^-1 phi psi, exact through degree k for maps
    without constant terms.  With a constant it would not be: each factor
    is cut at degree k, and a cut term evaluated at x + c lands in lower
    degrees.  So a map with a constant term raises ``AlgebraError``, as
    does k < 0 (from ``truncated_inverse``)."""
    _check_type(phi, Endomorphism)
    phi._check(psi)
    for which, m in (("first", phi), ("second", psi)):
        if any(m.constant_part()):
            raise AlgebraError(
                f"the {which} map has a constant term; the commutator is "
                f"exact through degree {k} only for maps without one"
            )
    phi_inv = truncated_inverse(phi, k)
    psi_inv = truncated_inverse(psi, k)
    return compose_all([phi_inv, psi_inv, phi, psi], max_degree=k)


def _check_square(variety, g):
    n = variety.rank
    if len(g) != n or any(len(row) != n for row in g):
        raise AlgebraError(f"the matrix must be {n}x{n} for a rank-{n} variety")


def linear(variety, g):
    """The linear endomorphism x_i -> sum_j g[i][j] x_j; ``AlgebraError``
    unless g is n x n for the variety's rank n."""
    _check_type(variety, Variety)
    _check_square(variety, g)
    gens = [x.coeffs for x in variety.gens()]
    return Endomorphism(variety, (
        Element._raw(variety, _combine([_coeff(c) for c in row], gens)) for row in g
    ))


def affine(variety, g, consts):
    """x_i -> sum_j g[i][j] x_j + consts[i]; unital varieties only, and
    ``AlgebraError`` unless there is one constant per generator."""
    _check_type(variety, Variety)
    if not variety.unital:
        raise AlgebraError("affine maps need constants; variety is not unital")
    if len(consts) != variety.rank:
        raise AlgebraError(
            f"need one constant per generator: {variety.rank}, got {len(consts)}"
        )
    lin = linear(variety, g).images
    return Endomorphism(variety, (f + variety.scalar(c) for f, c in zip(lin, consts)))


def elementary(variety, i, alpha, f):
    """(x_1, ..., alpha x_i + f, ..., x_n) with f free of x_i."""
    if alpha == 0:
        raise AlgebraError("elementary automorphism needs a nonzero scalar")
    _check_element(variety, f, "added element lives in a different algebra")
    if f.involves(i):
        raise AlgebraError("the added element may not involve the changed generator")
    images = list(variety.gens())
    images[i] = images[i].scale(alpha) + f
    return Endomorphism(variety, tuple(images))


def conjugate_derivation(g, D):
    """alpha D alpha^-1 as a derivation, for alpha = ``linear(var, g)``:
    x_k -> alpha(D(alpha^-1(x_k))); raises ``NotInvertible`` if g is
    singular."""
    _check_type(D, Derivation)
    _check_square(D.variety, g)
    return _conjugate(g, _matrix_inverse(g, "conjugating matrix"), D)


def _conjugate(g, g_inv, D):
    """``conjugate_derivation`` with the inverse g_inv of g given, or
    d times it: with g_inv = d g^-1 the result is d alpha D alpha^-1, on
    ints alone when g, g_inv and D's coefficients are ints.  D is linear
    and alpha^-1(x_k) = sum_j g^-1[k][j] x_j, so
    alpha D alpha^-1(x_k) = sum_j g^-1[k][j] alpha(D(x_j)): one batched
    substitution maps D's coordinates by alpha, and each new coordinate
    is a combination of those images with a row of g_inv."""
    var = D.variety
    alpha = linear(var, g).images
    images = _substitute([f.coeffs for f in D.coords], alpha, None)
    conj = Derivation(var, (Element._raw(var, _combine(row, images)) for row in g_inv))
    return _with_ints(conj, g, g_inv, (f.coeffs.values() for f in D.coords))


def ia_correct(phi):
    """Compose phi with the inverse of its affine part (a member of G_n)
    so the result is an IA candidate; returns None if the linear part is
    singular.  A map that is the identity through degree 1 (no constant,
    identity linear part) is its own correction, since composing with the
    identity changes nothing, so it comes back as it is."""
    _check_type(phi, Endomorphism)
    if phi.is_identity_through(1):
        return phi
    try:
        corr = truncated_inverse(phi, 1)
    except NotInvertible:
        return None
    # this order: compose(phi, corr) is the identity through degree 1
    return compose(phi, corr)
