"""Universal multiplicative enveloping algebras and the trace codomain.

Representation of U(A) per variety:

* polynomial        -- U is A itself (commutative); terms keyed by monomials
* free associative  -- U = A (x) A^op; terms keyed by pairs (left word,
                       right word), each coded as A codes its words,
                       acting as m -> a*m*b; product rule
                       (a(x)b)(c(x)d) = (ac)(x)(db)
* free Lie          -- U(L_n) is the free associative algebra on the same
                       generators (PBW); terms keyed by coded words, L_a
                       acting via ad.  A free-Lie element is stored as its
                       image in U(L_n), so L_a has the same words as a
* metabelian Lie    -- values live in U/R = Q[t_1..t_n] with t_i the image
                       of L_{y_i}; terms keyed by exponent vectors.  R is
                       the ideal generated by all L_{[a,b]} (square zero)

The trace codomain U/([U,U]+R) has a necklace normal form: every word key
is replaced by its lexicographically minimal rotation (per tensor factor
in the associative case), a word tuple, decoded from U's code once
(``trace_class``) and coded again only by ``TraceClass.lift``;
commutative cases pass through.

``EnvElement`` and ``TraceClass`` are linear combinations of these keys
and take their linear arithmetic from ``freealg.LinearCombination``; the
two classes never mix.  In every kind but the associative one, U's keys
are those of the free algebra that the L_{x_i} generate
(``generated_algebra``, which also carries the names U prints with: A's
own, or t1..tn in the metabelian kind): ``env_mul`` multiplies with that
algebra's product kernel, ``env_str`` prints with its ``key_printer``
(words decoded first),
and the push-forward of a matrix along an endomorphism (``fox.push_matrix``)
and the extension D* of a derivation (``Derivation.star_extend``) substitute
into it or differentiate it.  Only the associative tensor pairs keep loops
of their own, and a key printer that joins the printed words of both factors.

Radical registry: R = 0 for polynomial, free associative, and free Lie
algebras (recorded as a modeling assumption for the tensor-of-free-algebra
cases); R = (L_{[a,b]}) for metabelian Lie algebras.
"""
from __future__ import annotations

from fractions import Fraction

from . import freealg
from .freealg import (
    Element,
    Kind,
    LinearCombination,
    Variety,
    _add_scaled,
    _check_element,
    _cat,
    _check_type,
    _decoder,
    _encode,
    _key_degree,
    _merge,
    _operand,
    _prefix_walk,
    _product,
    key_printer,
    terms_str,
)

__all__ = [
    "EnvElement",
    "TraceClass",
    "env_apply",
    "env_mul",
    "env_str",
    "left_mul",
    "necklace",
    "right_mul",
    "trace_class",
    "trace_str",
]


def necklace(w):
    """Lexicographically minimal rotation of a word, in linear time: two
    candidate starts race on the doubled word, and when they differ at
    offset k the greater one skips k + 1 starts (minimum expression)."""
    n, s = len(w), w + w
    i, j, k = 0, 1, 0
    while i < n and j < n and k < n:
        a, b = s[i + k], s[j + k]
        if a == b:
            k += 1
            continue
        if a > b:
            i += k + 1
        else:
            j += k + 1
        if i == j:
            j += 1
        k = 0
    i = min(i, j)
    return s[i:i + n]


class EnvElement(LinearCombination):
    """Element of U(A) in the variety-specific representation."""

    __slots__ = ()

    @classmethod
    def zero(cls, variety):
        return cls(variety, {})

    @classmethod
    def one(cls, variety):
        if variety.kind is Kind.FREE_ASSOCIATIVE:
            return cls(variety, {(1, 1): 1})
        return cls(variety, generated_algebra(variety).one().coeffs)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        return env_mul(self, other)


def _u_format(variety):
    """The key format of U's keys (``Variety._format``): a tensor factor's
    in assoc, else ``generated_algebra``'s, which has the variety's rank:
    exponent vectors in the metabelian U/R."""
    if variety.kind is Kind.METABELIAN_LIE:
        return Kind.POLYNOMIAL
    return variety._format


def generated_algebra(variety):
    """The free algebra whose keys, product and names U has in every kind
    but the associative one (where A keys each tensor factor): U is
    generated by the L_{x_i}, freely for free Lie (words in A's names) and
    freely commuting for the polynomial kind (A itself) and for the
    metabelian U/R (exponent vectors in t1..tn).  ``left_mul`` writes each
    L_a in these keys.  Never cached: ``Variety`` equality ignores names."""
    rank, kind = variety.rank, variety.kind
    if kind is Kind.METABELIAN_LIE:
        return Variety(Kind.POLYNOMIAL, rank, tuple(f"t{i + 1}" for i in range(rank)))
    if kind is Kind.FREE_LIE:
        return Variety(Kind.FREE_ASSOCIATIVE, rank, variety.names)
    return variety


def left_mul(a):
    """The operator L_a as an element of U(A)."""
    _check_type(a, Element)
    var = a.variety
    kind = var.kind
    if kind is Kind.POLYNOMIAL or kind is Kind.FREE_LIE:
        return EnvElement(var, dict(a.coeffs))
    if kind is Kind.FREE_ASSOCIATIVE:
        return EnvElement(var, {(w, 1): c for w, c in a.coeffs.items()})
    # metabelian: L of any bracket lies in R, only the linear part survives
    t = generated_algebra(var)._gen_key
    return EnvElement(var, {t(m[0]): c for m, c in a.coeffs.items() if len(m) == 1})


def right_mul(a):
    """The operator R_a; in Lie varieties R_a = -L_a."""
    _check_type(a, Element)
    kind = a.variety.kind
    if kind is Kind.POLYNOMIAL:
        return left_mul(a)
    if kind is Kind.FREE_ASSOCIATIVE:
        return EnvElement(a.variety, {(1, w): c for w, c in a.coeffs.items()})
    return -left_mul(a)


def env_mul(u, v):
    """Associative product of U in the chosen representation."""
    _check_type(u, EnvElement)
    u._check(v)
    kind = u.variety.kind
    if kind is Kind.FREE_ASSOCIATIVE:
        # (a(x)b)(c(x)d) = ac (x) db: right factors compose in A^op
        out = {}
        for (a, b), c1 in u.coeffs.items():
            for (c, d), c2 in v.coeffs.items():
                _merge(out, (_cat(a, c), _cat(d, b)), c1 * c2)
        return EnvElement._raw(u.variety, out)
    fmt = _u_format(u.variety)
    out = _product(fmt, u.coeffs, _operand(fmt, v.coeffs, None), None)
    return EnvElement._raw(u.variety, out)


def env_apply(u, m):
    """Apply the operator u to an algebra element m.

    The generators of U act by multiplication in the polynomial kind and
    via ad in the Lie kinds.  For the metabelian kind the t_i are applied
    in ascending generator order; the action is a genuine U/R-module
    action on the derived subalgebra (where the ad's commute) and
    order-dependent only outside it.
    """
    if not isinstance(m, Element):
        raise TypeError("env_apply expects an algebra Element")
    _check_type(u, EnvElement)
    _check_element(u.variety, m, "operator and operand from different varieties")
    var = m.variety
    kind = var.kind
    out = {}
    if kind is Kind.FREE_ASSOCIATIVE:
        for (a, b), c in u.coeffs.items():
            for w, cw in m.coeffs.items():
                _merge(out, _cat(_cat(a, w), b), c * cw)
        return Element._raw(var, out)

    # a key of U is a product of the L_{x_j}: the walk applies them to m
    # one at a time, the last letter of a word first
    def step(acc, _prefix, j):
        return var.gen(j) * (m if acc is None else acc)

    fmt, memo = _u_format(var), {}
    for key, c in u.coeffs.items():
        if kind is Kind.FREE_LIE:  # the reversed word, read off the code's last letters
            key, rev = 1, key
            while rev > 1:
                key = key << fmt | rev & (1 << fmt) - 1
                rev >>= fmt
        acc = _prefix_walk(fmt, key, memo, step)
        _add_scaled(out, c, (m if acc is None else acc).coeffs)
    return Element._raw(var, out)


class TraceClass(LinearCombination):
    """Normal form in U/([U,U]+R), the codomain of divergence."""

    __slots__ = ()

    def lift(self):
        """Some EnvElement representative (necklace keys coded as words)."""
        var = self.variety
        kind, b = var.kind, var._format
        if kind is Kind.FREE_ASSOCIATIVE:
            return EnvElement(var, {
                (_encode(a, b), _encode(w, b)): c for (a, w), c in self.coeffs.items()
            })
        if kind is Kind.FREE_LIE:
            return EnvElement(var, {_encode(w, b): c for w, c in self.coeffs.items()})
        return EnvElement(var, dict(self.coeffs))


def env_str(u):
    """Deterministic plain-text form of an EnvElement (deglex term order):
    a key prints as a monomial of ``generated_algebra``, a tensor pair as
    its two words joined by ``(x)``; coded words are decoded first
    (``_decoded``)."""
    _check_type(u, EnvElement)
    return _tuples_str(u.variety, _decoded(u.variety, u.coeffs))


def trace_str(t):
    """Deterministic plain-text form of a TraceClass, keys as in env_str."""
    _check_type(t, TraceClass)
    return _tuples_str(t.variety, t.coeffs)


def _decoded(variety, coeffs):
    """U's coefficient dict ``coeffs`` with its coded words decoded into
    word tuples (``freealg._decoder``), tensor factors one by one."""
    kind = variety.kind
    if kind is Kind.POLYNOMIAL or kind is Kind.METABELIAN_LIE:
        return coeffs
    decode = _decoder(variety._format)
    if kind is Kind.FREE_LIE:
        return {decode(w): c for w, c in coeffs.items()}
    return {(decode(a), decode(b)): c for (a, b), c in coeffs.items()}


def _tuples_str(variety, coeffs):
    """``env_str`` of U's coefficient dict keyed by tuples."""
    base = generated_algebra(variety)
    key_str = key_printer(base)
    if variety.kind is Kind.FREE_ASSOCIATIVE:
        return terms_str(
            coeffs,
            lambda key: f"{key_str(key[0])}(x){key_str(key[1])}",
            lambda key: len(key[0]) + len(key[1]),
        )
    return terms_str(coeffs, key_str, _key_degree(base.kind))


def trace_class(u):
    """Canonical image of u in U/([U,U]+R): each word's necklace, a word
    tuple decoded from its code and rotated once per width's store
    (``_necklace``)."""
    _check_type(u, EnvElement)
    kind = u.variety.kind
    if kind is Kind.POLYNOMIAL or kind is Kind.METABELIAN_LIE:
        return TraceClass(u.variety, dict(u.coeffs))
    store, out = freealg._WORDS[u.variety._format], {}
    if kind is Kind.FREE_ASSOCIATIVE:
        for (a, b), c in u.coeffs.items():
            _merge(out, (_necklace(store, a), _necklace(store, b)), c)
    else:
        for w, c in u.coeffs.items():
            _merge(out, _necklace(store, w), c)
    return TraceClass(u.variety, out)


def _necklace(store, k):
    """The necklace of the word coded ``k`` in ``store``, kept there."""
    n = store.necklaces.get(k)
    if n is None:
        n = store.necklaces[k] = necklace(store.decode(k))
    return n
