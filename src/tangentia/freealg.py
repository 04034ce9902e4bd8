"""Exact arithmetic in free algebras of four varieties.

Supported varieties: commutative polynomials, free associative algebras,
free Lie algebras (Lyndon-word basis with standard bracketing), and free
metabelian Lie algebras (left-normed bracket basis).  Coefficients are
exact rationals, stored as ``int`` when integral and as ``Fraction``
otherwise; one normaliser, ``_coeff``, applies this where a coefficient
enters (construction, ``scale``, ``Variety.scalar``), so the product
kernel and substitution run on ``int`` arithmetic on integral inputs.
Scaling by a non-integral rational normalises its products too.  Sums
and products of non-integral coefficients may still leave an integral
``Fraction`` (equal to, hashing and printing like its ``int``): checking
their type would slow the integer path.
There is no floating point anywhere in this package.

Stored keys per variety:

* polynomial        -- exponent vector, a tuple of ``rank`` nonnegative ints
* free associative  -- word, a tuple of generator indices (empty = 1)
* free Lie          -- word of K<X>: an element is stored as its image
                       under the injective embedding L(X) -> K<X>, so the
                       bracket is the commutator of words.  Lyndon words
                       (standard bracketing) stay the basis at the edges:
                       ``Element(free_lie(n), d)`` takes Lyndon
                       coordinates, and ``basis_coeffs`` gives them back
                       for printing and coordinate vectors, by an
                       elimination over the Lyndon words alone
                       (``lie_from_assoc``).  That elimination assumes
                       its input is a Lie element, which every operation
                       here preserves; ``Element.check`` verifies it
* metabelian Lie    -- ``(i,)`` for the generator ``y_i``, or a flat tuple
                       ``(i1, i2, i3, ..., im)`` with ``i1 > i2 <= i3 <= ...``
                       encoding the left-normed bracket
                       ``[y_i1, y_i2, y_i3, ..., y_im]``

One sparse core serves the whole package.  ``LinearCombination`` holds a
variety and a dict from canonical keys to nonzero rationals, and owns the
linear arithmetic (sum, difference, negation, scaling, equality, hashing);
``Element`` here and the envelope's ``EnvElement`` and ``TraceClass`` are
its subclasses.  ``_product`` is the one product kernel, with one loop per
key format: exponent vectors add, metabelian keys bracket, and words
concatenate, free-Lie words as well as associative ones.  It serves
``Element.mul_trunc``, which forms every element product (``__mul__``
included) and the free-Lie bracket as ``ab - ba`` of words, substitution
(``_substitute``), the homogeneous products of
``morphism.truncated_inverse`` (summed in place into one dict) and, for
envelope keys that add or concatenate, ``envelope.env_mul``.  Its right
operand comes as degree buckets, ``[(degree, [(key, coeff), ...]), ...]``
in ascending degree (``_degree_buckets``): a truncated product at degree
``k`` walks them for each left term and stops at the first bucket past
the room ``k`` leaves, so the pairs it drops are never visited.  Nothing
keeps buckets on an element: ``_substitute`` groups each argument once
per call, and the plain product passes the whole dict as a single bucket
and pays no bucketing.

Substitution, the Leibniz action and the other maps built one generator
at a time share one prefix walk: ``_split_key``, the only code that knows
how a key factors, writes each stored key as a shorter key times one
generator, and ``_prefix_walk`` builds a key's value from its prefix's.
``_substitute`` is the one substitution: it takes a batch of dicts and
one argument tuple, and its memo of prefix images lives for that call.

All values are immutable after construction and all operations are pure.
"""
from __future__ import annotations

import heapq
import itertools
import math
from dataclasses import dataclass, field
from enum import Enum
from fractions import Fraction
from operator import add


class AlgebraError(ValueError):
    """Base class for exact-algebra usage errors."""


class VarietyMismatch(AlgebraError):
    """Operands live in different varieties (kind or rank differ)."""


class ConstantInLieVariety(AlgebraError):
    """Attempt to build a degree-0 element of a non-unital variety."""


class Kind(Enum):
    POLYNOMIAL = "polynomial"
    FREE_ASSOCIATIVE = "assoc"
    FREE_LIE = "lie"
    METABELIAN_LIE = "metabelian"


_UNITAL = frozenset({Kind.POLYNOMIAL, Kind.FREE_ASSOCIATIVE})
_LIE_KINDS = frozenset({Kind.FREE_LIE, Kind.METABELIAN_LIE})
# bound once: an Enum attribute lookup costs as much as a tiny product's set-up
_FREE_LIE = Kind.FREE_LIE


def _coeff(c):
    """The stored form of a coefficient: ``c`` itself if it is an ``int``,
    a ``Fraction`` reduced to its numerator when its denominator is 1.
    ``Fraction(n) == n`` and ``hash(Fraction(n)) == hash(n)``, so the form
    changes no equality, hash or printed string; it lets sums and products
    of integral coefficients run on ``int``.  Anything else (a float, a
    string, a bool) is a ``TypeError``: coefficients are exact."""
    if type(c) is int:
        return c
    if isinstance(c, Fraction):
        return c.numerator if c.denominator == 1 else c
    raise TypeError(f"coefficients are int or Fraction, not {type(c).__name__}")


def _default_names(kind, rank):
    prefix = "y" if kind is Kind.METABELIAN_LIE else "x"
    return tuple(f"{prefix}{i + 1}" for i in range(rank))


@dataclass(frozen=True)
class Variety:
    """A free algebra's variety: kind plus number of generators.

    Generator names are cosmetic (used for printing only) and excluded
    from equality.
    """

    kind: Kind
    rank: int
    names: tuple = field(default=(), compare=False, repr=False)

    def __post_init__(self):
        if self.rank < 1:
            raise AlgebraError("rank must be >= 1")
        if not self.names:
            object.__setattr__(self, "names", _default_names(self.kind, self.rank))
        elif len(self.names) != self.rank:
            raise AlgebraError("need exactly one name per generator")
        elif len(set(self.names)) != self.rank:
            raise AlgebraError(f"generator names repeat: {', '.join(self.names)}")

    @property
    def unital(self):
        return self.kind in _UNITAL

    @property
    def is_lie(self):
        return self.kind in _LIE_KINDS

    def gen(self, i):
        """The i-th generator (0-based) as an Element."""
        if not 0 <= i < self.rank:
            raise AlgebraError(f"generator index {i} out of range for rank {self.rank}")
        if self.kind is Kind.POLYNOMIAL:
            mono = tuple(1 if j == i else 0 for j in range(self.rank))
        else:
            mono = (i,)
        return Element._raw(self, {mono: 1})

    def gens(self):
        return tuple(self.gen(i) for i in range(self.rank))

    def zero(self):
        return Element._raw(self, {})

    def one(self):
        return self.scalar(1)

    def scalar(self, c):
        c = _coeff(c)
        if c == 0:
            return self.zero()
        if not self.unital:
            raise ConstantInLieVariety(
                f"no constants in the non-unital variety {self.kind.value}"
            )
        if self.kind is Kind.POLYNOMIAL:
            mono = (0,) * self.rank
        else:
            mono = ()
        return Element._raw(self, {mono: c})


def polynomial(rank, names=()):
    return Variety(Kind.POLYNOMIAL, rank, tuple(names))


def free_associative(rank, names=()):
    return Variety(Kind.FREE_ASSOCIATIVE, rank, tuple(names))


def free_lie(rank, names=()):
    return Variety(Kind.FREE_LIE, rank, tuple(names))


def metabelian_lie(rank, names=()):
    return Variety(Kind.METABELIAN_LIE, rank, tuple(names))


# ---------------------------------------------------------------------------
# Lyndon words


def is_lyndon(w):
    """True iff the word is strictly smaller than all its proper rotations:
    Duval's linear scan (J. Algorithms 4, 1983), where ``k`` walks the
    period of the prefix read so far, which must end up the whole word."""
    if not w:
        return False
    k = 0
    for b in w[1:]:
        a = w[k]
        if a > b:
            return False
        k = k + 1 if a == b else 0
    return k == 0


def standard_factorization(w):
    """Split a Lyndon word of length >= 2 as ``u v`` with ``v`` the
    lexicographically least proper suffix; both parts are Lyndon and the
    standard bracketing is ``[b(u), b(v)]``."""
    assert len(w) >= 2
    best = 1
    for i in range(2, len(w)):
        if w[i:] < w[best:]:
            best = i
    return w[:best], w[best:]


_EXPAND_CACHE = {}


def lyndon_expand(w):
    """Associative expansion of the standard bracketing of a Lyndon word,
    as a dict word -> int coefficient.  The word ``w`` itself is the
    lexicographically least term and carries coefficient 1."""
    cached = _EXPAND_CACHE.get(w)
    if cached is not None:
        return cached
    if len(w) == 1:
        res = {w: 1}
    else:
        u, v = standard_factorization(w)
        eu, ev = lyndon_expand(u), lyndon_expand(v)
        res = {}
        for a, ca in eu.items():
            for b, cb in ev.items():
                c = ca * cb
                ab = a + b
                ba = b + a
                res[ab] = res.get(ab, 0) + c
                res[ba] = res.get(ba, 0) - c
        res = {k: c for k, c in res.items() if c}
    _EXPAND_CACHE[w] = res
    return res


_LYNDON_PART_CACHE = {}


def _lyndon_part(w):
    """The terms of ``lyndon_expand(w)`` on Lyndon words other than ``w``,
    as ``((v, coeff), ...)``: the only terms of the standard bracketing of
    ``w`` that move another Lyndon coordinate.  Kept per word, filled on
    first use."""
    part = _LYNDON_PART_CACHE.get(w)
    if part is None:
        part = _LYNDON_PART_CACHE[w] = tuple(
            (v, c) for v, c in lyndon_expand(w).items() if v != w and is_lyndon(v)
        )
    return part


def lie_from_assoc(coeffs):
    """Lyndon coordinates of a Lie element given by its words in K<X>.

    The standard bracketing of a Lyndon word ``l`` is ``l`` plus greater
    words of the same length (Chen-Fox-Lyndon), so the coefficient of a
    Lyndon word ``u`` in the element is ``u``'s coordinate plus the
    coordinates of lesser Lyndon words ``l`` times the coefficient of ``u``
    in the bracketing of ``l``.  The elimination therefore reads only the
    Lyndon words: it takes them from a heap in increasing order, and each
    one's coordinate is subtracted from the greater Lyndon words of its
    bracketing (``_lyndon_part``); non-Lyndon words are never touched.

    Precondition: ``coeffs`` is a Lie element.  Every operation that
    builds a free-Lie element (Lyndon expansion, commutator products,
    sums, scaling, substitution) keeps it one, so this is not checked
    here; on other input the result is undefined.  ``Element.check``
    verifies it by expanding the coordinates back to ``coeffs``."""
    work = {w: c for w, c in coeffs.items() if is_lyndon(w)}
    heap = list(work)
    heapq.heapify(heap)
    out = {}
    while heap:
        w = heapq.heappop(heap)
        c = work.pop(w, 0)
        if not c:
            continue
        out[w] = c
        for v, cv in _lyndon_part(w):
            nv = work.get(v)
            if nv is None:
                heapq.heappush(heap, v)
                work[v] = -c * cv
            elif nv := nv - c * cv:
                work[v] = nv
            else:
                del work[v]
    return out


def assoc_of_lie_coeffs(coeffs):
    """Associative expansion of a Lie element given in the Lyndon basis."""
    out = {}
    for w, c in coeffs.items():
        for v, cv in lyndon_expand(w).items():
            nv = out.get(v, 0) + c * cv
            if nv:
                out[v] = nv
            else:
                out.pop(v, None)
    return out


# ---------------------------------------------------------------------------
# Free metabelian Lie basis rewriting
#
# Basis keys: (i,) for generators, (i1, i2, t3, ..., tm) with
# i1 > i2 <= t3 <= ... <= tm for left-normed brackets.  Positions >= 3
# commute because the prefix already lies in the derived subalgebra.


def _mb_append(key, g):
    """Left-normed bracket [key, y_g] rewritten in the basis.

    If g >= i2 the letter joins the sorted tail directly; otherwise the
    Jacobi identity at the front gives two basis terms.
    """
    i1, i2, tail = key[0], key[1], key[2:]
    if g >= i2:
        return {(i1, i2) + tuple(sorted(tail + (g,))): 1}
    return {
        (i1, g) + tuple(sorted(tail + (i2,))): 1,
        (i2, g) + tuple(sorted(tail + (i1,))): -1,
    }


def _mb_pair(a, b):
    if a == b:
        return {}
    if a > b:
        return {(a, b): 1}
    return {(b, a): -1}


def _mb_mul_mono(m1, m2):
    if len(m1) == 1 and len(m2) == 1:
        return _mb_pair(m1[0], m2[0])
    if len(m1) >= 2 and len(m2) == 1:
        return _mb_append(m1, m2[0])
    if len(m1) == 1 and len(m2) >= 2:
        # [y_a, B] = -[B, y_a]
        return {k: -c for k, c in _mb_append(m2, m1[0]).items()}
    # [[.,.],[.,.]] = 0 in a metabelian Lie algebra
    return {}


# ---------------------------------------------------------------------------
# Elements


def _mono_degree(kind, mono, _polynomial=Kind.POLYNOMIAL):
    # the default binds the Enum member once, as in ``_split_key``
    if kind is _polynomial:
        return sum(mono)
    return len(mono)


def _split_key(kind, key, _polynomial=Kind.POLYNOMIAL):
    """``(prefix, j)`` with ``key`` the key ``prefix`` times x_j, or None for
    the unit key.  A polynomial key gives up one unit of its last nonzero
    exponent; a word its last letter, and so does a metabelian key, whose
    last letter is the greatest of its sorted tail: ``_mb_append(prefix,
    j)`` is the key itself.  The empty key is the unit in Lie kinds too.
    (The default binds ``Kind.POLYNOMIAL`` once: an Enum attribute lookup
    costs as much as the rest of a split.)"""
    if kind is not _polynomial:
        return (key[:-1], key[-1]) if key else None
    for i in range(len(key) - 1, -1, -1):
        if key[i]:
            return key[:i] + (key[i] - 1,) + key[i + 1 :], i
    return None


def _prefix_walk(kind, key, memo, step):
    """The value of ``key`` under a map built one generator at a time: from
    the longest prefix in ``memo``, one ``value = step(value, prefix, j)``
    per generator, each prefix's value kept in ``memo``.  The unit's value
    is None, so ``step(None, unit, j)`` is x_j's.  A loop, not recursion."""
    path = []
    val = memo.get(key)
    while val is None and (split := _split_key(kind, key)):
        path.append((key, split))
        key = split[0]
        val = memo.get(key)
    for key, (prefix, j) in reversed(path):
        memo[key] = val = step(val, prefix, j)
    return val


class LinearCombination:
    """A finite rational linear combination of canonical keys in one variety.

    ``coeffs`` maps keys to nonzero coefficients.  Instances are immutable
    by convention; arithmetic returns fresh objects of the same class.
    Algebra elements, envelope elements and trace classes all share this
    storage and its linear arithmetic; only operands of one class and one
    variety (kind and rank) combine.  An instance caches nothing: it is
    its variety and its dict.
    """

    __slots__ = ("variety", "coeffs")

    def __init__(self, variety, coeffs):
        self.variety = variety
        self.coeffs = {m: _coeff(c) for m, c in coeffs.items() if c}

    @classmethod
    def _raw(cls, variety, coeffs):
        """Internal: wrap a dict already free of zero coefficients, which
        no one changes afterwards."""
        e = object.__new__(cls)
        e.variety = variety
        e.coeffs = coeffs
        return e

    def is_zero(self):
        return not self.coeffs

    def _check(self, other):
        if type(other) is not type(self):
            raise TypeError(
                f"expected {type(self).__name__}, got {type(other).__name__}"
            )
        if (
            other.variety.kind is not self.variety.kind
            or other.variety.rank != self.variety.rank
        ):
            raise VarietyMismatch(
                f"{self.variety.kind.value}(rank {self.variety.rank}) vs "
                f"{other.variety.kind.value}(rank {other.variety.rank})"
            )

    def __add__(self, other):
        self._check(other)
        out = dict(self.coeffs)
        for m, c in other.coeffs.items():
            n = out.get(m, 0) + c
            if n:
                out[m] = n
            else:
                out.pop(m, None)
        return self._raw(self.variety, out)

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return self._raw(self.variety, {m: -c for m, c in self.coeffs.items()})

    def scale(self, c):
        c = _coeff(c)
        if c == 0:
            return self._raw(self.variety, {})
        if type(c) is int:
            return self._raw(self.variety, {m: c * v for m, v in self.coeffs.items()})
        return self._raw(self.variety, {m: _coeff(c * v) for m, v in self.coeffs.items()})

    def __rmul__(self, c):
        if isinstance(c, (int, Fraction)):
            return self.scale(c)
        return NotImplemented

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return (
            self.variety.kind is other.variety.kind
            and self.variety.rank == other.variety.rank
            and self.coeffs == other.coeffs
        )

    def __hash__(self):
        return hash(
            (self.variety.kind, self.variety.rank, frozenset(self.coeffs.items()))
        )

    def __repr__(self):
        return f"{type(self).__name__}({self.variety.kind.value}, {self.coeffs!r})"


def _product(
    kind, a, graded, k, out=None,
    _polynomial=Kind.POLYNOMIAL, _metabelian=Kind.METABELIAN_LIE,
):
    """The product of a coefficient dict ``a`` and a right operand given as
    degree buckets ``graded``, ``[(degree, [(key, coeff), ...]), ...]`` in
    ascending degree (``_degree_buckets``), without its terms of
    degree above ``k``.  For each left term the walk over the buckets stops
    at the first degree past the room ``k`` leaves, so the dropped pairs
    are never visited.  The plain product (``k=None``) passes the whole
    dict as one bucket, ``((0, b.items()),)``, and pays no bucketing.
    Words concatenate, free-Lie words too: ``Element.mul_trunc`` makes
    their bracket from two such products.  Given ``out``, the product is
    added into that dict, which is returned, so a sum of products is
    formed without copying.  (The defaults bind the ``Kind`` members
    once, as in ``_split_key``.)"""
    if k is None:
        k = math.inf
    if out is None:
        out = {}
    if kind is _polynomial:
        for m1, c1 in a.items():
            room = k - sum(m1)
            for d, terms in graded:
                if d > room:
                    break
                for m2, c2 in terms:
                    m = tuple(map(add, m1, m2))
                    n = out.get(m, 0) + c1 * c2
                    if n:
                        out[m] = n
                    else:
                        out.pop(m, None)
        return out
    if kind is not _metabelian:  # words
        for m1, c1 in a.items():
            room = k - len(m1)
            for d, terms in graded:
                if d > room:
                    break
                for m2, c2 in terms:
                    m = m1 + m2
                    n = out.get(m, 0) + c1 * c2
                    if n:
                        out[m] = n
                    else:
                        out.pop(m, None)
        return out
    # metabelian Lie
    for m1, c1 in a.items():
        room = k - len(m1)
        for d, terms in graded:
            if d > room:
                break
            for m2, c2 in terms:
                c = c1 * c2
                for m, s in _mb_mul_mono(m1, m2).items():
                    n = out.get(m, 0) + c * s
                    if n:
                        out[m] = n
                    else:
                        out.pop(m, None)
    return out


def _degree_buckets(kind, coeffs):
    """The terms of ``coeffs`` grouped by degree, ``[(degree, [(key,
    coeff), ...]), ...]`` in ascending degree: the right operand of a
    truncated ``_product``."""
    parts = {}
    for m, c in coeffs.items():
        parts.setdefault(_mono_degree(kind, m), []).append((m, c))
    return sorted(parts.items())


def _substitute(dicts, args, max_degree):
    """The images of the coefficient dicts ``dicts`` under x_j -> args[j],
    as dicts in the args' algebra, without their terms above
    ``max_degree`` (None keeps all of them: degrees only grow under
    products, so a term dropped early can never come back).

    The dicts are keyed like the args and the args are ``Element``s of
    one algebra; the caller checks both.  A key's image is its longest
    known prefix's image times one argument per missing generator
    (``_prefix_walk``), formed by ``_product`` on plain dicts.  All the
    state lives in the call: each argument is grouped by degree once, and
    one memo of key and prefix images serves the whole batch.  A free-Lie
    homomorphism is the restriction of the associative one on K<X>, and
    ``_product`` concatenates free-Lie words, so their stored words
    substitute as they are."""
    target = args[0].variety
    kind = target.kind
    if max_degree is None:
        graded = [((0, a.coeffs.items()),) for a in args]
        gens = [a.coeffs for a in args]
    else:
        graded = [_degree_buckets(kind, a.coeffs) for a in args]
        gens = [
            {m: c for d, terms in g if d <= max_degree for m, c in terms} for g in graded
        ]

    def step(img, _prefix, j):
        return gens[j] if img is None else _product(kind, img, graded[j], max_degree)

    memo, images = {}, []
    for coeffs in dicts:
        acc = {}
        for mono, c in coeffs.items():
            term = _prefix_walk(kind, mono, memo, step)
            if term is None:  # the unit key
                term = target.one().coeffs
            for m, tc in term.items():
                n = acc.get(m, 0) + c * tc
                if n:
                    acc[m] = n
                else:
                    acc.pop(m, None)
        images.append(acc)
    return images


_KEY_FORMS = {
    Kind.POLYNOMIAL: "a tuple of {n} nonnegative ints",
    Kind.FREE_ASSOCIATIVE: "a word in {n} generators",
    Kind.FREE_LIE: "a Lyndon word in {n} generators",
    Kind.METABELIAN_LIE: "(i,) or i1 > i2 <= i3 <= ... in {n} generators",
}


def _is_basis_key(variety, key):
    """True iff ``key`` is one of the keys ``monomials_of_degree`` lists
    for ``variety`` (see the module docstring)."""
    n = variety.rank
    if not isinstance(key, tuple) or not all(type(i) is int for i in key):
        return False
    kind = variety.kind
    if kind is Kind.POLYNOMIAL:
        return len(key) == n and all(e >= 0 for e in key)
    if not all(0 <= i < n for i in key):
        return False
    if kind is Kind.FREE_ASSOCIATIVE:
        return True
    if kind is Kind.FREE_LIE:
        return is_lyndon(key)
    return len(key) == 1 or (
        len(key) >= 2
        and key[0] > key[1]
        and all(a <= b for a, b in zip(key[1:], key[2:]))
    )


class Element(LinearCombination):
    """An element of a free algebra: a linear combination of the
    variety's stored keys (see the module docstring).

    The constructor takes coordinates over the basis that
    ``monomials_of_degree`` lists; free-Lie coordinates are Lyndon words,
    expanded once into the stored words.  Internal code wraps stored
    dicts with ``_raw``."""

    __slots__ = ()

    def __init__(self, variety, coeffs):
        for key in coeffs:
            if not _is_basis_key(variety, key):
                form = _KEY_FORMS[variety.kind].format(n=variety.rank)
                raise AlgebraError(f"{variety.kind.value} key {key!r} is not {form}")
        if variety.kind is Kind.FREE_LIE:
            coeffs = assoc_of_lie_coeffs(coeffs)
        super().__init__(variety, coeffs)

    # -- basic queries ------------------------------------------------------

    def degree(self):
        """Maximal monomial degree, or None for the zero element."""
        if not self.coeffs:
            return None
        return max(_mono_degree(self.variety.kind, m) for m in self.coeffs)

    def min_degree(self):
        if not self.coeffs:
            return None
        return min(_mono_degree(self.variety.kind, m) for m in self.coeffs)

    def homogeneous_component(self, k):
        if k < 0:
            raise AlgebraError("degree must be >= 0")
        kind = self.variety.kind
        return Element._raw(
            self.variety,
            {m: c for m, c in self.coeffs.items() if _mono_degree(kind, m) == k},
        )

    def homogeneous_components(self):
        """Dict degree -> homogeneous part; the parts sum back to self."""
        var = self.variety
        return {
            d: Element._raw(var, dict(terms))
            for d, terms in _degree_buckets(var.kind, self.coeffs)
        }

    def check(self):
        """Assert the stored invariants: every key is canonical for the
        variety (a nonempty word of K<X> for free Lie) and no coefficient
        is zero.  A free-Lie element's words must form a Lie element, the
        precondition of ``lie_from_assoc``: its Lyndon coordinates must
        expand back to exactly its words, else ``AlgebraError``."""
        var = self.variety
        lie = var.kind is Kind.FREE_LIE
        stored = free_associative(var.rank) if lie else var
        for m, c in self.coeffs.items():
            assert _is_basis_key(stored, m) and (m or not lie), (
                f"{var.kind.value} key {m!r} is not canonical"
            )
            assert c != 0, f"zero coefficient on {m!r}"
        if lie and assoc_of_lie_coeffs(lie_from_assoc(self.coeffs)) != self.coeffs:
            raise AlgebraError(
                "associative element is not a Lie element "
                "(its Lyndon coordinates do not expand back to its words)"
            )

    def truncate(self, k):
        """Drop all terms of degree > k."""
        kind = self.variety.kind
        return Element._raw(
            self.variety,
            {m: c for m, c in self.coeffs.items() if _mono_degree(kind, m) <= k},
        )

    def constant_term(self):
        if self.variety.kind is Kind.POLYNOMIAL:
            return self.coeffs.get((0,) * self.variety.rank, 0)
        if self.variety.kind is Kind.FREE_ASSOCIATIVE:
            return self.coeffs.get((), 0)
        return 0

    def involves(self, i):
        """True iff generator i occurs in some monomial."""
        if self.variety.kind is Kind.POLYNOMIAL:
            return any(m[i] for m in self.coeffs)
        return any(i in m for m in self.coeffs)

    # -- arithmetic ---------------------------------------------------------

    def __mul__(self, other):
        """The variety's product; for Lie varieties this is the bracket."""
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        return self.mul_trunc(other, None)

    def mul_trunc(self, other, k):
        """``(self * other).truncate(k)`` without forming the dropped
        terms; ``k`` may be None for the plain product, which needs no
        degree buckets.  The free-Lie bracket of words is ``ab - ba``: a
        second word product, of ``b``'s negated terms by ``a``'s, adds
        into the same dict."""
        self._check(other)
        kind = self.variety.kind
        a, b = self.coeffs, other.coeffs
        graded = ((0, b.items()),) if k is None else _degree_buckets(kind, b)
        out = _product(kind, a, graded, k)
        if kind is _FREE_LIE:
            graded = ((0, a.items()),) if k is None else _degree_buckets(kind, a)
            _product(kind, {m: -c for m, c in b.items()}, graded, k, out)
        return Element._raw(self.variety, out)

    def power(self, k):
        if self.variety.is_lie:
            raise AlgebraError("powers are not defined in Lie varieties")
        if k < 0:
            raise AlgebraError("negative power")
        out = self.variety.one()
        for _ in range(k):
            out = out * self
        return out

    # -- substitution -------------------------------------------------------

    def substitute(self, args, max_degree=None):
        """Image under the unique homomorphism x_i -> args[i], without its
        terms above ``max_degree`` (None keeps all of them).

        The args must all live in one algebra of the same variety kind;
        the rank of the target may differ from the source rank.  This is
        the checks plus one ``_substitute`` call; a caller with several
        elements to map into the same args makes one batched call.
        """
        if len(args) != self.variety.rank:
            raise AlgebraError(
                f"expected {self.variety.rank} substitution arguments, got {len(args)}"
            )
        if not args:
            raise AlgebraError("rank-0 substitution")
        target = args[0].variety
        for a in args:
            if not isinstance(a, Element):
                raise TypeError("substitution arguments must be Elements")
            if a.variety.kind is not target.kind or a.variety.rank != target.rank:
                raise VarietyMismatch("substitution arguments live in different algebras")
        if target.kind is not self.variety.kind:
            raise VarietyMismatch(
                f"cannot substitute {target.kind.value} values into a "
                f"{self.variety.kind.value} element"
            )
        return Element._raw(target, _substitute([self.coeffs], args, max_degree)[0])

    # -- printing -----------------------------------------------------------

    def __repr__(self):
        return f"Element({self!s})"

    def __str__(self):
        return element_str(self)


# ---------------------------------------------------------------------------
# Variety-spanning helpers


def basis_coeffs(e):
    """Coordinates of ``e`` over its variety's basis (the keys that
    ``monomials_of_degree`` lists): a free-Lie element's stored words are
    rewritten in the Lyndon basis, other kinds store their basis keys."""
    if e.variety.kind is Kind.FREE_LIE:
        return lie_from_assoc(e.coeffs)
    return e.coeffs


def project_to_metabelian(e):
    """Quotient map from a free Lie algebra onto the free metabelian Lie
    algebra of the same rank (kills the second derived subalgebra).  By
    Dynkin-Specht-Wever, a Lie element of degree m in K<X> is 1/m times
    the sum of its words' left-normed brackets, built by the prefix walk."""
    if e.variety.kind is not Kind.FREE_LIE:
        raise VarietyMismatch("projection is defined on free Lie elements")
    target = metabelian_lie(e.variety.rank)
    gens = target.gens()

    def step(b, _prefix, j):
        return gens[j] if b is None else b * gens[j]

    memo, acc = {}, {}
    for w, c in e.coeffs.items():
        for m, v in _prefix_walk(Kind.FREE_LIE, w, memo, step).coeffs.items():
            acc[m] = acc.get(m, 0) + Fraction(c * v, len(w))
    return Element(target, acc)


def monomials_of_degree(variety, d):
    """All canonical monomial keys of a given degree, deglex-sorted."""
    if d < 0:
        raise AlgebraError("degree must be >= 0")
    n = variety.rank
    kind = variety.kind
    if d == 0:
        if not variety.unital:
            return []
        return [(0,) * n] if kind is Kind.POLYNOMIAL else [()]
    if kind is Kind.POLYNOMIAL:  # stars and bars
        return sorted(
            tuple(b - a - 1 for a, b in zip((-1,) + bars, bars + (d + n - 1,)))
            for bars in itertools.combinations(range(d + n - 1), n - 1)
        )
    if kind is Kind.FREE_ASSOCIATIVE:
        return sorted(itertools.product(range(n), repeat=d))
    if kind is Kind.FREE_LIE:
        return sorted(
            w for w in itertools.product(range(n), repeat=d) if is_lyndon(w)
        )
    # metabelian
    if d == 1:
        return [(i,) for i in range(n)]
    out = []
    for rest in itertools.combinations_with_replacement(range(n), d - 1):
        for i1 in range(rest[0] + 1, n):
            out.append((i1, rest[0]) + rest[1:])
    return sorted(out)


# ---------------------------------------------------------------------------
# Deterministic printing (deglex term order, rationals in lowest terms)


def mono_str(variety, mono):
    names = variety.names
    kind = variety.kind
    if kind is Kind.POLYNOMIAL:
        if not any(mono):
            return "1"
        parts = []
        for i, e in enumerate(mono):
            if e == 1:
                parts.append(names[i])
            elif e > 1:
                parts.append(f"{names[i]}^{e}")
        return "*".join(parts)
    if kind is Kind.FREE_ASSOCIATIVE:
        if not mono:
            return "1"
        return "*".join(names[i] for i in mono)
    if kind is Kind.FREE_LIE:
        return _lyndon_str(mono, names)
    if len(mono) == 1:
        return names[mono[0]]
    s = f"[{names[mono[0]]},{names[mono[1]]}]"
    for j in mono[2:]:
        s = f"[{s},{names[j]}]"
    return s


_LYNDON_STR_CACHE = {}


def _lyndon_str(w, names):
    """The standard bracketing of a Lyndon word, built once per
    ``(names, w)``."""
    key = (names, w)
    s = _LYNDON_STR_CACHE.get(key)
    if s is None:
        if len(w) == 1:
            s = names[w[0]]
        else:
            u, v = standard_factorization(w)
            s = f"[{_lyndon_str(u, names)},{_lyndon_str(v, names)}]"
        _LYNDON_STR_CACHE[key] = s
    return s


def terms_str(coeffs, key_str, key_degree):
    """A coefficient dict as a signed sum in deglex order of its keys
    (``key_degree``, then the key itself), printing each key with
    ``key_str``; a coefficient of absolute value 1 is left out except on
    the key printed ``1``."""
    if not coeffs:
        return "0"
    parts = []
    for key in sorted(coeffs, key=lambda m: (key_degree(m), m)):
        c = coeffs[key]
        ks = key_str(key)
        if ks == "1":
            body = str(abs(c))
        elif abs(c) == 1:
            body = ks
        else:
            body = f"{abs(c)}*{ks}"
        if not parts:
            parts.append(body if c > 0 else f"-{body}")
        else:
            parts.append(f"+ {body}" if c > 0 else f"- {body}")
    return " ".join(parts)


def element_str(e):
    variety = e.variety
    return terms_str(
        basis_coeffs(e),
        lambda m: mono_str(variety, m),
        lambda m: _mono_degree(variety.kind, m),
    )
