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
its subclasses.  Every sparse sum in the package adds into a dict by one
of two helpers, ``_merge`` (one key) and ``_add_scaled`` (a scaled dict),
which drop the keys that cancel; only the inner loops of ``_product`` and
``lie_from_assoc`` keep their sums inline, as a call per term would slow
them.  ``_product`` is the one product kernel, with one loop per
key format, and it builds each key with no iterator and no dict per
pair: exponent vectors add by a function generated once per length
(``_ADDERS``), words concatenate, free-Lie words as well as associative
ones, words coded as base-n ints (n the rank) concatenate as
``code(u) n^|v| + code(v)``, and metabelian keys bracket in the loop
itself, where a bracket on the left meets the right operand's
generators only (a bracket of two brackets is zero).  It serves
``Element.mul_trunc``, which forms every element product (``__mul__``
included) and the free-Lie bracket as ``ab - ba`` of words
(``_bracket_words``; ``lyndon_expand``, whose factors are homogeneous,
forms ``ab`` with no sum and subtracts ``ba`` here), substitution
(``_substitute``), the homogeneous products of
``morphism.truncated_inverse`` (summed in place into one dict, on coded
words in the word kinds, which are decoded once on its exit) and, for
envelope keys that add or concatenate, ``envelope.env_mul``.  Its right
operand comes as degree buckets, ``[(degree, [(key, coeff), ...]),
...]`` in ascending degree (``_degree_buckets``): a truncated product at
degree ``k`` walks them for each left term and stops at the first bucket
past the room ``k`` leaves, so the pairs it drops are never visited.
Nothing keeps buckets on an element: ``_operand`` builds each right
operand, the plain product's as the whole dict in one bucket, which
pays no bucketing, and ``_substitute`` groups each argument once per
call.  ``_Coords``, one ``Element`` per generator, is the core of
endomorphisms and derivations, and ``_combine`` their linear change of
coordinates.

The Leibniz action and the other maps built one generator at a time
share one prefix walk: ``_split_key``, the only code that knows how a key
factors, writes each stored key as a shorter key times one generator,
and ``_prefix_walk`` builds a key's value from its prefix's.
``_substitute`` is the one substitution: it takes a batch of dicts and
one argument tuple, and keeps its state for that call.  It maps
exponent vectors and metabelian keys by the prefix walk, with one memo
of prefix images for the batch, and words by Horner's rule, one dict at
a time (``_horner``), which reads each dict only through the degrees its
bound leaves.

One dict keyed by word, ``_WORDS``, holds False for a word that is not
Lyndon and a record for a Lyndon word (its word, order key, expansion,
Lyndon part and bracket strings, each formed on first use), and indexes
the records by order key.  The order key is an int: the letters as
digits as wide as the greatest letter needs, under a header that names
the width, so keys differ across all words, and two words of one length
and one letter content compare as their keys do.  A Lyndon part holds
``(key, coeff)`` pairs, and ``lie_from_assoc`` eliminates on the keys
alone: it hashes and compares ints, not words.  It looks up only
generators and the words that begin below their last letter, as no
other word is Lyndon.  ``element_str`` and the envelope's printers take
one key printer per format from ``key_printer``.

All values are immutable after construction and all operations are pure.
"""
from __future__ import annotations

import heapq
import itertools
import math
from bisect import bisect
from dataclasses import dataclass, field
from enum import Enum
from fractions import Fraction
from functools import partial

__all__ = [
    "AlgebraError",
    "ConstantInLieVariety",
    "Element",
    "Kind",
    "Variety",
    "VarietyMismatch",
    "basis_coeffs",
    "free_associative",
    "free_lie",
    "metabelian_lie",
    "monomials_of_degree",
    "polynomial",
    "project_to_metabelian",
]


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
# the kinds whose stored keys are words, which ``_product`` concatenates
_WORD_KINDS = frozenset({Kind.FREE_ASSOCIATIVE, Kind.FREE_LIE})
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


def _merge(d, k, c):
    """Add ``c`` to the coefficient of ``k`` in the dict ``d``, dropping the
    key if it cancels."""
    n = d.get(k, 0) + c
    if n:
        d[k] = n
    else:
        d.pop(k, None)


def _add_scaled(acc, c, part):
    """Add ``c`` times the dict ``part`` into the dict ``acc``, dropping the
    keys that cancel.  The sparse sums of the package go through this
    and ``_merge``, except the inner loops of ``_product`` and
    ``lie_from_assoc``: a call per term would slow them."""
    for key, v in part.items():
        n = acc.get(key, 0) + c * v
        if n:
            acc[key] = n
        else:
            acc.pop(key, None)


def _combine(row, dicts):
    """The dict ``sum(c * d)`` over the entries c of ``row`` and the dicts
    d beside them.  A row whose one nonzero entry is 1 gives that dict
    itself, uncopied, which no one changes afterwards."""
    terms = [(c, d) for c, d in zip(row, dicts) if c]
    if len(terms) == 1 and terms[0][0] == 1:
        return terms[0][1]
    acc = {}
    for c, d in terms:
        _add_scaled(acc, c, d)
    return acc


def _check_type(obj, cls, what=None):
    """Raise ``TypeError`` unless ``obj`` is a ``cls`` (named ``what`` if given)."""
    if not isinstance(obj, cls):
        raise TypeError(f"expected {what or cls.__name__}, got {type(obj).__name__}")


def _check_element(variety, f, message=None, cls=None):
    """Raise unless ``f`` is a ``cls`` (an ``Element`` by default) over
    ``variety``'s kind and rank; the mismatch says ``message``, or else
    names both algebras."""
    _check_type(f, cls or Element)
    if f.variety.kind is not variety.kind or f.variety.rank != variety.rank:
        raise VarietyMismatch(
            message
            or f"{variety.kind.value}(rank {variety.rank}) vs "
            f"{f.variety.kind.value}(rank {f.variety.rank})"
        )


class _Coords:
    """One ``Element`` of the variety's algebra per generator, none with a
    constant part in a Lie variety: the core of ``morphism.Endomorphism``
    and ``deriv.Derivation``.  A value equals only values of its class.
    A subclass's ``_MESSAGES``: wrong count, another algebra, a Lie
    constant, and (``_check``) an operand over another variety."""

    __slots__ = ("variety", "coords")

    def __init__(self, variety, coords):
        coords = tuple(coords)
        count, algebra, constant, _ = self._MESSAGES
        if len(coords) != variety.rank:
            raise AlgebraError(count)
        for f in coords:
            _check_element(variety, f, algebra)
            if variety.is_lie and () in f.coeffs:
                raise AlgebraError(constant)
        self.variety = variety
        self.coords = coords

    def _check(self, other):
        _check_type(other, type(self))
        if self.variety != other.variety:
            raise VarietyMismatch(self._MESSAGES[3])

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self.variety == other.variety and self.coords == other.coords

    def __hash__(self):
        return hash((self.variety, self.coords))


def _unit_key(kind, rank):
    """The unit's key in a variety of ``kind`` and ``rank``: the zero
    exponent vector, or the empty word.  Needs no ``Variety``."""
    return (0,) * rank if kind is Kind.POLYNOMIAL else ()


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
        _check_type(self.kind, Kind)
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
        return Element._raw(self, {self._gen_key(i): 1})

    def _gen_key(self, i):
        """The stored key of the i-th generator."""
        if self.kind is Kind.POLYNOMIAL:
            return tuple(1 if j == i else 0 for j in range(self.rank))
        return (i,)

    def _unit_key(self):
        """The unit's key (``_unit_key``)."""
        return _unit_key(self.kind, self.rank)

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
        return Element._raw(self, {self._unit_key(): c})


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


class _Lyndon:
    """What is known of one Lyndon word ``word``, each other field formed
    on first use: ``key``, its order key (``_order_key``, indexed by
    ``_Words.key``); ``expansion``, the associative expansion of its
    standard bracketing (``lyndon_expand``); ``part``, its terms
    ``((key, coeff), ...)`` on the other Lyndon words, by order key,
    which alone move other Lyndon coordinates (``lie_from_assoc``);
    ``strings``, its bracket string per names tuple."""

    __slots__ = ("word", "key", "expansion", "part", "strings")

    def __init__(self, word):
        self.word = word
        self.key = self.expansion = self.part = self.strings = None


def _order_key(w):
    """The order key of a nonempty word: its letters as digits of b bits,
    b the bit length of its greatest letter (1 for the letter 0), under a
    header that names b: a sentinel 1, then b in Elias's gamma code (as
    many 0s as b has bits after its leading 1, then b).  Read from the
    top, a key gives b, then the number of digits, then the letters, so
    keys differ across all words, with no bound on the letters.  Two
    words of one length and one letter content have one greatest letter,
    so one header and one width, and their keys compare as the words do
    lexicographically.  A word over three letters of length <= 13 gets a
    key below 2^30, one machine digit."""
    width = max(w).bit_length() or 1
    key = (1 << 2 * width.bit_length() - 1) | width
    for a in w:
        key = key << width | a
    return key


class _Words(dict):
    """One entry per word looked up, made on first sight: False if the word
    is not Lyndon, else its record.  Words carry no rank: entries serve all.
    ``by_key`` maps each order key formed to its record, the same object
    the word reaches, so a fresh ``_Words`` is a wholly cold store."""

    __slots__ = ("by_key",)

    def __init__(self):
        super().__init__()
        self.by_key = {}

    def __missing__(self, w):
        rec = self[w] = _Lyndon(w) if is_lyndon(w) else False
        return rec

    def key(self, rec):
        """``rec``'s order key, formed and indexed on first use."""
        k = rec.key
        if k is None:
            k = rec.key = _order_key(rec.word)
            self.by_key[k] = rec
        return k


_WORDS = _Words()


def _lyndon_words(n, d):
    """The Lyndon words of length ``d`` >= 1 over ``range(n)``, sorted, by
    Duval's generation (Theoret. Comput. Sci. 60, 1988).  It visits the
    Lyndon words of length <= d in lexicographic order: each next one
    repeats the last to length ``d``, drops its trailing greatest letters
    and raises its last letter by one.  At one length, that order is
    sorted order."""
    out = []
    w = [-1]
    while w:
        w[-1] += 1
        m = len(w)
        if m == d:
            out.append(tuple(w))
        else:
            w = (w * (d // m + 1))[:d]
        while w and w[-1] == n - 1:
            w.pop()
    return out


def lyndon_expand(w):
    """Associative expansion of the standard bracketing of a Lyndon word,
    as a dict word -> int coefficient.  The word ``w`` itself is the
    lexicographically least term and carries coefficient 1.

    For ``w = uv`` standard, the expansion is E(u)E(v) - E(v)E(u), with
    the same keys in the same order as ``_bracket_words``.  Both factors
    are homogeneous, so the words of E(u)E(v) are pairwise distinct: they
    are formed in one comprehension, with no sum and no zero test, and
    E(v)E(u) is subtracted into them by ``_product``."""
    rec = _WORDS[w]
    if not rec:
        raise AlgebraError(f"{w!r} is not a Lyndon word")
    res = rec.expansion
    if res is not None:
        return res
    if len(w) == 1:
        res = {w: 1}
    else:
        u, v = standard_factorization(w)
        eu, ev = lyndon_expand(u), lyndon_expand(v)
        res = {a + b: ca * cb for a, ca in eu.items() for b, cb in ev.items()}
        neg = {b: -cb for b, cb in ev.items()}
        _product(_FREE_LIE, neg, _operand(_FREE_LIE, eu, None), None, res)
    rec.expansion = res
    return res


def lie_from_assoc(coeffs):
    """Lyndon coordinates of a Lie element given by its words in K<X>.

    The standard bracketing of a Lyndon word ``l`` is ``l`` plus greater
    words of the same length (Chen-Fox-Lyndon), so the coefficient of a
    Lyndon word ``u`` in the element is ``u``'s coordinate plus the
    coordinates of lesser Lyndon words ``l`` times the coefficient of ``u``
    in the bracketing of ``l``.  The elimination therefore reads only the
    Lyndon words: it takes them from a heap in increasing order, and each
    one's coordinate is subtracted from the greater Lyndon words of its
    bracketing; non-Lyndon words are never touched.  Those terms are the
    Lyndon part in the pivot's record, formed on first use as a pivot, as
    long words have large expansions.  Which words are Lyndon is read from
    the same dict, ``_WORDS``: a word seen before is never rescanned.  A
    Lyndon word of length >= 2 begins strictly below its last letter, so
    a word that fails that test is dropped, from the input and from a
    pivot's expansion, before it is looked up or scanned.

    The elimination runs on order keys (``_order_key``), not on words:
    each input word is looked up once, and from then on the heap and the
    work dict hold ints, and a part names its terms by key.  A bracketing
    is homogeneous in letter content, so the elimination only ever
    compares words of one length and one content, which their keys order
    as the words.  Keys pop in increasing order and a part names only
    keys greater than its pivot's, so no key is pushed after it pops, and
    a sum that cancels may stay in the work dict until its key pops.

    Precondition: ``coeffs`` is a Lie element.  Every operation that
    builds a free-Lie element (Lyndon expansion, commutator products,
    sums, scaling, substitution) keeps it one, so this is not checked
    here; on other input the result is undefined.  ``Element.check``
    verifies it by expanding the coordinates back to ``coeffs``."""
    words = _WORDS
    key, records = words.key, words.by_key
    push, pop = heapq.heappush, heapq.heappop
    work = {}
    for w, c in coeffs.items():
        if (w[0] < w[-1] or len(w) == 1) and (rec := words[w]):
            work[rec.key or key(rec)] = c
    heap = list(work)
    heapq.heapify(heap)
    out = {}
    while heap:
        k = pop(heap)
        c = work.pop(k)
        if not c:
            continue
        rec = records[k]
        out[rec.word] = c
        part = rec.part
        if part is None:
            part = rec.part = tuple(
                (key(rv), cv) for v, cv in lyndon_expand(rec.word).items()
                if v[0] < v[-1] and (rv := words[v]) and rv is not rec
            )
        for v, cv in part:
            nv = work.get(v)
            if nv is None:
                push(heap, v)
                work[v] = -c * cv
            else:
                work[v] = nv - c * cv
    return out


def assoc_of_lie_coeffs(coeffs):
    """Associative expansion of a Lie element given in the Lyndon basis."""
    out = {}
    for w, c in coeffs.items():
        _add_scaled(out, c, lyndon_expand(w))
    return out


# ---------------------------------------------------------------------------
# Elements


def _key_degree(kind, _polynomial=Kind.POLYNOMIAL):
    """The degree of a stored key as a builtin to map over keys: ``sum``
    of an exponent vector, ``len`` of a word or a metabelian key."""
    return sum if kind is _polynomial else len


def _split_key(kind, key, _polynomial=Kind.POLYNOMIAL):
    """``(prefix, j)`` with ``key`` the key ``prefix`` times x_j, or None for
    the unit key.  A polynomial key gives up one unit of its last nonzero
    exponent; a word its last letter, and so does a metabelian key, whose
    last letter is the greatest of its sorted tail: the bracket ``[prefix,
    y_j]`` is the key itself.  The empty key is the unit in Lie kinds too.
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
        _check_type(variety, Variety)
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
        _check_element(self.variety, other, None, type(self))

    def __add__(self, other):
        self._check(other)
        out = dict(self.coeffs)
        _add_scaled(out, 1, other.coeffs)
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


class _Adders(dict):
    """Sums of exponent vectors by length: ``_ADDERS[n](a, b)`` is
    ``(a[0] + b[0], ..., a[n-1] + b[n-1],)``, ``tuple(map(add, a, b))``
    with no builtin call or iterator.  Each is generated on first use,
    from ints alone, as ``namedtuple`` builds its methods."""

    def __missing__(self, n):
        add = self[n] = eval(
            "lambda a, b: (" + "".join(f"a[{i}] + b[{i}], " for i in range(n)) + ")",
            {},
        )
        return add


_ADDERS = _Adders()


def _product(
    kind, a, graded, k, out=None,
    _polynomial=Kind.POLYNOMIAL, _metabelian=Kind.METABELIAN_LIE,
):
    """The product of a coefficient dict ``a`` and a right operand given as
    degree buckets ``graded``, ``[(degree, [(key, coeff), ...]), ...]`` in
    ascending degree (``_degree_buckets``), without its terms of
    degree above ``k``.  For each left term the walk over the buckets stops
    at the first degree past the room ``k`` leaves, so the dropped pairs
    are never visited; ``_operand`` builds the operand.  Exponent vectors
    add, by the adder ``_ADDERS`` holds for their length, taken once per
    call from the left keys (the envelope's keys are as long as its rank).
    Words concatenate, free-Lie words too: ``_bracket_words`` makes their
    bracket from two such products.  With ``kind`` an int n, the keys are words coded as base-n ints (the
    inverse rounds, ``morphism._online_rounds``): a word a_1 ... a_d codes
    as sum a_i n^(d-i), so u v codes as code(u) n^|v| + code(v), and the
    degree of a bucket is the length of its words.  A code does not know
    its own length, so this loop keeps every pair: ``k`` must be None.
    Metabelian keys bracket in the loop itself, each pair giving its one
    or two basis terms with no dict: a bracket of two brackets is zero, so
    a bracket on the left stops after the right operand's degree-1
    bucket.  Given ``out``, the product is added into that dict, which is
    returned, so a sum of products is formed without copying.  (The
    defaults bind the ``Kind`` members once, as in ``_split_key``.)"""
    if k is None:
        k = math.inf
    if out is None:
        out = {}
    if kind is _polynomial:
        add = _ADDERS[len(next(iter(a), ()))]
        for m1, c1 in a.items():
            room = k - sum(m1)
            for d, terms in graded:
                if d > room:
                    break
                for m2, c2 in terms:
                    m = add(m1, m2)
                    n = out.get(m, 0) + c1 * c2
                    if n:
                        out[m] = n
                    else:
                        out.pop(m, None)
        return out
    if type(kind) is int:  # coded words
        places = [(kind ** d, terms) for d, terms in graded]
        for m1, c1 in a.items():
            for place, terms in places:
                m0 = m1 * place
                for m2, c2 in terms:
                    m = m0 + m2
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
    # metabelian Lie: [y_i, y_j] is +-(max, min); [b, y_g] for a bracket
    # b = (i1, i2, *tail) joins g to the sorted tail if g >= i2 (letters
    # past the second commute: the prefix lies in the derived subalgebra),
    # else the Jacobi identity gives (i1, g, i2, *tail) - (i2, g, *sorted(tail + i1))
    for m1, c1 in a.items():
        room = k - len(m1)
        bracket = len(m1) > 1
        if bracket and room > 1:
            room = 1
        for d, terms in graded:
            if d > room:
                break
            for m2, c2 in terms:
                c = c1 * c2
                if not bracket and len(m2) == 1:
                    if m1 == m2:
                        continue
                    if m1 > m2:
                        m = m1 + m2
                    else:
                        m, c = m2 + m1, -c
                else:
                    if not bracket:  # [y_g, b] = -[b, y_g]
                        b, g, c = m2, m1[0], -c
                    elif len(m2) == 1:
                        b, g = m1, m2[0]
                    else:  # two brackets, met in the plain product's bucket
                        continue
                    if g < b[1]:
                        m = (b[0], g) + b[1:]
                        n = out.get(m, 0) + c
                        if n:
                            out[m] = n
                        else:
                            out.pop(m, None)
                        p = bisect(b, b[0], 2)
                        m, c = (b[1], g) + b[2:p] + b[:1] + b[p:], -c
                    else:
                        p = bisect(b, g, 2)
                        m = b[:p] + (g,) + b[p:]
                n = out.get(m, 0) + c
                if n:
                    out[m] = n
                else:
                    out.pop(m, None)
    return out


def _degree_buckets(kind, coeffs):
    """The terms of ``coeffs`` grouped by degree, ``[(degree, [(key,
    coeff), ...]), ...]`` in ascending degree: the right operand of a
    truncated ``_product``."""
    degree = _key_degree(kind)
    parts = {}
    for m, c in coeffs.items():
        parts.setdefault(degree(m), []).append((m, c))
    return sorted(parts.items())


def _operand(kind, coeffs, k):
    """``_product``'s right operand for ``coeffs``: its degree buckets, or
    for the plain product (``k`` None) one bucket, which costs nothing."""
    return ((0, coeffs.items()),) if k is None else _degree_buckets(kind, coeffs)


def _bracket_words(a, b, k):
    """The free-Lie bracket ``ab - ba`` of the word dicts ``a`` and ``b``
    through degree ``k`` (None for all): ``b``'s negated terms times
    ``a``'s add into the dict of ``ab``."""
    out = _product(_FREE_LIE, a, _operand(_FREE_LIE, b, k), k)
    return _product(_FREE_LIE, {m: -c for m, c in b.items()}, _operand(_FREE_LIE, a, k), k, out)


def _substitute(dicts, args, max_degree):
    """The images of the coefficient dicts ``dicts`` under x_j -> args[j],
    as dicts in the args' algebra, without their terms above
    ``max_degree`` (None keeps all of them: degrees only grow under
    products, so a term dropped early can never come back).

    The args are ``Element``s of one algebra and the dicts are keyed like
    them, or by words into a metabelian target, where a word's image is
    its left-normed bracket (``project_to_metabelian``); never by words
    into a polynomial one.  The caller checks both.  All the state lives
    in the call, and each argument is grouped by degree once.  The path
    depends on the args' key format alone:

    * words (associative and free-Lie keys) go by Horner's rule, one dict
      at a time (``_horner``): a dense dict, such as a truncated inverse
      substituted into a sparse map, is read only through the degrees
      its bound leaves, and no prefix image is kept past its use.  A
      free-Lie homomorphism is the restriction of the associative one on
      K<X>, and ``_product`` concatenates free-Lie words, so their stored
      words substitute as they are;
    * exponent vectors and metabelian keys go by the prefix walk: a key's
      image is its longest known prefix's image times one argument per
      missing generator (``_prefix_walk``), and one memo of key and
      prefix images serves the whole batch.  Many keys of these kinds
      share each prefix, whose image the walk forms once for the batch;
      Horner's rule, which sums each dict's suffixes on its own, was
      about twice as slow on their dense compositions."""
    target = args[0].variety
    kind = target.kind
    graded = [_operand(kind, a.coeffs, max_degree) for a in args]
    if kind in _WORD_KINDS:  # a zero image has no least degree: inf
        mins = [min(map(len, a.coeffs), default=math.inf) for a in args]
        bound = math.inf if max_degree is None else max_degree
        return [_horner(kind, coeffs, graded, mins, bound) for coeffs in dicts]
    if max_degree is None:
        gens = [a.coeffs for a in args]
    else:
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
            _add_scaled(acc, c, term)
        images.append(acc)
    return images


def _horner(kind, coeffs, graded, mins, bound):
    """The image of one word-keyed dict ``e`` under x_j -> phi_j, through
    degree ``bound`` (``math.inf`` for all of it), by Horner's rule:
    ``e(phi) = c 1 + sum_j (d_j e)(phi) phi_j``, where ``d_j e`` is the sum
    of ``c_w p`` over the words ``w = p x_j`` of ``e``.

    Unrolled, the rule runs over the suffixes of ``e``'s words.  The value
    of a suffix ``s`` is the sum of ``c_w p(phi)`` over the words
    ``w = p s``: ``c_s`` times the empty prefix plus, for each suffix
    ``x_j s``, that suffix's value times phi_j, one ``_product`` with
    phi_j's degree buckets ``graded[j]`` as the right operand.  The empty
    word is the unit of concatenation in both word kinds, so the value of
    a word starts as ``{(): c_w}``: that key meets phi_j in ``_product``
    only, and never reaches an image in the Lie kinds, which lack a unit.
    The values are summed from the longest suffixes down, one length at a
    time; the empty suffix's value, which starts as ``e``'s constant term,
    is the image.  A suffix is needed only through ``bound`` minus the
    least degrees ``mins[j]`` of its letters' images, so a word whose
    letters' least degrees sum past ``bound`` is skipped whole: a
    truncated image reads no word past the bound.  A zero image's least
    degree is ``math.inf``, so a word with its letter has room -inf (NaN
    if ``bound`` is too) and fails the same test.  Loops, not recursion:
    a long word only makes more lengths."""
    # by length: suffix -> [its value so far, its bound]
    levels = [{(): [{}, bound]}]
    for w, c in coeffs.items():
        room = bound - sum(map(mins.__getitem__, w))
        if room >= 0:
            while len(levels) <= len(w):
                levels.append({})
            levels[len(w)][w] = [{(): c}, room]
    for d in range(len(levels) - 1, 0, -1):
        shorter = levels[d - 1]
        for s, (value, room) in levels.pop().items():
            j, rest = s[0], s[1:]
            node = shorter.get(rest)
            if node is None:
                node = shorter[rest] = [{}, room + mins[j]]
            if value:
                _product(kind, value, graded[j], node[1], node[0])
    return levels[0][()][0]


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
        return max(map(_key_degree(self.variety.kind), self.coeffs))

    def min_degree(self):
        if not self.coeffs:
            return None
        return min(map(_key_degree(self.variety.kind), self.coeffs))

    def homogeneous_component(self, k):
        if k < 0:
            raise AlgebraError("degree must be >= 0")
        degree = _key_degree(self.variety.kind)
        return Element._raw(
            self.variety, {m: c for m, c in self.coeffs.items() if degree(m) == k}
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
        degree = _key_degree(self.variety.kind)
        return Element._raw(
            self.variety, {m: c for m, c in self.coeffs.items() if degree(m) <= k}
        )

    def constant_term(self):
        return self.coeffs.get(self.variety._unit_key(), 0)

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
        degree buckets.  The free-Lie bracket is ``_bracket_words``."""
        self._check(other)
        kind = self.variety.kind
        a, b = self.coeffs, other.coeffs
        if kind is _FREE_LIE:
            return Element._raw(self.variety, _bracket_words(a, b, k))
        return Element._raw(self.variety, _product(kind, a, _operand(kind, b, k), k))

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
        for a in args:  # args[0] is checked before it is read
            if not isinstance(a, Element):
                raise TypeError("substitution arguments must be Elements")
            if a.variety != args[0].variety:
                raise VarietyMismatch("substitution arguments live in different algebras")
        target = args[0].variety
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
    _check_type(e, Element)
    if e.variety.kind is Kind.FREE_LIE:
        return lie_from_assoc(e.coeffs)
    return e.coeffs


def project_to_metabelian(e):
    """Quotient map from a free Lie algebra onto the free metabelian Lie
    algebra of the same rank (kills the second derived subalgebra).  By
    Dynkin-Specht-Wever, a Lie element of degree m in K<X> is 1/m times
    the sum of its words' left-normed brackets: one ``_substitute`` of
    the words, each scaled by 1/m, into the metabelian generators."""
    _check_type(e, Element)
    if e.variety.kind is not Kind.FREE_LIE:
        raise VarietyMismatch("projection is defined on free Lie elements")
    target = metabelian_lie(e.variety.rank)
    scaled = {w: Fraction(c, len(w)) for w, c in e.coeffs.items()}
    return Element(target, _substitute([scaled], target.gens(), None)[0])


def monomials_of_degree(variety, d):
    """All canonical monomial keys of a given degree, deglex-sorted."""
    _check_type(variety, Variety)
    if d < 0:
        raise AlgebraError("degree must be >= 0")
    n = variety.rank
    kind = variety.kind
    if d == 0:
        return [variety._unit_key()] if variety.unital else []
    if kind is Kind.POLYNOMIAL:  # stars and bars
        return sorted(
            tuple(b - a - 1 for a, b in zip((-1,) + bars, bars + (d + n - 1,)))
            for bars in itertools.combinations(range(d + n - 1), n - 1)
        )
    if kind is Kind.FREE_ASSOCIATIVE:
        return sorted(itertools.product(range(n), repeat=d))
    if kind is Kind.FREE_LIE:
        return _lyndon_words(n, d)
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


def _lyndon_str(names, w):
    """A Lyndon word's standard bracketing, kept in its record per names."""
    rec = _WORDS[w]
    strings = rec.strings
    if strings is None:
        strings = rec.strings = {}
    s = strings.get(names)
    if s is None:
        if len(w) == 1:
            s = names[w[0]]
        else:
            u, v = standard_factorization(w)
            s = f"[{_lyndon_str(names, u)},{_lyndon_str(names, v)}]"
        strings[names] = s
    return s


def key_printer(variety):
    """The printer of ``variety``'s basis keys, its names bound: one per
    key format (exponent vector, word, Lyndon word by its standard
    bracketing, left-normed metabelian key), picked once per printout."""
    names, kind = variety.names, variety.kind
    if kind is Kind.FREE_LIE:
        return partial(_lyndon_str, names)
    if kind is Kind.FREE_ASSOCIATIVE:
        return lambda w: "*".join(map(names.__getitem__, w)) or "1"
    if kind is Kind.POLYNOMIAL:
        return lambda m: "*".join(
            [n if e == 1 else f"{n}^{e}" for n, e in zip(names, m) if e]
        ) or "1"

    def metabelian_str(m):
        s = names[m[0]]
        for j in m[1:]:
            s = f"[{s},{names[j]}]"
        return s

    return metabelian_str


def terms_str(coeffs, key_str, key_degree):
    """A coefficient dict as a signed sum in deglex order of its keys
    (``key_degree``, then the key itself), printing each key with
    ``key_str``; a coefficient of absolute value 1 is left out except on
    the key printed ``1``.  The order comes from two sorts, by key and
    then stably by degree, which compare in C when ``key_degree`` is a
    builtin such as ``sum`` or ``len``: no ``(degree, key)`` pair is built."""
    if not coeffs:
        return "0"
    parts = []
    keys = sorted(coeffs)
    keys.sort(key=key_degree)
    for key in keys:
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
    """``e`` as printed: its coordinates over the variety's basis
    (``basis_coeffs``), each key printed by ``key_printer``."""
    kind = e.variety.kind
    return terms_str(basis_coeffs(e), key_printer(e.variety), _key_degree(kind))
