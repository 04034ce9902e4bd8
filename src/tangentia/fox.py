"""Fox derivatives, Jacobian matrices, and the chain rule.

The universal differential module is never materialized; only the
coefficient extraction a -> (da/dx_1, ..., da/dx_n) is implemented, which
is all the Jacobian and the divergence need.
"""
from __future__ import annotations

from fractions import Fraction

from .freealg import (
    AlgebraError,
    Element,
    Kind,
    VarietyMismatch,
    free_lie,
    lyndon_expand,
    standard_factorization,
)
from .envelope import EnvElement, env_mul, left_mul, _merge


def fox_derivative(a, i):
    """The i-th Fox derivative da/dx_i as an element of U(A).

    Characterized by D(a) = sum_i (da/dx_i) y_i for the universal
    derivation D; computed by Leibniz recursion in each variety.
    """
    var = a.variety
    if not 0 <= i < var.rank:
        raise AlgebraError(f"generator index {i} out of range for rank {var.rank}")
    kind = var.kind
    terms = {}
    if kind is Kind.POLYNOMIAL:
        for exps, c in a.coeffs.items():
            if exps[i]:
                key = exps[:i] + (exps[i] - 1,) + exps[i + 1 :]
                _merge(terms, key, c * exps[i])
        return EnvElement(var, terms)
    if kind is Kind.FREE_ASSOCIATIVE:
        # d(u x_i v)/dx_i picks up u (x) v for every occurrence of x_i
        for w, c in a.coeffs.items():
            for j, letter in enumerate(w):
                if letter == i:
                    _merge(terms, (w[:j], w[j + 1 :]), c)
        return EnvElement(var, terms)
    if kind is Kind.FREE_LIE:
        memo = {}
        for w, c in a.coeffs.items():
            for key, cv in _fox_lyndon(w, i, memo).items():
                _merge(terms, key, c * cv)
        return EnvElement(var, terms)
    # metabelian: lift to the free Lie algebra, differentiate there,
    # project U(L_n) -> U/R = Q[t] by abelianizing words
    lie = free_lie(var.rank)
    memo = {}
    for mono, c in a.coeffs.items():
        lifted = _mb_lift_mono(mono, lie)
        for w, cw in lifted.coeffs.items():
            for word, cv in _fox_lyndon(w, i, memo).items():
                exps = [0] * var.rank
                for letter in word:
                    exps[letter] += 1
                _merge(terms, tuple(exps), c * cw * cv)
    return EnvElement(var, terms)


def _fox_lyndon(w, i, memo):
    """Fox derivative of the standard bracketing of a Lyndon word, as a
    dict word -> coefficient in U(L_n) = K<x>.

    d[a,b]/dx_i = L_a db/dx_i - L_b da/dx_i with L_c the associative
    expansion of c.
    """
    got = memo.get((w, i))
    if got is not None:
        return got
    if len(w) == 1:
        res = {(): Fraction(1)} if w[0] == i else {}
    else:
        u, v = standard_factorization(w)
        res = {}
        for pre, s in ((u, 1), (v, -1)):
            other = v if s == 1 else u
            la = lyndon_expand(pre)
            for wd, c in _fox_lyndon(other, i, memo).items():
                for aw, ac in la.items():
                    _merge(res, aw + wd, s * ac * c)
    memo[(w, i)] = res
    return res


def _mb_lift_mono(mono, lie):
    """Canonical free-Lie lift of a metabelian basis monomial."""
    if len(mono) == 1:
        return lie.gen(mono[0])
    res = lie.gen(mono[0]) * lie.gen(mono[1])
    for j in mono[2:]:
        res = res * lie.gen(j)
    return res


def gradient(a):
    """All Fox derivatives of a, as a tuple."""
    return tuple(fox_derivative(a, i) for i in range(a.variety.rank))


def jacobian_of_tuple(coords, variety):
    """Entrywise Fox derivatives: entries[i][j] = d(coords[i])/dx_j."""
    n = variety.rank
    if len(coords) != n:
        raise AlgebraError("coordinate tuple length differs from rank")
    return [[fox_derivative(f, j) for j in range(n)] for f in coords]


def jacobian(phi):
    """Jacobian matrix of an endomorphism (or of a derivation's tuple)."""
    return jacobian_of_tuple(tuple(phi.coords_tuple()), phi.variety)


def identity_matrix(variety):
    n = variety.rank
    one = EnvElement.one(variety)
    zero = EnvElement.zero(variety)
    return [[one if i == j else zero for j in range(n)] for i in range(n)]


def mat_mul(a, b):
    n = len(a)
    out = []
    for i in range(n):
        row = []
        for k in range(n):
            acc = None
            for j in range(n):
                term = env_mul(a[i][j], b[j][k])
                acc = term if acc is None else acc + term
            row.append(acc)
        out.append(row)
    return out


def mat_eq(a, b):
    return all(x == y for ra, rb in zip(a, b) for x, y in zip(ra, rb))


def mat_trace(a):
    acc = a[0][0]
    for i in range(1, len(a)):
        acc = acc + a[i][i]
    return acc


def env_push(images, u):
    """Image of u in U under the endomorphism x_i -> images[i], applied
    inside every tensor factor."""
    var = u.variety
    kind = var.kind
    if len(images) != var.rank:
        raise AlgebraError("image tuple length differs from rank")
    if kind is Kind.POLYNOMIAL:
        return EnvElement(var, Element(var, u.terms).substitute(images).coeffs)
    if kind is Kind.FREE_ASSOCIATIVE:
        out = {}
        for (a, b), c in u.terms.items():
            ea = Element(var, {a: Fraction(1)}).substitute(images)
            eb = Element(var, {b: Fraction(1)}).substitute(images)
            for wa, ca in ea.coeffs.items():
                for wb, cb in eb.coeffs.items():
                    _merge(out, (wa, wb), c * ca * cb)
        return EnvElement(var, out)
    if kind is Kind.FREE_LIE:
        # letters are L-generators; substitute L_{images[i]} and expand
        assoc_imgs = [left_mul(f) for f in images]
        out = EnvElement.zero(var)
        for w, c in u.terms.items():
            acc = EnvElement.one(var)
            for letter in w:
                acc = env_mul(acc, assoc_imgs[letter])
            out = out + acc.scale(c)
        return out
    # metabelian: t_i -> image of L_{images[i]} in U/R (linear part only)
    t_imgs = [left_mul(f) for f in images]
    out = EnvElement.zero(var)
    for exps, c in u.terms.items():
        acc = EnvElement.one(var)
        for i, e in enumerate(exps):
            for _ in range(e):
                acc = env_mul(acc, t_imgs[i])
        out = out + acc.scale(c)
    return out


def push_matrix(images, mat):
    return [[env_push(images, entry) for entry in row] for row in mat]


def chain_rule_check(phi, psi):
    """Exact check of J(phi o psi) = phi(J(psi)) J(phi), where
    (phi o psi)(x_k) = phi(psi(x_k))."""
    if phi.variety != psi.variety:
        raise VarietyMismatch("endomorphisms from different varieties")
    composed = tuple(g.substitute(phi.images) for g in psi.images)
    lhs = jacobian_of_tuple(composed, phi.variety)
    rhs = mat_mul(push_matrix(phi.images, jacobian(psi)), jacobian(phi))
    return mat_eq(lhs, rhs)
