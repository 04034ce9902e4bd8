"""Fox derivatives, Jacobian matrices, and the chain rule.

The universal differential module is never materialized; only the
coefficient extraction a -> (da/dx_1, ..., da/dx_n) is implemented, which
is all the Jacobian and the divergence need.
"""
from __future__ import annotations

from .freealg import (
    AlgebraError,
    Element,
    Kind,
    VarietyMismatch,
    _merge,
    _substitute,
)
from .envelope import EnvElement, env_mul, generated_algebra, left_mul


def fox_derivative(a, i):
    """The i-th Fox derivative da/dx_i as an element of U(A).

    Characterized by D(a) = sum_i (da/dx_i) y_i for the universal
    derivation D.  A free-Lie element is stored in U(L_n) = K<X>, where
    a = sum_i (da/dx_i) x_i, so da/dx_i keeps the words ending in x_i
    with that letter removed.
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
        return EnvElement._raw(
            var, {w[:-1]: c for w, c in a.coeffs.items() if w[-1] == i}
        )
    # metabelian: lift each left-normed bracket to U(L_n) = K<X>, where
    # d[u, x_c]/dx_i = [c = i] u - x_c du/dx_i, and project to U/R = Q[t]
    # by abelianizing words.  The projection kills every bracket of degree
    # >= 2, so [y_a, y_b, y_c3, ..., y_ck] has the derivative
    # (-1)^k t_c3...t_ck ([b = i] t_a - [a = i] t_b)
    for mono, c in a.coeffs.items():
        if len(mono) == 1:
            if mono[0] == i:
                _merge(terms, (0,) * var.rank, c)
            continue
        sign = c if len(mono) % 2 == 0 else -c
        for letter, other, s in ((mono[1], mono[0], sign), (mono[0], mono[1], -sign)):
            if letter == i:
                exps = [0] * var.rank
                for j in (other,) + mono[2:]:
                    exps[j] += 1
                _merge(terms, tuple(exps), s)
    return EnvElement(var, terms)


def gradient(a):
    """All Fox derivatives of a, as a tuple."""
    return tuple(fox_derivative(a, i) for i in range(a.variety.rank))


def jacobian_of_tuple(coords, variety):
    """Entrywise Fox derivatives: entries[i][j] = d(coords[i])/dx_j."""
    n = variety.rank
    if len(coords) != n:
        raise AlgebraError("coordinate tuple length differs from rank")
    for f in coords:
        if f.variety != variety:
            raise VarietyMismatch("coordinate lives in a different algebra")
    return [[fox_derivative(f, j) for j in range(n)] for f in coords]


def jacobian(phi):
    """Jacobian matrix of an endomorphism (or of a derivation's tuple)."""
    return jacobian_of_tuple(phi.coords, phi.variety)


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


def mat_trace(a):
    acc = a[0][0]
    for i in range(1, len(a)):
        acc = acc + a[i][i]
    return acc


def env_push(images, u):
    """Image of u in U under the endomorphism x_i -> images[i], applied
    inside every tensor factor."""
    var = u.variety
    if len(images) != var.rank:
        raise AlgebraError("image tuple length differs from rank")
    if any(f.variety != var for f in images):
        raise VarietyMismatch("images live in a different algebra")
    if var.kind is Kind.FREE_ASSOCIATIVE:
        # every word of every tensor factor, mapped in one batch
        words = list(dict.fromkeys(w for pair in u.coeffs for w in pair))
        image = dict(zip(words, _substitute([{w: 1} for w in words], images, None)))
        out = {}
        for (a, b), c in u.coeffs.items():
            for wa, ca in image[a].items():
                for wb, cb in image[b].items():
                    _merge(out, (wa, wb), c * ca * cb)
        return EnvElement(var, out)
    # U is generated by the L_{x_i}, which go to the L_{images[i]}
    base = generated_algebra(var)
    args = [Element._raw(base, left_mul(f).coeffs) for f in images]
    return EnvElement._raw(var, Element._raw(base, u.coeffs).substitute(args).coeffs)


def push_matrix(images, mat):
    return [[env_push(images, entry) for entry in row] for row in mat]


def chain_rule_check(phi, psi):
    """Exact check of J(phi o psi) = phi(J(psi)) J(phi), where
    (phi o psi)(x_k) = phi(psi(x_k))."""
    if phi.variety != psi.variety:
        raise VarietyMismatch("endomorphisms from different varieties")
    var = phi.variety
    composed = _substitute([g.coeffs for g in psi.images], phi.images, None)
    lhs = jacobian_of_tuple(tuple(Element._raw(var, f) for f in composed), var)
    rhs = mat_mul(push_matrix(phi.images, jacobian(psi)), jacobian(phi))
    return lhs == rhs
