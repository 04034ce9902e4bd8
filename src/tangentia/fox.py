"""Fox derivatives, Jacobian matrices, and the chain rule.

The universal differential module is never materialized; only the
coefficient extraction a -> (da/dx_1, ..., da/dx_n) is implemented, which
is all the Jacobian and the divergence need.  The chain rule composes with
``morphism.compose`` and pushes a whole Jacobian in one substitution.
"""
from __future__ import annotations

from .freealg import (
    AlgebraError,
    Element,
    Kind,
    _Coords,
    _add_scaled,
    _check_element,
    _check_type,
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
    _check_type(a, Element)
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
    _check_type(a, Element)
    return tuple(fox_derivative(a, i) for i in range(a.variety.rank))


def jacobian_of_tuple(coords, variety):
    """Entrywise Fox derivatives: entries[i][j] = d(coords[i])/dx_j."""
    n = variety.rank
    if len(coords) != n:
        raise AlgebraError("coordinate tuple length differs from rank")
    for f in coords:
        _check_element(variety, f, "coordinate lives in a different algebra")
    return [[fox_derivative(f, j) for j in range(n)] for f in coords]


def jacobian(phi):
    """Jacobian matrix of an endomorphism (or of a derivation's tuple)."""
    _check_type(phi, _Coords, "Endomorphism or Derivation")
    return jacobian_of_tuple(phi.coords, phi.variety)


def mat_mul(a, b):
    """The product of two square matrices over U, each entry summed in one dict."""
    n, var = len(a), a[0][0].variety
    out = [[{} for _ in range(n)] for _ in range(n)]
    for i in range(n):
        for k in range(n):
            for j in range(n):
                _add_scaled(out[i][k], 1, env_mul(a[i][j], b[j][k]).coeffs)
    return [[EnvElement._raw(var, d) for d in row] for row in out]


def mat_trace(a):
    acc = {}
    for i, row in enumerate(a):
        _add_scaled(acc, 1, row[i].coeffs)
    return EnvElement._raw(a[0][0].variety, acc)


def env_push(images, u):
    """Image of u in U under the endomorphism x_i -> images[i], applied
    inside every tensor factor: ``push_matrix`` of the 1x1 matrix."""
    return push_matrix(images, [[u]])[0][0]


def push_matrix(images, mat):
    """phi(mat) for phi: x_i -> images[i], applied inside every tensor factor
    of every entry, in one ``_substitute`` call: the entries go into the
    L_{images[i]}, or, in the associative kind, each distinct word of their
    tensor factors, so a word shared across the matrix is mapped once."""
    var = mat[0][0].variety
    if len(images) != var.rank:
        raise AlgebraError("image tuple length differs from rank")
    for f in images:
        _check_element(var, f, "images live in a different algebra")
    entries = [u.coeffs for row in mat for u in row]
    if var.kind is Kind.FREE_ASSOCIATIVE:
        words = list(dict.fromkeys(w for u in entries for pair in u for w in pair))
        image = dict(zip(words, _substitute([{w: 1} for w in words], images, None)))
        pushed = [{} for _ in entries]
        for out, u in zip(pushed, entries):
            for (a, b), c in u.items():
                for wa, ca in image[a].items():
                    for wb, cb in image[b].items():
                        _merge(out, (wa, wb), c * ca * cb)
    else:  # U is generated by the L_{x_i}, which go to the L_{images[i]}
        base = generated_algebra(var)
        args = [Element._raw(base, left_mul(f).coeffs) for f in images]
        pushed = _substitute(entries, args, None)
    pushed = iter(pushed)
    return [[EnvElement._raw(var, next(pushed)) for _ in row] for row in mat]


def chain_rule_check(phi, psi):
    """Exact check of J(phi o psi) = phi(J(psi)) J(phi), where
    (phi o psi)(x_k) = phi(psi(x_k))."""
    from .morphism import compose  # morphism imports deriv, which imports fox
    lhs = jacobian(compose(phi, psi))
    return lhs == mat_mul(push_matrix(phi.images, jacobian(psi)), jacobian(phi))
