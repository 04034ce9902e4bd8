"""Derivations of a free algebra: Leibniz action, grading, the
left-symmetric product, the extension to U, and divergence.

Grading convention: a derivation with all coordinates in A_{i+1} is
homogeneous of degree i, written D in L_i.  With the left-symmetric
product D1 . D2 = D_{D1(coords of D2)} and bracket [D1,D2] = D1.D2 - D2.D1
the Euler derivation E = x_1 d_1 + ... + x_n d_n satisfies [E, D] = i * D
for homogeneous D in L_i (verified by direct computation; see the tests).
"""
from __future__ import annotations

from .freealg import (
    Element,
    Kind,
    LinearCombination,
    _Coords,
    _add_scaled,
    _check_element,
    _check_type,
    _merge,
    _prefix_walk,
)
from .envelope import EnvElement, TraceClass, generated_algebra, left_mul, trace_class
from .fox import fox_derivative, jacobian


def _leibniz_words(coeffs, images):
    """The derivation with x_i -> images[i] applied to a dict of words:
    D(l_1...l_m) = sum_j l_1...l_{j-1} D(l_j) l_{j+1}...l_m."""
    out = {}
    for w, c in coeffs.items():
        for j, letter in enumerate(w):
            for img, ci in images[letter].items():
                _merge(out, w[:j] + img + w[j + 1 :], c * ci)
    return out


class Derivation(_Coords):
    """D = f_1 d_1 + ... + f_n d_n, stored by its coordinate tuple."""

    __slots__ = ()
    _MESSAGES = ("need one coordinate per generator",
                 "derivation coordinate in a different algebra",
                 "constant coordinate in a Lie variety", "derivations over different varieties")

    @classmethod
    def zero(cls, variety):
        z = variety.zero()
        return cls(variety, (z,) * variety.rank)

    @classmethod
    def euler(cls, variety):
        return cls(variety, variety.gens())

    def is_zero(self):
        return all(f.is_zero() for f in self.coords)

    def __add__(self, other):
        self._check(other)
        return Derivation(
            self.variety, tuple(a + b for a, b in zip(self.coords, other.coords))
        )

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return Derivation(self.variety, tuple(-f for f in self.coords))

    def scale(self, c):
        return Derivation(self.variety, tuple(f.scale(c) for f in self.coords))

    __rmul__ = LinearCombination.__rmul__

    # -- grading ------------------------------------------------------------

    def homogeneous_degree(self):
        """i such that D lies in L_i, or None if D is zero or mixed."""
        degs = set()
        for f in self.coords:
            degs.update(f.homogeneous_components())
        if len(degs) != 1:
            return None
        return degs.pop() - 1

    def graded_parts(self):
        """Decompose into homogeneous parts; dict degree i -> part in L_i."""
        out = {}
        for k, f in enumerate(self.coords):
            for d, part in f.homogeneous_components().items():
                if d - 1 not in out:
                    out[d - 1] = [self.variety.zero()] * self.variety.rank
                out[d - 1][k] = part
        return {i: Derivation(self.variety, tuple(cs)) for i, cs in sorted(out.items())}

    # -- action on A --------------------------------------------------------

    def apply(self, a):
        """Leibniz extension of x_i -> coords[i]."""
        _check_element(self.variety, a, "argument lives in a different algebra")
        var = a.variety
        kind = var.kind
        if kind is Kind.FREE_ASSOCIATIVE or kind is Kind.FREE_LIE:
            # free-Lie words are stored in U(L) = K<X>, where D acts as
            # the associative derivation with the same generator images
            images = [f.coeffs for f in self.coords]
            return Element._raw(var, _leibniz_words(a.coeffs, images))
        # polynomial and metabelian keys: D follows the prefix walk (the
        # closed form above stays for words, where memoising D of every
        # prefix of an m-letter word would cost O(m^3))
        coords, gens = self.coords, var.gens()
        memo, out = {}, {}

        def step(d, prefix, j):
            # D(p x_j) = D(p) x_j + p D(x_j), with D(1) = 0
            if d is None:
                return coords[j]
            return d * gens[j] + Element._raw(var, {prefix: 1}) * coords[j]

        for mono, c in a.coeffs.items():
            d = _prefix_walk(kind, mono, memo, step)
            if d is not None:
                _add_scaled(out, c, d.coeffs)
        return Element._raw(var, out)

    # -- left-symmetric structure -------------------------------------------

    def lsym(self, other):
        """Left-symmetric product D1 . D2 = D_{D1(coords of D2)}."""
        self._check(other)
        return Derivation(self.variety, tuple(self.apply(g) for g in other.coords))

    def bracket(self, other):
        return self.lsym(other) - other.lsym(self)

    # -- extension to U -----------------------------------------------------

    def star_extend(self, u):
        """The derivation D* of U with D*(L_a) = L_{D(a)}, D*(R_a) = R_{D(a)},
        applied to u (factor-wise Leibniz on the stored keys)."""
        _check_element(self.variety, u, "envelope element from a different variety", EnvElement)
        var = u.variety
        if var.kind is Kind.FREE_ASSOCIATIVE:
            images = [f.coeffs for f in self.coords]
            out = {}
            for (a, b), c in u.coeffs.items():
                for wa, ca in _leibniz_words({a: c}, images).items():
                    _merge(out, (wa, b), ca)
                for wb, cb in _leibniz_words({b: c}, images).items():
                    _merge(out, (a, wb), cb)
            return EnvElement(var, out)
        # U is generated by the L_{x_i}, and D* sends them to the L_{D(x_i)}
        base = generated_algebra(var)
        star = Derivation(base, [Element._raw(base, left_mul(f).coeffs) for f in self.coords])
        return EnvElement._raw(var, star.apply(Element._raw(base, u.coeffs)).coeffs)

    def star_trace(self, tc):
        """D* descended to the trace codomain: lift each necklace to a
        representative word, extend, and re-normalize."""
        _check_type(tc, TraceClass)
        return trace_class(self.star_extend(tc.lift()))

    jacobian = jacobian  # fox.jacobian, as a method

    def __repr__(self):
        names = self.variety.names
        parts = [
            f"({f!s})d_{names[i]}"
            for i, f in enumerate(self.coords)
            if not f.is_zero()
        ]
        return " + ".join(parts) if parts else "0"


class DivergenceValue:
    """The divergence of a derivation, a TraceClass in U/([U,U]+R)."""

    __slots__ = ("trace",)

    def __init__(self, trace):
        self.trace = trace

    def is_zero(self):
        return self.trace.is_zero()

    def __eq__(self, other):
        if not isinstance(other, DivergenceValue):
            return NotImplemented
        return self.trace == other.trace

    def __hash__(self):
        return hash(self.trace)

    def __repr__(self):
        return f"DivergenceValue({self.trace!r})"


def divergence(D):
    """div(D) = class of sum_i d(f_i)/dx_i in U/([U,U]+R)."""
    _check_type(D, Derivation)
    acc = {}
    for i, f in enumerate(D.coords):
        _add_scaled(acc, 1, fox_derivative(f, i).coeffs)
    return DivergenceValue(trace_class(EnvElement._raw(D.variety, acc)))
