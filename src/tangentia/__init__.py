"""tangentia: exact tangent-derivation calculus on free algebras.

Four varieties (polynomial, free associative, free Lie, free metabelian
Lie) with exact rational coefficients; universal enveloping algebras,
Fox derivatives and Jacobians; derivations with divergence valued in
U/([U,U]+R); endomorphisms with the IA filtration, tangents, and
truncated inverses; and a detection laboratory for absolutely wild
automorphisms, driven either from Python or from the ``tangentia`` CLI.
"""

from .freealg import *
from .envelope import *
from .fox import *
from .deriv import *
from .morphism import *
from .wildness import *
from . import corpus

__version__ = "1.0.0"

__all__ = sorted([
    *freealg.__all__,
    *envelope.__all__,
    *fox.__all__,
    *deriv.__all__,
    *morphism.__all__,
    *wildness.__all__,
    "corpus",
])
