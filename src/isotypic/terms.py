"""Sparse term maps: the one core of the package's exact polynomials.

``characters.LaurentPoly`` (shape: its number of torus coordinates) and
``fock.FockPoly`` (shape: a ``FockShape``) key terms by dense exponent
tuples and share the product of ``DensePoly``; ``fock.WeylOp`` keys them
by (multiplication, derivative) pairs and composes with ``@`` instead.
"""

from __future__ import annotations

from itertools import permutations
from operator import add

from .errors import ShapeMismatch


def add_into(out: dict, key, coeff):
    """Add a nonzero coefficient into a term map, dropping a term that cancels."""
    prev = out.get(key)
    if prev is None:
        out[key] = coeff
        return
    total = prev + coeff
    if total:
        out[key] = total
    else:
        del out[key]


class TermMap:
    """A shape plus a map from exponent keys to nonzero exact coefficients.

    The public constructor passes keys through the ``_key`` hook and
    coefficients (and the scalar of ``*``) through ``_coeff``, dropping
    zeros; kernel results use the trusted ``_new``.  Treat as immutable.
    """

    __slots__ = ("shape", "terms")
    _key = staticmethod(tuple)

    def __init__(self, shape, terms=None):
        self.shape = shape
        clean = {}
        if terms:
            for key, coeff in terms.items() if hasattr(terms, "items") else terms:
                coeff = self._coeff(coeff)
                if coeff:
                    clean[self._key(key)] = coeff
        self.terms = clean

    @classmethod
    def _new(cls, shape, terms: dict):
        """Trusted constructor: keys already normal, values nonzero coefficients."""
        out = object.__new__(cls)
        out.shape = shape
        out.terms = terms
        return out

    @classmethod
    def zero(cls, shape):
        return cls._new(shape, {})

    def is_zero(self):
        return not self.terms

    def _require_same_shape(self, other):
        if self.shape != other.shape:
            raise ShapeMismatch(f"{self.shape} vs {other.shape}")

    def __add__(self, other):
        self._require_same_shape(other)
        out = dict(self.terms)
        for key, c in other.terms.items():
            add_into(out, key, c)
        return self._new(self.shape, out)

    def __neg__(self):
        return self._new(self.shape, {key: -c for key, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, scalar):
        # Another term map is no scalar: NotImplemented lets Python raise its
        # plain operand TypeError, where _coeff would render the operand.
        if isinstance(scalar, TermMap):
            return NotImplemented
        scalar = self._coeff(scalar)
        if not scalar:
            return self._new(self.shape, {})
        return self._new(self.shape, {key: c * scalar for key, c in self.terms.items()})

    __rmul__ = __mul__

    def __eq__(self, other):
        if not isinstance(other, type(self)):
            return NotImplemented
        return self.shape == other.shape and self.terms == other.terms


class DensePoly(TermMap):
    """A term map keyed by dense exponent tuples, one slot per variable;
    ``*`` by a polynomial of the same class is the polynomial product."""

    __slots__ = ()

    def __mul__(self, other):
        if type(other) is not type(self):
            return TermMap.__mul__(self, other)
        self._require_same_shape(other)
        out: dict = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                add_into(out, tuple(map(add, e1, e2)), c1 * c2)
        return self._new(self.shape, out)


def leibniz_det(entries, one):
    """Determinant of a square matrix over a commutative ring (Leibniz
    expansion).  `one` is the ring's 1, which is also the empty determinant."""
    size = len(entries)
    out = one - one
    for perm in permutations(range(size)):
        inversions = sum(
            perm[i] > perm[j] for i in range(size) for j in range(i + 1, size)
        )
        term = -one if inversions % 2 else one
        for row, col in enumerate(perm):
            term = term * entries[row][col]
        out = out + term
    return out
