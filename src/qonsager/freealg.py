"""Noncommutative polynomials over a finite generator alphabet.

Monomials are words (tuples of generator indices); a polynomial is a finite
map from words to nonzero coefficients.  Coefficients may be symbolic
(RationalFunctionQ) or numeric (Fraction); the arithmetic is agnostic.
Words are ordered degree-lexicographically using the alphabet's
declaration order as precedence (earlier name = higher letter), which fixes
a deterministic term order for iteration, display and serialization.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm

from .errors import AlphabetMismatch, MissingImage, ParseError, PoleAtPoint
from .qcoeff import SYMBOLIC, RationalFunctionQ, rf_from_json, rf_to_json

Word = tuple[int, ...]


class Alphabet:
    """Ordered set of distinct generator names; order gives precedence."""

    __slots__ = ("names", "index")

    def __init__(self, names):
        names = tuple(names)
        if not names or len(set(names)) != len(names):
            raise ValueError("generator names must be distinct and nonempty")
        object.__setattr__(self, "names", names)
        object.__setattr__(self, "index", {n: i for i, n in enumerate(names)})

    def __setattr__(self, *a):
        raise AttributeError("Alphabet is immutable")

    def __len__(self):
        return len(self.names)

    def __eq__(self, other):
        return isinstance(other, Alphabet) and self.names == other.names

    def __hash__(self):
        return hash(self.names)

    def __repr__(self):
        return f"Alphabet{self.names}"

    def word(self, letters: str | list[str]) -> Word:
        """Translate a sequence of generator names into a word."""
        if isinstance(letters, str):
            letters = list(letters)
        try:
            return tuple(self.index[x] for x in letters)
        except KeyError as e:
            raise ParseError(f"unknown generator {e.args[0]!r}")

    def spell(self, w: Word) -> list[str]:
        return [self.names[i] for i in w]


def deglex_key(w: Word):
    """Sort key under which larger means larger in degree-lex order."""
    return (len(w), tuple(-x for x in w))


class NcPoly:
    """Immutable noncommutative polynomial: word -> nonzero coefficient."""

    __slots__ = ("alphabet", "terms", "_hash", "_ints")

    def __init__(self, alphabet: Alphabet, terms: dict):
        _SET_ALPHABET(self, alphabet)
        _SET_TERMS(self, {w: c for w, c in terms.items() if c})

    def __setattr__(self, *a):
        raise AttributeError("NcPoly is immutable")

    # -- constructors ------------------------------------------------------

    @staticmethod
    def zero(alphabet: Alphabet) -> "NcPoly":
        return NcPoly(alphabet, {})

    @staticmethod
    def one(alphabet: Alphabet, mode=SYMBOLIC) -> "NcPoly":
        return NcPoly(alphabet, {(): mode.one()})

    @staticmethod
    def generator(alphabet: Alphabet, name: str, mode=SYMBOLIC) -> "NcPoly":
        return NcPoly(alphabet, {(alphabet.index[name],): mode.one()})

    @staticmethod
    def monomial(alphabet: Alphabet, w: Word, coeff) -> "NcPoly":
        return NcPoly(alphabet, {tuple(w): coeff})

    # -- structure ---------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self) -> bool:
        return bool(self.terms)

    def sorted_terms(self, reverse: bool = True):
        """(word, coeff) pairs in deglex order, leading term first by default."""
        return sorted(self.terms.items(), key=lambda t: deglex_key(t[0]), reverse=reverse)

    def leading_word(self) -> Word:
        if not self.terms:
            raise ValueError("zero polynomial has no leading word")
        return max(self.terms, key=deglex_key)

    def support(self):
        return self.terms.keys()

    # -- arithmetic --------------------------------------------------------

    def _check(self, other: "NcPoly"):
        if self.alphabet != other.alphabet:
            raise AlphabetMismatch(
                f"{self.alphabet!r} vs {other.alphabet!r}"
            )

    def __add__(self, other: "NcPoly") -> "NcPoly":
        self._check(other)
        if not self.terms:
            return other
        if not other.terms:
            return self
        out = dict(self.terms)
        for w, c in other.terms.items():
            s = out.get(w)
            if s is None:
                out[w] = c
            else:
                s = s + c
                if s:
                    out[w] = s
                else:
                    del out[w]
        return _wrap(self.alphabet, out)

    def __neg__(self) -> "NcPoly":
        return _wrap(self.alphabet, {w: -c for w, c in self.terms.items()})

    def __sub__(self, other: "NcPoly") -> "NcPoly":
        self._check(other)
        if not other.terms:
            return self
        out = dict(self.terms)
        for w, c in other.terms.items():
            s = out.get(w)
            if s is None:
                out[w] = -c
            else:
                s = s - c
                if s:
                    out[w] = s
                else:
                    del out[w]
        return _wrap(self.alphabet, out)

    def _unit_word(self):
        """The word of a single-term polynomial with coefficient 1, else None."""
        if len(self.terms) == 1:
            (w, c), = self.terms.items()
            if c == 1:
                return w
        return None

    def __mul__(self, other) -> "NcPoly":
        if not isinstance(other, NcPoly):
            return self.scaled(other)
        self._check(other)
        # a unit word times a polynomial shifts its words: distinct words stay
        # distinct, so no coefficient is added or multiplied
        u = self._unit_word()
        if u is not None:
            return _wrap(self.alphabet, {u + w: c for w, c in other.terms.items()})
        u = other._unit_word()
        if u is not None:
            return _wrap(self.alphabet, {w + u: c for w, c in self.terms.items()})
        out: dict = {}
        for w1, c1 in self.terms.items():
            for w2, c2 in other.terms.items():
                w = w1 + w2
                c = c1 * c2
                s = out.get(w)
                if s is None:
                    out[w] = c
                else:
                    s = s + c
                    if s:
                        out[w] = s
                    else:
                        del out[w]
        return _wrap(self.alphabet, out)

    def __rmul__(self, coeff) -> "NcPoly":
        return self.scaled(coeff)

    def scaled(self, coeff) -> "NcPoly":
        if not coeff:
            return _wrap(self.alphabet, {})
        return _wrap(self.alphabet, {w: coeff * c for w, c in self.terms.items()})

    @staticmethod
    def combine(alphabet: Alphabet, pairs) -> "NcPoly":
        """The sum of c * P over (scalar c, polynomial P) pairs, in one pass.

        The coefficient type picks the path.  With every scalar and
        coefficient rational (int or Fraction: numeric mode) each P is read
        in its integer form, numerators over one denominator D, kept on P.
        Each c / D becomes one integer multiplier over a common denominator
        m, the sum runs over plain ints, and only a word left nonzero gets
        a Fraction.  Summing scaled polynomials instead normalizes a
        Fraction, with a gcd, for every term of every summand; a sum that
        cancels here builds none.  Any other scalar (a RationalFunctionQ of
        symbolic mode) is summed with its own * and +, and the zeros are
        dropped at the end.
        """
        pairs = [(c, p) for c, p in pairs if c and p.terms]
        for _, p in pairs:
            if p.alphabet != alphabet:
                raise AlphabetMismatch(f"{alphabet!r} vs {p.alphabet!r}")
        forms = None
        if all(isinstance(c, _RATIONAL) for c, _ in pairs):
            forms = [p._integer_form() for _, p in pairs]
        if forms is None or None in forms:
            out: dict = {}
            for c, p in pairs:
                for w, x in p.terms.items():
                    t = c * x
                    s = out.get(w)
                    out[w] = t if s is None else s + t
            return _wrap(alphabet, {w: x for w, x in out.items() if x})
        scales = [Fraction(c.numerator, c.denominator * d) for (c, _), (d, _) in zip(pairs, forms)]
        m = lcm(*(f.denominator for f in scales))
        acc: dict = {}
        get = acc.get
        for f, (_, p), (_, nums) in zip(scales, pairs, forms):
            k = f.numerator * (m // f.denominator)
            for w, n in zip(p.terms, nums):
                acc[w] = get(w, 0) + k * n
        return _wrap(alphabet, {w: Fraction(v, m) for w, v in acc.items() if v})

    def _integer_form(self):
        """The coefficients as numerators over one denominator: (D, nums),
        nums in the order of terms and D the lcm of the denominators; None
        if a coefficient is not rational.  Computed once and kept, as a
        tuple rather than a dict to keep it small."""
        try:
            return self._ints
        except AttributeError:
            pass
        form = None
        if all(isinstance(c, _RATIONAL) for c in self.terms.values()):
            d = lcm(*(c.denominator for c in self.terms.values()))
            form = (d, tuple([c.numerator * (d // c.denominator) for c in self.terms.values()]))
        _SET_INTS(self, form)
        return form

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, NcPoly)
            and self.alphabet == other.alphabet
            and self.terms == other.terms
        )

    def __hash__(self) -> int:
        # terms is never mutated after construction, so hash it once
        try:
            return self._hash
        except AttributeError:
            h = hash((self.alphabet, frozenset(self.terms.items())))
            object.__setattr__(self, "_hash", h)
            return h

    # -- algebra maps ------------------------------------------------------

    def evaluate(self, assignment: dict[str, object], scalar_one):
        """Evaluate in any associative algebra (e.g. exact matrices).

        ``assignment`` maps generator names to algebra elements, and
        ``scalar_one`` is the algebra's identity; coefficients must multiply
        algebra elements from the left.
        """
        values = {self.alphabet.index[n]: v for n, v in assignment.items()}
        out = None
        for w, c in self.terms.items():
            acc = None
            for letter in w:
                if letter not in values:
                    raise MissingImage(
                        f"no value for generator {self.alphabet.names[letter]!r}"
                    )
                acc = values[letter] if acc is None else acc * values[letter]
            term = c * (scalar_one if acc is None else acc)
            out = term if out is None else out + term
        if out is None:
            return 0 * scalar_one
        return out

    def map_coeffs(self, f) -> "NcPoly":
        return NcPoly(self.alphabet, {w: f(c) for w, c in self.terms.items()})

    # -- display -----------------------------------------------------------

    def __repr__(self) -> str:
        if not self.terms:
            return "0"
        parts = []
        for w, c in self.sorted_terms():
            mono = "*".join(self.alphabet.spell(w)) if w else "1"
            parts.append(f"({c!r})*{mono}" if w else f"({c!r})")
        return " + ".join(parts)


_RATIONAL = (int, Fraction)

# the slot descriptors store past the __setattr__ guard
_SET_ALPHABET, _SET_TERMS, _SET_INTS = (
    NcPoly.alphabet.__set__, NcPoly.terms.__set__, NcPoly._ints.__set__
)


def _wrap(alphabet: Alphabet, terms: dict) -> NcPoly:
    """An NcPoly over terms that hold no zero coefficient, without the filter."""
    p = object.__new__(NcPoly)
    _SET_ALPHABET(p, alphabet)
    _SET_TERMS(p, terms)
    return p


# ---------------------------------------------------------------------------
# JSON expression format
# ---------------------------------------------------------------------------

def _coeff_to_json(c):
    if isinstance(c, RationalFunctionQ):
        return rf_to_json(c)
    return str(c)


def _coeff_from_json(data, mode):
    if isinstance(data, dict):
        x = rf_from_json(data)
        if mode.is_symbolic:
            return x
        return x.eval_at(mode.q0)
    if isinstance(data, (int, str)):
        f = Fraction(str(data))
        return mode.from_fraction(f)
    raise ParseError(f"cannot decode coefficient {data!r}")


def ncpoly_to_json(p: NcPoly) -> dict:
    """Canonical JSON encoding; terms emitted leading-first in deglex order."""
    return {
        "alphabet": list(p.alphabet.names),
        "terms": [
            {"word": p.alphabet.spell(w), "coeff": _coeff_to_json(c)}
            for w, c in p.sorted_terms()
        ],
    }


def ncpoly_from_json(data, mode=SYMBOLIC) -> NcPoly:
    try:
        alphabet = Alphabet(data["alphabet"])
        terms: dict = {}
        for i, t in enumerate(data["terms"]):
            try:
                w = alphabet.word(t["word"])
            except ParseError as e:
                raise ParseError(str(e), location=f"terms[{i}].word")
            try:
                c = _coeff_from_json(t["coeff"], mode)
            except ZeroDivisionError:
                raise ParseError("zero denominator", location=f"terms[{i}].coeff")
            except PoleAtPoint as e:  # a coefficient with a pole at the numeric q
                raise ParseError(str(e), location=f"terms[{i}].coeff")
            if w in terms:
                c = terms[w] + c
            if c:
                terms[w] = c
            elif w in terms:
                del terms[w]
        return NcPoly(alphabet, terms)
    except (KeyError, TypeError, ValueError) as e:
        raise ParseError(f"malformed expression JSON: {e}")
