"""Noncommutative polynomials over a finite generator alphabet.

Monomials are words (tuples of generator indices); a polynomial is a finite
map from words to nonzero coefficients.  Coefficients may be symbolic
(RationalFunctionQ) or numeric (Fraction); the arithmetic is agnostic.
Words are ordered degree-lexicographically using the alphabet's
declaration order as precedence (earlier name = higher letter), which fixes
a deterministic term order for iteration, display and serialization.

Linear combinations, the bulk of the identity verifier's work, go through
NcPoly.combine; a product P * Q is one, the sum of c_u times the word shift
u * Q over the terms c_u * u of P.  combine reads each polynomial in an
integer form kept on it (qcoeff.lifted_form) and adds them in one
qcoeff.lifted_sum, so every sum runs on plain integers.  Its result is
lazy: it carries the surviving words and their integer form, and builds
its coefficients (qcoeff.form_values) only when terms is first read, by ==,
scaling, +, evaluation or JSON, or as the left factor of a product, whose
multipliers are its coefficients.  Word shifts, further sums, the right
factor of a product, the hash and the zero test read the words and the
form alone.  A symbolic form made by a sum holds only the packed integers
the sum made and their exact height: the next sum at that width reads them
instead of packing, and their vectors are unpacked when first read.
"""

from __future__ import annotations

from functools import reduce
from operator import add

from .errors import AlphabetMismatch, MissingImage, ParseError, PoleAtPoint
from .qcoeff import (
    RF_ONE, SYMBOLIC, RationalFunctionQ, form_values, json_fraction, lifted_form, lifted_sum,
    rf_from_json, rf_to_json,
)

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
    """Immutable noncommutative polynomial: word -> nonzero coefficient.

    _words is the terms dict itself or, for a lazy polynomial (a sum's
    result), its words in the order of its integer form _ints; its _terms
    is None until the first read of terms builds and keeps them.
    """

    __slots__ = ("alphabet", "_terms", "_words", "_hash", "_ints")

    def __init__(self, alphabet: Alphabet, terms: dict):
        _SET_ALPHABET(self, alphabet)
        terms = {w: c for w, c in terms.items() if c}
        _SET_TERMS(self, terms)
        _SET_WORDS(self, terms)
        _SET_INTS(self, None)

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
    def terms(self) -> dict:
        """word -> nonzero coefficient."""
        terms = self._terms
        if terms is None:
            terms = dict(zip(self._words, form_values(self._ints)))
            _SET_TERMS(self, terms)
        return terms

    @property
    def is_zero(self) -> bool:
        return not self._words

    def __bool__(self) -> bool:
        return bool(self._words)

    def sorted_terms(self):
        """(word, coeff) pairs in deglex order, leading term first."""
        return sorted(self.terms.items(), key=lambda t: deglex_key(t[0]), reverse=True)

    def leading_word(self) -> Word:
        if not self:
            raise ValueError("zero polynomial has no leading word")
        return max(self._words, key=deglex_key)

    def support(self):
        """The words with a nonzero coefficient, in the order of terms;
        builds no coefficient."""
        return self._words

    # -- arithmetic --------------------------------------------------------

    def _check(self, other: "NcPoly"):
        if self.alphabet != other.alphabet:
            raise AlphabetMismatch(
                f"{self.alphabet!r} vs {other.alphabet!r}"
            )

    def __add__(self, other: "NcPoly") -> "NcPoly":
        self._check(other)
        if not self._words:
            return other
        if not other._words:
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
        return self + (-other)

    def _unit_word(self):
        """The word of a single-term polynomial with coefficient 1, else None."""
        if len(self._words) == 1:
            (w, c), = self.terms.items()
            if c is RF_ONE or c == 1:  # a symbolic generator's 1 without a comparison
                return w
        return None

    def __mul__(self, other) -> "NcPoly":
        if not isinstance(other, NcPoly):
            return self.scaled(other)
        self._check(other)
        # a unit word times a polynomial shifts its words
        u = self._unit_word()
        if u is not None:
            return other._shifted(u, ())
        u = other._unit_word()
        if u is not None:
            return self._shifted((), u)
        form = other._integer_form()  # combine reads a shift u * Q in Q's form alone
        words = other._words
        shifts = [_lazy(self.alphabet, tuple([u + w for w in words]), form) for u in self._words]
        return NcPoly.combine(self.alphabet, zip(self.terms.values(), shifts))

    def _shifted(self, left: Word, right: Word) -> "NcPoly":
        """left * self * right for words left and right, lazy when self is:
        the same coefficients, in the same order, on distinct words, so the
        same integer form."""
        words = self._words
        if type(words) is dict:  # the terms themselves
            return _wrap(self.alphabet, {left + w + right: c for w, c in words.items()}, self._ints)
        return _lazy(self.alphabet, tuple([left + w + right for w in words]), self._ints)

    def __rmul__(self, coeff) -> "NcPoly":
        return self.scaled(coeff)

    def scaled(self, coeff) -> "NcPoly":
        if not coeff:
            return _wrap(self.alphabet, {})
        return _wrap(self.alphabet, {w: coeff * c for w, c in self.terms.items()})

    @staticmethod
    def combine(alphabet: Alphabet, pairs) -> "NcPoly":
        """The sum of c * P over (scalar c, polynomial P) pairs, in one pass.

        Each P is read in its integer form, kept on P (_integer_form), so no
        coefficient is multiplied or added as a scalar, and the sum is one
        qcoeff.lifted_sum: over one integer denominator in numeric mode,
        over one denominator of Phi_d's and rests in symbolic mode, with one
        multiplier per pair.  The result is lazy, its nonzero words and
        their form, which is its own, so a later sum or product over it
        reads it as it is; a product P * Q sums the word shifts u * Q, which
        share Q's form.  The zero test stays exact, the denominator being a
        nonzero polynomial.
        """
        pairs = [(c, p) for c, p in pairs if c and p._words]
        for _, p in pairs:
            if p.alphabet != alphabet:
                raise AlphabetMismatch(f"{alphabet!r} vs {p.alphabet!r}")
        return _lazy(alphabet, *lifted_sum([(c, p._integer_form(), p._words) for c, p in pairs]))

    def _integer_form(self):
        """The coefficients as integers over one denominator, in the order
        of terms (qcoeff.lifted_form): numerators over an integer D in
        numeric mode, numerator vectors over Phi_d's and rests in symbolic
        mode, with each coefficient's own tuple shared where it already has
        that denominator.  Computed once and kept in _ints; a word shift u*P
        or P*u, also inside a product, gets P's kept form, and a sum from
        combine its own, over the sum's common denominator (a lazy
        polynomial is made with its form).
        """
        form = self._ints
        if form is None:
            form = lifted_form(self.terms.values())
            _SET_INTS(self, form)
        return form

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, NcPoly)
            and self.alphabet == other.alphabet
            and self.terms == other.terms
        )

    def __hash__(self) -> int:
        # equal polynomials have the same words, so the words alone are
        # hashed and no lazy coefficient is built; they never change, so
        # the hash is taken once
        try:
            return self._hash
        except AttributeError:
            h = hash((self.alphabet, frozenset(self._words)))
            object.__setattr__(self, "_hash", h)
            return h

    # -- algebra maps ------------------------------------------------------

    def evaluate(self, assignment: dict[str, object], scalar_one):
        """Evaluate in any associative algebra (e.g. exact matrices).

        ``assignment`` maps generator names to algebra elements, and
        ``scalar_one`` is the algebra's identity; coefficients must multiply
        algebra elements from the left.  Each word prefix is multiplied out
        once, shared by every word that extends it.  When the algebra's type
        has a combine over (scalar, element) pairs, as ExactMatrix does, the
        terms are summed in one combine; otherwise they are scaled and added
        one at a time.  An empty polynomial evaluates to 0 * scalar_one.
        """
        values = {self.alphabet.index[n]: v for n, v in assignment.items()}
        prefixes = {(): scalar_one}
        pairs = []
        for w, c in self.terms.items():
            k = len(w)
            while w[:k] not in prefixes:  # the longest prefix already multiplied out
                k -= 1
            acc = prefixes[w[:k]]
            for i in range(k, len(w)):
                letter = w[i]
                if letter not in values:
                    raise MissingImage(
                        f"no value for generator {self.alphabet.names[letter]!r}"
                    )
                acc = values[letter] if i == 0 else acc * values[letter]
                prefixes[w[:i + 1]] = acc
            pairs.append((c, acc))
        if not pairs:
            return 0 * scalar_one
        combine = getattr(type(scalar_one), "combine", None)
        if combine is not None and not isinstance(scalar_one, NcPoly):  # its combine takes an alphabet
            return combine(pairs)
        return reduce(add, [c * acc for c, acc in pairs])

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


# the slot descriptors store past the __setattr__ guard
_SET_ALPHABET, _SET_TERMS, _SET_WORDS, _SET_INTS = (
    NcPoly.alphabet.__set__, NcPoly._terms.__set__, NcPoly._words.__set__, NcPoly._ints.__set__
)


def _wrap(alphabet: Alphabet, terms: dict, ints=None) -> NcPoly:
    """An NcPoly over terms that hold no zero coefficient, without the filter;
    ints is their integer form when known."""
    p = object.__new__(NcPoly)
    _SET_ALPHABET(p, alphabet)
    _SET_TERMS(p, terms)
    _SET_WORDS(p, terms)
    _SET_INTS(p, ints)
    return p


def _lazy(alphabet: Alphabet, words: tuple, form) -> NcPoly:
    """A lazy NcPoly over distinct words and their integer form, no value 0."""
    p = object.__new__(NcPoly)
    _SET_ALPHABET(p, alphabet)
    _SET_TERMS(p, None)
    _SET_WORDS(p, words)
    _SET_INTS(p, form)
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
        return mode.from_fraction(json_fraction(data))
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
            except (PoleAtPoint, ParseError) as e:  # a pole at the numeric q, a malformed field
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
