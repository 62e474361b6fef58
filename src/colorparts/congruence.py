"""Residue schemes and periodic-product representations.

The product side of every identity handled by this package is an infinite
product of binomial factors (1 - q^j), possibly with a few (1 + q^j) factors,
whose exponents depend only on j modulo a fixed m.  Such products arise here
from two sources:

* the structured character products for odd and even array widths, built from
  an ascending scheme and its congruence triangle, and
* :func:`parse_residue_spec`, a small text notation that lists residue
  classes directly, e.g. ``"odd; 2,4,5,6,8 mod 10"``.

Sign convention: a *negative* exponent generates partitions, so every class
listed in the text notation contributes a factor (1 - q^j)^-1 for each j in
the class.  Numerator and denominator of a character formula then combine by
plain integer addition of exponents.
"""

from __future__ import annotations

import math
import re
from collections import Counter
from dataclasses import dataclass
from typing import Iterator, Sequence

from .lattice import _int_tuple

__all__ = [
    "Scheme",
    "CongruenceTriangle",
    "PlusFactor",
    "PeriodicProduct",
    "ResidueSpecError",
    "build_scheme",
    "build_triangle",
    "lepowsky_product",
    "even_width_product",
    "parse_residue_spec",
    "residue_class_text",
]


def _checked_seed(seed: Sequence[int]) -> tuple[int, ...]:
    values = _int_tuple(seed)
    if not values:
        raise ValueError("scheme seed must be non-empty")
    if any(s <= 0 for s in values):
        raise ValueError(f"scheme seed entries must be positive, got {values}")
    return values


@dataclass(frozen=True)
class Scheme:
    """Ascending positive integers with a palindromic increment word.

    Built from a seed (s_0, ..., s_l): the values start at s_0 and increase
    by s_1, ..., s_l, s_l, ..., s_1 in turn, giving 2l+1 values that end at
    2*(s_0 + ... + s_l) - s_0.
    """

    values: tuple[int, ...]

    def __len__(self) -> int:
        return len(self.values)

    def __iter__(self) -> Iterator[int]:
        return iter(self.values)


def build_scheme(seed: Sequence[int]) -> Scheme:
    """Return the ascending scheme generated by ``seed``."""
    s = _checked_seed(seed)
    increments = s[1:] + s[:0:-1]
    values = [s[0]]
    for step in increments:
        values.append(values[-1] + step)
    return Scheme(tuple(values))


@dataclass(frozen=True)
class CongruenceTriangle:
    """Multiset union of the nested schemes of a seed (s_1, ..., s_l).

    The union of build_scheme(s_r, ..., s_l) over r = 1..l has
    (2l-1) + (2l-3) + ... + 1 = l**2 members counted with multiplicity.
    """

    values: tuple[int, ...]  # sorted, multiplicity preserved

    def counter(self) -> Counter:
        return Counter(self.values)

    def __len__(self) -> int:
        return len(self.values)

    def __iter__(self) -> Iterator[int]:
        return iter(self.values)


def build_triangle(seed: Sequence[int]) -> CongruenceTriangle:
    """Return the congruence triangle of ``seed``."""
    s = _checked_seed(seed)
    values: list[int] = []
    for r in range(len(s)):
        values.extend(build_scheme(s[r:]).values)
    return CongruenceTriangle(tuple(sorted(values)))


@dataclass(frozen=True)
class PlusFactor:
    """One family of (1 + q^j)^exponent factors over a residue class."""

    residue: int
    modulus: int
    exponent: int

    def __post_init__(self) -> None:
        if self.modulus < 1:
            raise ValueError("plus-factor modulus must be >= 1")
        if not 0 <= self.residue < self.modulus:
            raise ValueError("plus-factor residue must be reduced")


@dataclass(frozen=True)
class PeriodicProduct:
    """An infinite product with residue-periodic integer exponents.

    Represents

        prod_{j >= 1} (1 - q^j)^(global_all + [j odd]*global_odd + E(j mod m))
        * prod_{(r, m', e)} prod_{j >= 1, j = r mod m'} (1 + q^j)^e

    where E is ``residue_exponents`` indexed by residues 0..m-1.
    """

    modulus: int
    residue_exponents: tuple[int, ...]
    global_all: int = 0
    global_odd: int = 0
    plus_factors: tuple[PlusFactor, ...] = ()

    def __post_init__(self) -> None:
        if self.modulus < 1:
            raise ValueError("modulus must be >= 1")
        exps = tuple(int(e) for e in self.residue_exponents)
        if len(exps) != self.modulus:
            raise ValueError("need one exponent per residue class")
        object.__setattr__(self, "residue_exponents", exps)
        object.__setattr__(self, "plus_factors", tuple(self.plus_factors))

    @property
    def period(self) -> int:
        """Period of the factor exponents in j: the lcm of the modulus, 2 if
        the odd-j factor is present, and every plus-factor modulus."""
        moduli = [pf.modulus for pf in self.plus_factors]
        return math.lcm(self.modulus, 2 if self.global_odd else 1, *moduli)

    def effective_exponent(self, j: int) -> int:
        """Exponent of the factor (1 - q^j), globals included."""
        if j < 1:
            raise ValueError("factor index must be >= 1")
        e = self.global_all + self.residue_exponents[j % self.modulus]
        if j % 2:
            e += self.global_odd
        return e

    def net_residue_exponents(self) -> tuple[int, ...]:
        """Per-class exponents with globals folded in.

        Defined only when the odd-j factor is constant on each class, i.e.
        when ``global_odd`` is zero or the modulus is even.
        """
        if self.global_odd and self.modulus % 2:
            raise ValueError(
                "odd-j factor is not class-constant for an odd modulus"
            )
        return tuple(
            self.effective_exponent(r if r else self.modulus)
            for r in range(self.modulus)
        )


def _checked_weights(ks: Sequence[int], min_rank: int) -> tuple[int, ...]:
    weights = _int_tuple(ks)
    rank = len(weights) - 1
    if rank < min_rank:
        raise ValueError(f"need at least {min_rank + 1} weight entries, got {weights}")
    if any(x < 0 for x in weights):
        raise ValueError(f"weight entries must be nonnegative, got {weights}")
    if sum(weights) == 0:
        raise ValueError("total level must be positive")
    return weights


def lepowsky_product(ks: Sequence[int]) -> PeriodicProduct:
    """Character product for an odd-width weight tuple (k_0, ..., k_l), l >= 2.

    The modulus is 2l + 2k + 2 with k the total level.  The numerator classes
    come from l copies of 0, the scheme of (k_0+1, ..., k_l+1), and both b and
    -b for every member b of the triangle of (k_1+1, ..., k_l+1); members with
    b = -b (mod m) count twice.  The denominator contributes one factor for
    every odd j and l factors for every j.
    """
    weights = _checked_weights(ks, min_rank=2)
    rank = len(weights) - 1
    level = sum(weights)
    modulus = 2 * rank + 2 * level + 2
    exps = [0] * modulus
    exps[0] += rank
    for a in build_scheme(tuple(x + 1 for x in weights)):
        exps[a % modulus] += 1
    for b in build_triangle(tuple(x + 1 for x in weights[1:])):
        exps[b % modulus] += 1
        exps[-b % modulus] += 1
    return PeriodicProduct(
        modulus, tuple(exps), global_all=-rank, global_odd=-1
    )


def even_width_product(ks: Sequence[int]) -> PeriodicProduct:
    """Conjectured product for an even-width weight tuple (k_0, ..., k_l).

    Same shape as :func:`lepowsky_product` but with odd modulus 2l + 2k + 1,
    no scheme term and no odd-j denominator factor.
    """
    weights = _checked_weights(ks, min_rank=1)
    rank = len(weights) - 1
    level = sum(weights)
    modulus = 2 * rank + 2 * level + 1
    exps = [0] * modulus
    exps[0] += rank
    for b in build_triangle(tuple(x + 1 for x in weights[1:])):
        exps[b % modulus] += 1
        exps[-b % modulus] += 1
    return PeriodicProduct(modulus, tuple(exps), global_all=-rank, global_odd=0)


class ResidueSpecError(ValueError):
    """Malformed residue-spec text; ``position`` is the offending offset."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


_TOKEN_RE = re.compile(
    r"(?P<ws>\s+)|(?P<int>\d+)|(?P<word>[A-Za-z]+)|(?P<punct>[;,()\[\]^+-])"
)


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            raise ResidueSpecError(f"unexpected character {text[pos]!r}", pos)
        if m.lastgroup != "ws":
            tokens.append((m.lastgroup, m.group(), pos))
        pos = m.end()
    return tokens


class _SpecParser:
    def __init__(self, text: str):
        self.text = text
        self.tokens = _tokenize(text)
        self.index = 0

    def peek(self) -> tuple[str, str, int] | None:
        if self.index < len(self.tokens):
            return self.tokens[self.index]
        return None

    def next(self) -> tuple[str, str, int]:
        tok = self.peek()
        if tok is None:
            raise ResidueSpecError("unexpected end of input", len(self.text))
        self.index += 1
        return tok

    def expect(self, kind: str, value: str | None = None) -> tuple[str, str, int]:
        tok = self.next()
        if tok[0] != kind or (value is not None and tok[1] != value):
            wanted = value if value is not None else kind
            raise ResidueSpecError(f"expected {wanted!r}, got {tok[1]!r}", tok[2])
        return tok

    def at(self, kind: str, value: str | None = None) -> bool:
        tok = self.peek()
        return (
            tok is not None
            and tok[0] == kind
            and (value is None or tok[1] == value)
        )


def parse_residue_spec(text: str) -> PeriodicProduct:
    """Parse residue-spec text into a :class:`PeriodicProduct`.

    Grammar::

        spec    := [globals ";"] [classes] "mod" INT [suffix]
        globals := ("all" | "odd") ("," ("all" | "odd"))*
        classes := INT ("," INT)*
        suffix  := "[" plus* "]"
        plus    := "(" "+" INT "mod" INT ")" ["^" ["-"] INT]

    Every listed class adds a generating factor (exponent -1 per repetition),
    as do the ``all`` and ``odd`` globals.  Classes may be omitted when only
    global factors are wanted ("odd, odd; mod 6").  Residues must be reduced
    (0 <= r < modulus).
    """
    p = _SpecParser(text)
    n_all = n_odd = 0
    if p.at("word", "all") or p.at("word", "odd"):
        while True:
            tok = p.next()
            if tok[1] == "all":
                n_all += 1
            elif tok[1] == "odd":
                n_odd += 1
            else:
                raise ResidueSpecError(
                    f"expected 'all' or 'odd', got {tok[1]!r}", tok[2]
                )
            if p.at("punct", ","):
                p.next()
                continue
            break
        p.expect("punct", ";")

    classes: list[tuple[int, int]] = []  # (residue, position)
    if p.at("int"):
        tok = p.next()
        classes.append((int(tok[1]), tok[2]))
        while p.at("punct", ","):
            p.next()
            tok = p.expect("int")
            classes.append((int(tok[1]), tok[2]))

    p.expect("word", "mod")
    mod_tok = p.expect("int")
    modulus = int(mod_tok[1])
    if modulus < 1:
        raise ResidueSpecError("modulus must be >= 1", mod_tok[2])

    plus_factors: list[PlusFactor] = []
    if p.at("punct", "["):
        p.next()
        while not p.at("punct", "]"):
            p.expect("punct", "(")
            p.expect("punct", "+")
            r_tok = p.expect("int")
            p.expect("word", "mod")
            m_tok = p.expect("int")
            p.expect("punct", ")")
            exponent = 1
            if p.at("punct", "^"):
                p.next()
                sign = 1
                if p.at("punct", "-"):
                    p.next()
                    sign = -1
                e_tok = p.expect("int")
                exponent = sign * int(e_tok[1])
            plus_mod = int(m_tok[1])
            plus_res = int(r_tok[1])
            if plus_mod < 1:
                raise ResidueSpecError("modulus must be >= 1", m_tok[2])
            if plus_res >= plus_mod:
                raise ResidueSpecError(
                    f"residue {plus_res} not reduced mod {plus_mod}", r_tok[2]
                )
            plus_factors.append(PlusFactor(plus_res, plus_mod, exponent))
        p.expect("punct", "]")

    trailing = p.peek()
    if trailing is not None:
        raise ResidueSpecError(f"unexpected token {trailing[1]!r}", trailing[2])

    exps = [0] * modulus
    for residue, position in classes:
        if residue >= modulus:
            raise ResidueSpecError(
                f"residue {residue} not reduced mod {modulus}", position
            )
        exps[residue] -= 1

    return PeriodicProduct(
        modulus,
        tuple(exps),
        global_all=-n_all,
        global_odd=-n_odd,
        plus_factors=tuple(plus_factors),
    )


def residue_class_text(modulus: int, multiplicities: Sequence[int]) -> str:
    """Render generating classes as spec text, e.g. ``"2,3 mod 5"``.

    ``multiplicities[r]`` is the number of generating factors (1 - q^j)^-1
    for the class j = r (mod modulus); entries must be nonnegative.
    """
    if modulus < 1 or len(multiplicities) != modulus:
        raise ValueError("need one multiplicity per residue class")
    if any(m < 0 for m in multiplicities):
        raise ValueError("class multiplicities must be nonnegative")
    labels: list[str] = []
    for r in range(modulus):
        labels.extend([str(r)] * multiplicities[r])
    return f"{','.join(labels)} mod {modulus}" if labels else f"mod {modulus}"
