"""Residue schemes and periodic-product representations.

The product side of every identity handled by this package is an infinite
product of factors (1 - q^j), possibly with a few (1 + q^j) factors, whose
exponents depend only on j modulo a fixed m.  Such products come from the
character products for odd and even array widths (built from an ascending
scheme and its congruence triangle) or from :func:`parse_residue_spec`, a
text notation that lists residue classes directly, e.g.
``"odd; 2,4,5,6,8 mod 10"``.

Sign convention: a *negative* exponent generates partitions, so every class
listed in the text notation contributes a factor (1 - q^j)^-1 for each j in
the class.  Numerator and denominator of a character formula then combine by
plain integer addition of exponents.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from itertools import accumulate
from typing import Sequence

from .lattice import _int_tuple

__all__ = [
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


def build_scheme(seed: Sequence[int]) -> tuple[int, ...]:
    """Ascending scheme of a seed (s_0, ..., s_l).

    The values start at s_0 and increase by s_1, ..., s_l, s_l, ..., s_1 in
    turn, giving 2l+1 values that end at 2*(s_0 + ... + s_l) - s_0.
    """
    s = _checked_seed(seed)
    return tuple(accumulate(s[1:] + s[:0:-1], initial=s[0]))


def build_triangle(seed: Sequence[int]) -> tuple[int, ...]:
    """Congruence triangle of a seed (s_1, ..., s_l), sorted.

    The multiset union of build_scheme(s_r, ..., s_l) over r = 1..l, which
    has (2l-1) + (2l-3) + ... + 1 = l**2 members counted with multiplicity.
    """
    s = _checked_seed(seed)
    return tuple(sorted(v for r in range(len(s)) for v in build_scheme(s[r:])))


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
            raise ValueError("odd-j factor is not class-constant for an odd modulus")
        m = self.modulus
        return tuple(self.effective_exponent(r or m) for r in range(m))


def _character_product(ks: Sequence[int], odd_width: bool) -> PeriodicProduct:
    weights = _int_tuple(ks)
    rank = len(weights) - 1
    min_rank = 2 if odd_width else 1
    if rank < min_rank:
        raise ValueError(f"need at least {min_rank + 1} weight entries, got {weights}")
    if any(x < 0 for x in weights):
        raise ValueError(f"weight entries must be nonnegative, got {weights}")
    if sum(weights) == 0:
        raise ValueError("total level must be positive")
    modulus = 2 * rank + 2 * sum(weights) + (2 if odd_width else 1)
    exps = [0] * modulus
    exps[0] += rank
    if odd_width:
        for a in build_scheme(tuple(x + 1 for x in weights)):
            exps[a % modulus] += 1
    for b in build_triangle(tuple(x + 1 for x in weights[1:])):
        exps[b % modulus] += 1
        exps[-b % modulus] += 1
    return PeriodicProduct(modulus, tuple(exps), -rank, -1 if odd_width else 0)


def lepowsky_product(ks: Sequence[int]) -> PeriodicProduct:
    """Character product for an odd-width weight tuple (k_0, ..., k_l), l >= 2.

    The modulus is 2l + 2k + 2 with k the total level.  The numerator classes
    come from l copies of 0, the scheme of (k_0+1, ..., k_l+1), and both b and
    -b for every member b of the triangle of (k_1+1, ..., k_l+1); members with
    b = -b (mod m) count twice.  The denominator contributes one factor for
    every odd j and l factors for every j.
    """
    return _character_product(ks, odd_width=True)


def even_width_product(ks: Sequence[int]) -> PeriodicProduct:
    """Conjectured product for an even-width weight tuple (k_0, ..., k_l).

    Same shape as :func:`lepowsky_product` but with odd modulus 2l + 2k + 1,
    no scheme term and no odd-j denominator factor.
    """
    return _character_product(ks, odd_width=False)


class ResidueSpecError(ValueError):
    """Malformed residue-spec text; ``position`` is the offending offset."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


# One pattern per clause of the grammar below.  Each is matched where the
# previous clause ended and skips its own leading whitespace; a keyword must
# not run on into more letters ("mod5" is "mod 5", "modulo" is no keyword).
_BAD_CHAR = re.compile(r"[^\s\dA-Za-z;,()\[\]^+-]")
_SPACE = re.compile(r"\s*")
_GLOBALS = re.compile(
    r"\s*((?:all|odd)(?![A-Za-z])(?:\s*,\s*(?:all|odd)(?![A-Za-z]))*)\s*;"
)
_CLASSES = re.compile(r"\s*(\d+(?:\s*,\s*\d+)*)")
_MOD = re.compile(r"\s*mod(?![A-Za-z])\s*(\d+)")
_OPEN = re.compile(r"\s*\[")
# A "^" must start a full exponent, so "(+1 mod 2)^x" fails as one clause.
_PLUS = re.compile(
    r"\s*\(\s*\+\s*(\d+)\s*mod(?![A-Za-z])\s*(\d+)\s*\)"
    r"(?:\s*\^\s*(-?)\s*(\d+)|(?!\s*\^))"
)
_CLOSE = re.compile(r"\s*\]")
_END = re.compile(r"\s*\Z")
_INT = re.compile(r"\d+")


def _expected(text: str, pos: int, what: str) -> ResidueSpecError:
    return ResidueSpecError(f"expected {what}", _SPACE.match(text, pos).end())


def _number(match: re.Match, group: int, modulus: int = 0) -> int:
    """The group as a modulus (>= 1), or as a residue reduced mod ``modulus``."""
    value, position = int(match[group]), match.start(group)
    if not modulus and value < 1:
        raise ResidueSpecError("modulus must be >= 1", position)
    if modulus and value >= modulus:
        raise ResidueSpecError(f"residue {value} not reduced mod {modulus}", position)
    return value


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

    Errors raise :class:`ResidueSpecError` with an offset into ``text``.  A
    character outside the spec alphabet is reported first, at that character.
    A clause that does not match ("expected ...") is reported at the first
    non-blank character where it should start, so ``"odd 1 mod 5"`` fails at
    0 and a cut-off spec at ``len(text)``.  A modulus below 1 or an unreduced
    residue is reported at that number; a plus factor is checked as soon as it
    is read, the classes last.
    """
    if (bad := _BAD_CHAR.search(text)) is not None:
        raise ResidueSpecError(f"unexpected character {bad.group()!r}", bad.start())
    n_all = n_odd = pos = 0
    globals_ = _GLOBALS.match(text)
    if globals_ is not None:
        n_all, n_odd = globals_[1].count("all"), globals_[1].count("odd")
        pos = globals_.end()
    classes = _CLASSES.match(text, pos)
    if classes is not None:
        pos = classes.end()
    mod = _MOD.match(text, pos)
    if mod is None:
        raise _expected(text, pos, "[globals ';'] [classes] 'mod' INT")
    modulus = _number(mod, 1)
    pos = mod.end()

    plus_factors: list[PlusFactor] = []
    bracket = _OPEN.match(text, pos)
    if bracket is not None:
        pos = bracket.end()
        while (close := _CLOSE.match(text, pos)) is None:
            plus = _PLUS.match(text, pos)
            if plus is None:
                raise _expected(text, pos, "'(+r mod m)' or ']'")
            plus_mod = _number(plus, 2)
            residue = _number(plus, 1, plus_mod)
            exponent = int(plus[3] + plus[4]) if plus[4] else 1
            plus_factors.append(PlusFactor(residue, plus_mod, exponent))
            pos = plus.end()
        pos = close.end()
    if _END.match(text, pos) is None:
        raise _expected(text, pos, "end of spec")

    exps = [0] * modulus
    if classes is not None:
        for residue in _INT.finditer(text, classes.start(1), classes.end(1)):
            exps[_number(residue, 0, modulus)] -= 1
    return PeriodicProduct(modulus, tuple(exps), -n_all, -n_odd, tuple(plus_factors))


def residue_class_text(modulus: int, multiplicities: Sequence[int]) -> str:
    """Render generating classes as spec text, e.g. ``"2,3 mod 5"``.

    ``multiplicities[r]`` is the number of generating factors (1 - q^j)^-1
    for the class j = r (mod modulus); entries must be nonnegative.
    """
    if modulus < 1 or len(multiplicities) != modulus:
        raise ValueError("need one multiplicity per residue class")
    if any(m < 0 for m in multiplicities):
        raise ValueError("class multiplicities must be nonnegative")
    labels = [str(r) for r in range(modulus) for _ in range(multiplicities[r])]
    return f"{','.join(labels)} mod {modulus}" if labels else f"mod {modulus}"
