"""Symbolic sigma-graded ladder-operator algebra.

An OperatorExpr is a finite sum of complex-weighted ladder strings carrying a
statistics grade sigma: +1 means like operators commute, -1 means they
anticommute.  Normal ordering rewrites every annihilator-creator adjacency via

    a(x) a+(y)  ->  sigma * a+(y) a(x)  +  delta(x, y)

until all creation operators stand left of all annihilation operators, then
sorts each block by the global mode order, accumulating sigma signs.  The
rewrite terminates because each step strictly reduces the number of
(annihilator, creator) inversions, and block sorting is a finite bubble sort.

Expressions are immutable values; every function returns a new expression.
Coefficients are complex floats, since rotation phases are generally
irrational, so two expressions are compared through ``expr_residual``, the
largest coefficient of their canonical difference, against a tolerance.
"""

from __future__ import annotations

import cmath
import numbers
import re
from collections import defaultdict
from dataclasses import dataclass
from typing import Sequence

from .modes import Mode

COEFF_TOL = 1e-12


def check_sigma(sigma: int) -> int:
    if sigma not in (1, -1):
        raise ValueError(f"sigma must be +1 or -1, got {sigma!r}")
    return sigma


@dataclass(frozen=True)
class LadderOp:
    """A single creation (dagger=True) or annihilation operator."""

    mode: Mode
    dagger: bool

    @property
    def sort_key(self) -> tuple[int, tuple[int, int]]:
        # creators before annihilators, then global mode order
        return (0 if self.dagger else 1, self.mode.sort_key)

    def adjoint(self) -> "LadderOp":
        return LadderOp(self.mode, not self.dagger)

    def __str__(self) -> str:
        return f"a{'+' if self.dagger else '-'}{self.mode}"


@dataclass(frozen=True)
class OperatorTerm:
    """coeff times an ordered product of ladder operators (empty = identity)."""

    coeff: complex
    factors: tuple[LadderOp, ...]

    def particle_shift(self) -> int:
        return sum(1 if f.dagger else -1 for f in self.factors)

    def __str__(self) -> str:
        if not self.factors:
            return f"({self.coeff})"
        return f"({self.coeff}) " + " ".join(str(f) for f in self.factors)


@dataclass(frozen=True)
class OperatorExpr:
    """A finite sum of terms, all sharing one statistics grade sigma."""

    sigma: int
    terms: tuple[OperatorTerm, ...]

    def __post_init__(self) -> None:
        check_sigma(self.sigma)

    # -- constructors ------------------------------------------------------

    @staticmethod
    def zero(sigma: int) -> "OperatorExpr":
        return OperatorExpr(sigma, ())

    @staticmethod
    def identity(sigma: int, coeff: complex = 1.0) -> "OperatorExpr":
        return OperatorExpr(sigma, (OperatorTerm(complex(coeff), ()),))

    @staticmethod
    def sum_of(sigma: int, parts) -> "OperatorExpr":
        """The sum of ``parts`` in order, built in one pass."""
        parts = tuple(parts)
        if any(part.sigma != sigma for part in parts):
            raise ValueError(f"mixed statistics grades in a sum of grade {sigma}")
        return OperatorExpr(sigma, tuple(t for part in parts for t in part.terms))

    @staticmethod
    def from_factors(sigma: int, factors: Sequence[LadderOp], coeff: complex = 1.0) -> "OperatorExpr":
        return OperatorExpr(sigma, (OperatorTerm(complex(coeff), tuple(factors)),))

    # -- algebra -----------------------------------------------------------

    def _require_same_grade(self, other: "OperatorExpr") -> None:
        if self.sigma != other.sigma:
            raise ValueError(f"mixed statistics grades: {self.sigma} vs {other.sigma}")

    def __add__(self, other: "OperatorExpr") -> "OperatorExpr":
        self._require_same_grade(other)
        return OperatorExpr(self.sigma, self.terms + other.terms)

    def __sub__(self, other: "OperatorExpr") -> "OperatorExpr":
        return self + (-other)

    def __neg__(self) -> "OperatorExpr":
        return (-1.0) * self

    def __mul__(self, other):
        if isinstance(other, OperatorExpr):
            self._require_same_grade(other)
            terms = tuple(
                OperatorTerm(a.coeff * b.coeff, a.factors + b.factors)
                for a in self.terms
                for b in other.terms
            )
            return OperatorExpr(self.sigma, terms)
        if isinstance(other, numbers.Complex):
            c = complex(other)
            return OperatorExpr(
                self.sigma, tuple(OperatorTerm(t.coeff * c, t.factors) for t in self.terms)
            )
        return NotImplemented

    def __rmul__(self, other):
        if isinstance(other, numbers.Complex):
            return self * other
        return NotImplemented

    def dagger(self) -> "OperatorExpr":
        """Formal adjoint: conjugate coefficients, reverse and flip factors."""
        return OperatorExpr(
            self.sigma,
            tuple(
                OperatorTerm(
                    t.coeff.conjugate(),
                    tuple(f.adjoint() for f in reversed(t.factors)),
                )
                for t in self.terms
            ),
        )

    def particle_shift(self) -> int | None:
        """Uniform creation-minus-annihilation count, or None if mixed/empty."""
        shifts = {t.particle_shift() for t in self.terms}
        if len(shifts) == 1:
            return shifts.pop()
        return None

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        return " + ".join(str(t) for t in self.terms)


def create(mode: Mode, sigma: int) -> OperatorExpr:
    return OperatorExpr.from_factors(check_sigma(sigma), (LadderOp(mode, True),))


def destroy(mode: Mode, sigma: int) -> OperatorExpr:
    return OperatorExpr.from_factors(check_sigma(sigma), (LadderOp(mode, False),))


# -- normal ordering -------------------------------------------------------


def _sorted_block(ops: Sequence[LadderOp], sigma: int) -> tuple[tuple[LadderOp, ...], float]:
    """Sort one all-creator or all-annihilator block by mode order.

    Returns (sorted ops, sign).  Sign is sigma**(number of transpositions);
    for sigma=-1 a repeated mode makes the whole block vanish (sign 0).
    """
    lst = list(ops)
    swaps = 0
    for i in range(1, len(lst)):
        j = i
        while j > 0 and lst[j - 1].mode.sort_key > lst[j].mode.sort_key:
            lst[j - 1], lst[j] = lst[j], lst[j - 1]
            swaps += 1
            j -= 1
    if sigma == -1:
        for a, b in zip(lst, lst[1:]):
            if a.mode == b.mode:
                return tuple(lst), 0.0
        return tuple(lst), (-1.0) ** swaps
    return tuple(lst), 1.0


def _normal_order_term(
    coeff: complex, factors: tuple[LadderOp, ...], sigma: int
) -> dict[tuple[LadderOp, ...], complex]:
    out: dict[tuple[LadderOp, ...], complex] = defaultdict(complex)
    stack = [(coeff, factors)]
    while stack:
        c, fs = stack.pop()
        inv = next(
            (i for i in range(len(fs) - 1) if not fs[i].dagger and fs[i + 1].dagger),
            None,
        )
        if inv is None:
            split = next((i for i, f in enumerate(fs) if not f.dagger), len(fs))
            dag, sign_d = _sorted_block(fs[:split], sigma)
            ann, sign_a = _sorted_block(fs[split:], sigma)
            sign = sign_d * sign_a
            if sign:
                out[dag + ann] += c * sign
            continue
        a, b = fs[inv], fs[inv + 1]
        stack.append((c * sigma, fs[:inv] + (b, a) + fs[inv + 2:]))
        if a.mode == b.mode:
            stack.append((c, fs[:inv] + fs[inv + 2:]))
    return out


def _term_sort_key(item):
    factors = item[0]
    return (len(factors), tuple(f.sort_key for f in factors))


def normal_order(expr: OperatorExpr) -> OperatorExpr:
    """Canonical form: normal-ordered, block-sorted, like terms combined,
    exact-zero coefficients dropped.  The grade never changes."""
    combined: dict[tuple[LadderOp, ...], complex] = defaultdict(complex)
    for term in expr.terms:
        for key, c in _normal_order_term(term.coeff, term.factors, expr.sigma).items():
            combined[key] += c
    terms = tuple(
        OperatorTerm(c, key)
        for key, c in sorted(combined.items(), key=_term_sort_key)
        if c != 0
    )
    return OperatorExpr(expr.sigma, terms)


def expr_residual(a: OperatorExpr, b: OperatorExpr) -> float:
    """Largest coefficient magnitude of the canonical form of a - b; 0.0 when
    the two expressions are the same operator."""
    return max((abs(t.coeff) for t in normal_order(a - b).terms), default=0.0)


# -- plain-text expression syntax ------------------------------------------
#
# Ladder operators are written a+(site,twos_ms) / a-(site,twos_ms); factors
# within a term are joined with '*', terms with '+'/'-'; scalars may be plain
# numbers (2, 1.5, 2j) or parenthesized complex literals like (1+2j).

_TOKEN_RE = re.compile(
    r"\s*(?:"
    r"(?P<ladder>a(?P<dag>[+-])\(\s*(?P<site>-?\d+)\s*,\s*(?P<tm>-?\d+)\s*\))"
    r"|(?P<cplx>\((?P<inner>[^()]*)\))"
    r"|(?P<num>\d+(?:\.\d*)?(?:[eE][+-]?\d+)?[jJ]?|\.\d+[jJ]?)"
    r"|(?P<op>[+\-*])"
    r")"
)


def _tokenize(text: str) -> list:
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None or m.end() == pos:
            raise ValueError(f"cannot parse expression at: {text[pos:pos+20]!r}")
        if m.group("ladder"):
            tokens.append(LadderOp(Mode(int(m.group("site")), int(m.group("tm"))), m.group("dag") == "+"))
        elif m.group("cplx") is not None:
            try:
                tokens.append(complex(m.group("inner").replace(" ", "")))
            except ValueError:
                raise ValueError(f"bad complex literal {m.group('cplx')!r}") from None
        elif m.group("num") is not None:
            tokens.append(complex(m.group("num")))
        else:
            tokens.append(m.group("op"))
        pos = m.end()
    return tokens


def parse_expr(text: str, sigma: int) -> OperatorExpr:
    """Parse the plain-text operator syntax into an OperatorExpr."""
    check_sigma(sigma)
    tokens = _tokenize(text)
    if not tokens:
        raise ValueError("empty expression")
    terms: list[OperatorTerm] = []
    i = 0
    first = True
    while i < len(tokens):
        if not first and tokens[i] not in ("+", "-"):
            raise ValueError(f"expected '+' or '-' between terms, got {tokens[i]!r}")
        sign = 1.0
        while i < len(tokens) and tokens[i] in ("+", "-"):
            if tokens[i] == "-":
                sign = -sign
            i += 1
        if i >= len(tokens):
            raise ValueError("dangling sign in expression")
        coeff = complex(sign)
        factors: list[LadderOp] = []
        expect_factor = True
        while i < len(tokens):
            tok = tokens[i]
            if expect_factor:
                if isinstance(tok, LadderOp):
                    factors.append(tok)
                elif isinstance(tok, complex):
                    coeff *= tok
                else:
                    raise ValueError(f"expected a factor, got {tok!r}")
                expect_factor = False
                i += 1
            elif tok == "*":
                expect_factor = True
                i += 1
            else:
                break
        if expect_factor:
            raise ValueError("dangling '*' in expression")
        if not cmath.isfinite(coeff):
            raise ValueError(f"term {len(terms) + 1} has a coefficient that is not finite: {coeff!r}")
        terms.append(OperatorTerm(coeff, tuple(factors)))
        first = False
    return OperatorExpr(sigma, tuple(terms))
