"""Expression parser: text -> exact localized element, evaluated as it is read.

Grammar (standard precedence, ^ binds tightest, then unary minus, then
* and / left-associatively, then + and -):

    expr     := term (("+" | "-") term)*
    term     := unary (("*" | "/") unary)*
    unary    := "-" unary | power
    power    := atom ("^" exponent)?
    exponent := "-"? INT | "(" "-"? INT ")"
    atom     := INT | IDENT | "(" expr ")"

Exponents must be integer literals of absolute value at most
``MAX_EXPONENT``, so that one short expression cannot ask for an unbounded
power, and no integer literal may have more than ``MAX_LITERAL_DIGITS``
digits.  Division is resolved against the declared multiplicative set: the
divisor must be a unit of the localization or divide the numerator exactly.

Each grammar rule returns the value of the text it read, left operand
before right; there is no syntax tree.  A text with several faults thus
reports the first in reading order (``1/(z+tau) +`` fails on its
denominator, not on the dangling ``+``), but a character outside the token
set comes first wherever it stands: the text is tokenized whole.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from .errors import ExpressionError, ReductionError
from .fracs import FactoredFraction, FactorSet, factored_sum

MAX_EXPONENT = 64
MAX_LITERAL_DIGITS = 1000

# --- Tokenizer ---------------------------------------------------------------

_TOKEN_RE = re.compile(r"\s*(?:(?P<int>\d+)|(?P<ident>[A-Za-z_][A-Za-z0-9_]*)|(?P<op>[-+*/^()]))")


@dataclass(frozen=True)
class _Token:
    kind: str  # "int" | "ident" | "op" | "end"
    text: str
    pos: int


def _tokenize(text: str) -> list[_Token]:
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if not m or m.end() == pos:
            stripped = text[pos:].lstrip()
            if not stripped:
                break
            raise ExpressionError(f"unexpected character {stripped[0]!r} at position {pos}")
        if m.group("int") is not None:
            tokens.append(_Token("int", m.group("int"), m.start("int")))
        elif m.group("ident") is not None:
            tokens.append(_Token("ident", m.group("ident"), m.start("ident")))
        else:
            tokens.append(_Token("op", m.group("op"), m.start("op")))
        pos = m.end()
    tokens.append(_Token("end", "", len(text)))
    return tokens


class _Parser:
    def __init__(self, text: str, factors: FactorSet):
        self.text = text
        self.factors = factors
        self.tokens = _tokenize(text)
        self.i = 0

    def peek(self) -> _Token:
        return self.tokens[self.i]

    def advance(self) -> _Token:
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expect_op(self, op: str):
        tok = self.advance()
        if tok.kind != "op" or tok.text != op:
            raise ExpressionError(f"expected {op!r} at position {tok.pos} in {self.text!r}")

    def parse(self) -> FactoredFraction:
        value = self.expr()
        tok = self.peek()
        if tok.kind != "end":
            raise ExpressionError(f"unexpected {tok.text!r} at position {tok.pos} in {self.text!r}")
        return value

    def expr(self) -> FactoredFraction:
        terms = [self.term()]
        while self.peek().kind == "op" and self.peek().text in "+-":
            op = self.advance().text
            rhs = self.term()
            terms.append(rhs if op == "+" else -rhs)
        return factored_sum(self.factors, terms)

    def term(self) -> FactoredFraction:
        value = self.unary()
        while self.peek().kind == "op" and self.peek().text in "*/":
            op = self.advance().text
            rhs = self.unary()
            if op == "*":
                value = value * rhs
            elif rhs.is_zero:
                raise ExpressionError("division by zero")
            else:
                try:
                    value = value / rhs
                except ReductionError as exc:
                    raise ExpressionError(str(exc)) from None
        return value

    def unary(self) -> FactoredFraction:
        tok = self.peek()
        if tok.kind == "op" and tok.text == "-":
            self.advance()
            return -self.unary()
        return self.power()

    def power(self) -> FactoredFraction:
        base = self.atom()
        tok = self.peek()
        if tok.kind != "op" or tok.text != "^":
            return base
        self.advance()
        exponent = self.exponent()
        if exponent < 0 and base.is_zero:
            raise ExpressionError("negative power of zero")
        try:
            return base ** exponent
        except ReductionError as exc:
            raise ExpressionError(str(exc)) from None

    def exponent(self) -> int:
        tok = self.peek()
        if tok.kind == "op" and tok.text == "(":
            self.advance()
            value = self._signed_int()
            self.expect_op(")")
            return value
        return self._signed_int()

    def _signed_int(self) -> int:
        sign = 1
        tok = self.peek()
        if tok.kind == "op" and tok.text == "-":
            self.advance()
            sign = -1
        tok = self.advance()
        if tok.kind != "int":
            raise ExpressionError(
                f"exponent must be an integer literal (position {tok.pos} in {self.text!r})"
            )
        # The length test comes first: int() refuses very long digit strings.
        if len(tok.text.lstrip("0")) > len(str(MAX_EXPONENT)) or int(tok.text) > MAX_EXPONENT:
            raise ExpressionError(
                f"exponent exceeds {MAX_EXPONENT} in absolute value "
                f"(position {tok.pos} in {self.text!r})"
            )
        return sign * int(tok.text)

    def atom(self) -> FactoredFraction:
        tok = self.advance()
        if tok.kind == "int":
            # Checked before int(), which refuses very long digit strings.
            if len(tok.text) > MAX_LITERAL_DIGITS:
                raise ExpressionError(
                    f"integer literal has more than {MAX_LITERAL_DIGITS} digits "
                    f"(position {tok.pos})"
                )
            return self.factors.constant(int(tok.text))
        if tok.kind == "ident":
            try:
                return self.factors.var(tok.text)
            except KeyError:
                raise ExpressionError(f"unknown variable {tok.text!r}") from None
        if tok.kind == "op" and tok.text == "(":
            value = self.expr()
            self.expect_op(")")
            return value
        raise ExpressionError(f"unexpected {tok.text!r} at position {tok.pos} in {self.text!r}")


def parse_expression(text: str, factors: FactorSet) -> FactoredFraction:
    """Parse and evaluate an expression over a localized ring."""
    return _Parser(text, factors).parse()
