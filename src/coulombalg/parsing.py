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
The text is ASCII: any other character, a non-ASCII digit or space too, is
outside the grammar.

Each grammar rule returns the value of the text it read, left operand
before right; there is no syntax tree.  A text with several faults thus
reports the first in reading order (``1/(z+tau) +`` fails on its
denominator, not on the dangling ``+``), but a character outside the token
set comes first wherever it stands: the text is tokenized whole.

A term folds its products of numbers and variables into one coefficient
and Laurent monomial, and so its divisions by nonzero literals and
invertible variables.  Products commute and cannot fail, so only any other
division needs the value read so far: there the fold becomes a
``FactoredFraction`` and the division runs as written, as do powers of
literals and parentheses and negative powers of other variables.  The
terms are summed in one ``factored_sum``.
"""

from __future__ import annotations

import re
from fractions import Fraction
from typing import NamedTuple, Optional, Union

from .errors import ExpressionError, ReductionError
from .fracs import FactoredFraction, FactorSet, factored_sum

MAX_EXPONENT = 64
MAX_LITERAL_DIGITS = 1000

# --- Tokenizer ---------------------------------------------------------------

_TOKEN_RE = re.compile(
    r"\s*(?:(?P<int>\d+)|(?P<ident>[A-Za-z_][A-Za-z0-9_]*)|(?P<op>[-+*/^()])"
    r"|(?P<end>\Z)|(?P<bad>.))",
    re.ASCII,
)


class _Token(NamedTuple):
    kind: str  # "int" | "ident" | "op" | "end"
    text: str
    pos: int


def _tokenize(text: str) -> list[_Token]:
    tokens = []
    for m in _TOKEN_RE.finditer(text):
        kind = m.lastgroup
        if kind == "bad":
            raise ExpressionError(f"unexpected character {m[kind]!r} at position {m.start()}")
        tokens.append(_Token(kind, m[kind], m.start(kind)))
        if kind == "end":
            return tokens


class _Parser:
    def __init__(self, text: str, factors: FactorSet):
        self.text = text
        self.factors = factors
        self.table = factors.table
        self.tokens = _tokenize(text)
        self.i = 0

    def advance(self) -> _Token:
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def accept(self, ops: str) -> Optional[str]:
        """Consume the next token and return its text if it is one of ``ops``."""
        kind, text, _ = self.tokens[self.i]
        if kind == "op" and text in ops:
            self.i += 1
            return text
        return None

    def expect_op(self, op: str):
        tok = self.advance()
        if tok.kind != "op" or tok.text != op:
            raise ExpressionError(f"expected {op!r} at position {tok.pos} in {self.text!r}")

    def parse(self) -> FactoredFraction:
        value = self.expr()
        tok = self.tokens[self.i]
        if tok.kind != "end":
            raise ExpressionError(f"unexpected {tok.text!r} at position {tok.pos} in {self.text!r}")
        return value

    def expr(self) -> FactoredFraction:
        terms = []
        op = "+"
        while op:
            term = self.term(1 if op == "+" else -1)
            if term is not None:
                terms.append(term)
            op = self.accept("+-")
        return factored_sum(self.factors, terms)

    def term(self, sign: int) -> Optional[tuple]:
        """The term as a ``factored_sum`` term, or None when it is zero."""
        laurent = self.table.laurent
        num, den, exps = sign, 1, [0] * len(laurent)
        value = None  # the product of the operands not folded
        op = "*"
        while op:
            operand = self.unary()
            if type(operand) is tuple:
                c, pos, e = operand
                if op == "*":
                    num *= c
                    exps[pos] += e
                elif c and (laurent[pos] or not e):
                    den *= c
                    exps[pos] -= e
                else:
                    operand = self._folded_value(c, pos, e)
            if type(operand) is not tuple:
                if op == "*":
                    value = operand if value is None else value * operand
                elif operand.is_zero:
                    raise ExpressionError("division by zero")
                else:
                    try:
                        value = self._fold_times(num, den, exps, value) / operand
                    except ReductionError as exc:
                        raise ExpressionError(str(exc)) from None
                    num, den, exps = 1, 1, [0] * len(laurent)
            op = self.accept("*/")
        if not num:
            return None
        if value is None:
            return (Fraction(num, den), tuple(exps), {}, None)
        # A factor of the denominator that is a variable of the monomial
        # would divide the term's numerator, which factored_sum forbids.
        variables = self.factors.variables
        if any(exps[p] for idx, _ in value.denominator for p in variables[idx]):
            value = self._fold_times(num, den, exps, value)
            num, den, exps = 1, 1, [0] * len(laurent)
        powers = {idx: -e for idx, e in value.denominator}
        return (Fraction(num, den), tuple(exps), powers, value.numerator)

    def _folded_value(self, c: int, pos: int, e: int) -> FactoredFraction:
        exps = [0] * len(self.table)
        exps[pos] = e
        return self._fold_times(c, 1, exps, None)

    def _fold_times(self, num, den, exps, value) -> FactoredFraction:
        """num/den * the monomial exps, times value unless it is None."""
        if value is not None and num == den and not any(exps):
            return value
        fold = self.factors.from_polynomial(self.table.monomial(exps, Fraction(num, den)))
        return fold if value is None else value * fold

    def unary(self) -> Union[tuple[int, int, int], FactoredFraction]:
        """A folded operand, (c, pos, e) for c * variable[pos]^e with e = 0
        for a number, or the value of any other operand."""
        if self.accept("-"):
            operand = self.unary()
            if type(operand) is tuple:
                c, pos, e = operand
                return -c, pos, e
            return -operand
        return self.power()

    def power(self) -> Union[tuple[int, int, int], FactoredFraction]:
        tok = self.advance()
        if tok.kind == "int":
            # Checked before int(), which refuses very long digit strings.
            if len(tok.text) > MAX_LITERAL_DIGITS:
                raise ExpressionError(
                    f"integer literal has more than {MAX_LITERAL_DIGITS} digits "
                    f"(position {tok.pos})"
                )
            operand = int(tok.text), 0, 0
        elif tok.kind == "ident":
            try:
                operand = 1, self.table.index(tok.text), 1
            except KeyError:
                raise ExpressionError(f"unknown variable {tok.text!r}") from None
        elif tok.kind == "op" and tok.text == "(":
            operand = self.expr()
            self.expect_op(")")
        else:
            raise ExpressionError(f"unexpected {tok.text!r} at position {tok.pos} in {self.text!r}")
        if not self.accept("^"):
            return operand
        exponent = self.exponent()
        if type(operand) is tuple:
            _, pos, e = operand
            if e and (exponent >= 0 or self.table.laurent[pos]):
                return 1, pos, exponent
            operand = self._folded_value(*operand)
        if exponent < 0 and operand.is_zero:
            raise ExpressionError("negative power of zero")
        try:
            return operand ** exponent
        except ReductionError as exc:
            raise ExpressionError(str(exc)) from None

    def exponent(self) -> int:
        if self.accept("("):
            value = self._signed_int()
            self.expect_op(")")
            return value
        return self._signed_int()

    def _signed_int(self) -> int:
        sign = -1 if self.accept("-") else 1
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


def parse_expression(text: str, factors: FactorSet) -> FactoredFraction:
    """Parse and evaluate an expression over a localized ring."""
    return _Parser(text, factors).parse()
