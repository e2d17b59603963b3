"""Canonical deterministic text and JSON forms of ring elements.

Terms print in descending monomial order of the variable table; within a
term, variables follow the table order.  A fraction prints as
``(numerator) / (f1^k1 * f2)`` with the denominator factors in declared
order.  Printing then parsing is the identity on reduced elements.
"""

from __future__ import annotations

from fractions import Fraction

from .fracs import FactoredFraction
from .poly import ExactPolynomial, Monomial


def _monomial_str(table, mono: Monomial) -> str:
    parts = []
    for pos, exp in enumerate(mono):
        if exp == 0:
            continue
        name = table.names[pos]
        parts.append(name if exp == 1 else f"{name}^{exp}")
    return "*".join(parts)


def _term_str(table, mono: Monomial, coeff: Fraction) -> tuple[str, str]:
    """(sign, body) of one term, with the sign split off for joining.  The
    magnitude is written from the integer numerator and denominator."""
    num, den = coeff.numerator, coeff.denominator
    sign = "-" if num < 0 else "+"
    mag = str(abs(num)) if den == 1 else f"{abs(num)}/{den}"
    body = _monomial_str(table, mono)
    if not body:
        return sign, mag
    if mag == "1":
        return sign, body
    return sign, f"{mag}*{body}"


def format_polynomial(p: ExactPolynomial) -> str:
    if p.is_zero:
        return "0"
    chunks = []
    for i, (mono, coeff) in enumerate(p.sorted_terms()):
        sign, body = _term_str(p.table, mono, coeff)
        if i == 0:
            chunks.append(body if sign == "+" else f"-{body}")
        else:
            chunks.append(f" {sign} {body}")
    return "".join(chunks)


def _factor_str(factor: ExactPolynomial, power: int) -> str:
    if len(factor.terms) == 1 and next(iter(factor.terms.values())) == 1:
        base = _monomial_str(factor.table, next(iter(factor.terms)))
    else:
        base = f"({format_polynomial(factor)})"
    return base if power == 1 else f"{base}^{power}"


def format_fraction(f: FactoredFraction) -> str:
    if f.is_polynomial:
        return format_polynomial(f.numerator)
    if len(f.denominator) == 1 and f.denominator[0][1] == 1:
        den = format_polynomial(f.factors.factors[f.denominator[0][0]])
    else:
        den = " * ".join(
            _factor_str(f.factors.factors[idx], power) for idx, power in f.denominator
        )
    return f"({format_polynomial(f.numerator)}) / ({den})"


def format_element(f) -> str:
    if isinstance(f, ExactPolynomial):
        return format_polynomial(f)
    return format_fraction(f)


# --- JSON forms ---------------------------------------------------------------


def table_json(table) -> dict:
    return {
        "variables": list(table.names),
        "invertible": [n for n, flag in zip(table.names, table.laurent) if flag],
    }


def polynomial_json(p: ExactPolynomial) -> dict:
    return {
        "terms": [
            {
                "exponents": list(mono),
                "num": str(coeff.numerator),
                "den": str(coeff.denominator),
            }
            for mono, coeff in p.sorted_terms()
        ]
    }


def fraction_json(f: FactoredFraction) -> dict:
    return {
        "numerator": polynomial_json(f.numerator),
        "denominator": [
            {"factor": idx, "power": power} for idx, power in f.denominator
        ],
        "text": format_fraction(f),
    }


def element_json(f) -> dict:
    if isinstance(f, ExactPolynomial):
        return {
            "numerator": polynomial_json(f),
            "denominator": [],
            "text": format_polynomial(f),
        }
    return fraction_json(f)


def factors_json(factors) -> list:
    return [format_polynomial(f) for f in factors.factors]
