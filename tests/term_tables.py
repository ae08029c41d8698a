"""Explicit quartic and quintic discriminant expansions, kept as test oracles.

The term tables in ``discriminant_expansions.json`` list each monomial of the
16-term quartic and 59-term quintic discriminant as a coefficient and an
exponent vector over (a0, ..., an).  Evaluating them term by term over
Fractions is independent of the Sylvester/Bareiss route the package uses.
"""

import json
from fractions import Fraction
from pathlib import Path


def _load_term_tables() -> dict:
    path = Path(__file__).with_name("discriminant_expansions.json")
    with path.open("r", encoding="utf-8") as fh:
        raw = json.load(fh)
    return {
        name: tuple((term["coefficient"], tuple(term["exponents"])) for term in terms)
        for name, terms in raw.items()
    }


_TERM_TABLES = _load_term_tables()


def _evaluate_term_table(table, coeffs) -> Fraction:
    cs = [Fraction(v) for v in coeffs]
    total = Fraction(0)
    for coefficient, exponents in table:
        term = Fraction(coefficient)
        for c, e in zip(cs, exponents):
            if e:
                term *= c**e
        total += term
    return total


def discriminant_quartic_explicit(coeffs) -> Fraction:
    """Term-by-term evaluation of the 16-term quartic expansion."""
    assert len(coeffs) == 5, f"quartic expansion needs 5 coefficients, got {len(coeffs)}"
    return _evaluate_term_table(_TERM_TABLES["quartic"], coeffs)


def discriminant_quintic_explicit(coeffs) -> Fraction:
    """Term-by-term evaluation of the 59-term quintic expansion."""
    assert len(coeffs) == 6, f"quintic expansion needs 6 coefficients, got {len(coeffs)}"
    return _evaluate_term_table(_TERM_TABLES["quintic"], coeffs)
