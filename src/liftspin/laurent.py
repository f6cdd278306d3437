"""The JSON wire format of a Laurent polynomial in a, b, q and T.

A polynomial is a list of terms (e_a, e_b, e_q, c): the exponents of the
unit parameters a and b, of q (a formal square root of the prime) and a
nonzero integer coefficient, in canonical order, lexicographic on
(e_a, e_b, e_q).  The T-exponent is 0 in every term the package writes:
an expanded Euler factor gives its T-degree by the position of the
coefficient, and a witness states it next to the terms.

Each term goes out as {"e": [e_a, e_b, e_q, 0], "c": "<decimal>"}, so
coefficients of any size survive every JSON reader.  This module is the one
place that writes that layout: expanded coefficients, factored roots,
witnesses and eigenvalue constants all go through it.
"""

from __future__ import annotations

from typing import Iterable, Tuple

Term = Tuple[int, int, int, int]

# json_dict(terms) as json.dumps(..., indent=2) writes it two levels deep,
# as one entry of the "coeffs" list of an expanded factor
_INDENTED = '    {\n      "terms": [\n%s\n      ]\n    }'
_INDENTED_TERM = ('        {\n          "e": [\n            %d,\n            %d,\n'
                  '            %d,\n            0\n          ],\n          "c": "%d"\n        }')


def json_dict(terms: Iterable[Term]) -> dict:
    """{"terms": [...]} of terms (e_a, e_b, e_q, c) in canonical order."""
    return {"terms": [{"e": [e_a, e_b, e_q, 0], "c": str(c)} for e_a, e_b, e_q, c in terms]}


def indented_json(terms: Iterable[Term]) -> str:
    """json.dumps(json_dict(terms), indent=2) as an entry of a list nested
    two levels deep, indentation included; terms must not be empty."""
    return _INDENTED % ",\n".join([_INDENTED_TERM % term for term in terms])
