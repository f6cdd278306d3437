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

from itertools import compress
from operator import add
from typing import Iterable, Sequence, Tuple

Term = Tuple[int, int, int, int]

# json_dict(terms) as json.dumps(..., indent=2) writes it two levels deep,
# as one entry of the "coeffs" list of an expanded factor: the head of a row
# of terms with one (e_a, e_b), then per term its e_q and sign, |c| and end
_INDENTED = '    {\n      "terms": [\n%s\n      ]\n    }'
_ROW_HEAD = '        {\n          "e": [\n            %d,\n            %d,\n            '
_TERM_Q = '%d,\n            0\n          ],\n          "c": "%s'
_TERM_END = '"\n        }'


def json_dict(terms: Iterable[Term]) -> dict:
    """{"terms": [...]} of terms (e_a, e_b, e_q, c) in canonical order."""
    return {"terms": [{"e": [e_a, e_b, e_q, 0], "c": str(c)} for e_a, e_b, e_q, c in terms]}


def indented_rows(negative: bool, qs: Sequence[int],
                  rows: Iterable[Tuple[int, int, Sequence[int]]]) -> str:
    """json.dumps(json_dict(terms), indent=2) as an entry of a list nested
    two levels deep, for terms of one sign given in canonical order as rows
    (e_a, e_b, cs), cs[i] the |c| of the term of e_q = qs[i] or 0 for none."""
    pieces = [_TERM_Q % (q, "-" if negative else "") for q in qs]
    out = []
    for e_a, e_b, cs in rows:
        terms = list(map(add, compress(pieces, cs), map(str, filter(None, cs))))
        if terms:
            head = _ROW_HEAD % (e_a, e_b)
            out.append(head + (_TERM_END + ",\n" + head).join(terms) + _TERM_END)
    return _INDENTED % ",\n".join(out)
