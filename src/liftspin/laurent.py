"""The JSON wire format of a Laurent polynomial in a, b, q and T, and the
package's one writer of indent-2 JSON.

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

`dumps` writes the bytes of json.dumps(value, indent=2) without json's
pure-Python encoder, each `json_dict` polynomial from one term template
per depth.  `coefficient_text` (one expanded coefficient from rows of
packed slots, each distinct row formatted once) and `root_template` (one
root) cut the same template; depth None is json.dumps's compact layout,
for the `--format text` lines.
"""

from __future__ import annotations

import math
from functools import lru_cache
from itertools import compress
from json.encoder import encode_basestring_ascii as _string
from operator import add
from typing import Iterable, Optional, Sequence, Tuple

Term = Tuple[int, int, int, int]


class _Poly(dict):
    """{"terms": [...]} as json_dict makes it: ints and decimal strings only,
    so its templates write it exactly."""

    __slots__ = ()


def json_dict(terms: Iterable[Term]) -> dict:
    """{"terms": [...]} of terms (e_a, e_b, e_q, c) in canonical order."""
    return _Poly(terms=[{"e": [e_a, e_b, e_q, 0], "c": str(c)} for e_a, e_b, e_q, c in terms])


# -- layout --------------------------------------------------------------------

@lru_cache(maxsize=None)
def _container(depth: Optional[int]) -> Tuple[str, str, str]:
    """What json.dumps writes after the opening bracket of a nonempty
    container at `depth`, between two of its items and before its closing
    bracket: with indent=2, or without indent for None."""
    if depth is None:
        return "", ", ", ""
    pad = "\n" + "  " * depth
    return pad + "  ", "," + pad + "  ", pad


@lru_cache(maxsize=None)
def _layout(depth: Optional[int]) -> Tuple[str, str, str, str]:
    """A nonempty json_dict polynomial at `depth`: its text up to the first
    term, between two terms and after the last, and the term template, with
    %s for e_a, e_b, e_q, e_T and c."""
    poly, terms, term, exps = (_container(None if depth is None else depth + i)
                               for i in range(4))
    template = ('{' + term[0] + '"e": [' + exps[0] + exps[1].join(["%s"] * 4) + exps[2]
                + ']' + term[1] + '"c": "%s"' + term[2] + '}')
    return '{' + poly[0] + '"terms": [' + terms[0], terms[1], terms[2] + ']' + poly[2] + '}', template


@lru_cache(maxsize=None)
def root_template(depth: Optional[int]) -> str:
    """json_dict([(e_a, e_b, e_q, 1)]) at `depth`, with %s for e_a, e_b, e_q."""
    head, _, tail, term = _layout(depth)
    return head + term % ("%s", "%s", "%s", 0, 1) + tail


@lru_cache(maxsize=None)
def _row_layout(depth: Optional[int]) -> Tuple[str, str, str, str, str, str]:
    """_layout(depth) with the term template cut for rows of one (e_a, e_b):
    the row head with %s for e_a and e_b, the piece of one e_q (%s) up to
    the coefficient's sign, and the end of a term."""
    head, sep, tail, term = _layout(depth)
    cut = term.split("%s")
    return head, sep, tail, "%s".join(cut[:3]), "%s" + cut[3] + "0" + cut[4], cut[5]


def coefficient_text(negative: bool, qs: Sequence[int],
                     rows: Iterable[Tuple[int, int, memoryview]],
                     depth: Optional[int]) -> str:
    """json_dict(terms) at `depth` as dumps writes it, for nonempty terms of
    one sign given in canonical order as rows (e_a, e_b, cs), cs[i] the |c|
    of the term of e_q = qs[i] or 0 for none.  Rows with equal slots share
    one list of term strings, each written under its own row head."""
    head, sep, tail, row_head, q_piece, end = _row_layout(depth)
    sign = "-" if negative else ""
    pieces = [q_piece % q + sign for q in qs]
    out = []
    seen = {}
    for e_a, e_b, cs in rows:
        key = cs.tobytes()
        terms = seen.get(key)
        if terms is None:
            terms = seen[key] = list(map(add, compress(pieces, cs), map(str, filter(None, cs))))
        if terms:
            row = row_head % (e_a, e_b)
            out.append(row + (end + sep + row).join(terms) + end)
    return head + sep.join(out) + tail


# -- values --------------------------------------------------------------------

def dumps(value) -> str:
    """json.dumps(value, indent=2) of dicts with str keys, lists, tuples,
    str, int, bool, None and floats; TypeError on anything else, a key that
    is not a str included, rather than bytes json.dumps would not write."""
    return _dumps(value, 0)


def _dumps(value, depth: int) -> str:
    if isinstance(value, str):
        return _string(value)
    if isinstance(value, (list, tuple)):
        if not value:
            return "[]"
        opening, sep, closing = _container(depth)
        return "[" + opening + sep.join([_dumps(item, depth + 1) for item in value]) + closing + "]"
    if isinstance(value, dict):
        if not value:
            return "{}"
        if isinstance(value, _Poly) and value["terms"]:
            head, sep, tail, term = _layout(depth)
            return head + sep.join([term % (*t["e"], t["c"]) for t in value["terms"]]) + tail
        opening, sep, closing = _container(depth)
        return "{" + opening + sep.join([_key(key) + ": " + _dumps(item, depth + 1)
                                         for key, item in value.items()]) + closing + "}"
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    if isinstance(value, int):
        return int.__repr__(value)
    if isinstance(value, float):
        if math.isfinite(value):
            return float.__repr__(value)
        return "NaN" if value != value else "Infinity" if value > 0 else "-Infinity"
    raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


def _key(key) -> str:
    if not isinstance(key, str):
        raise TypeError(f"keys must be str, not {type(key).__name__}")
    return _string(key)
