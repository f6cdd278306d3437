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

`dumps` is the package's one JSON writer: the bytes of json.dumps(value,
indent=2) from depth 0, or of json.dumps(value) at depth None, the
compact layout of the `--format text` lines, without json's pure-Python
encoder; `euler` streams a factor cut from `dumps` with `container`.
`coefficient_text` writes a polynomial of one sign from rows of packed
slots, each distinct row formatted once: an expanded coefficient, or a
witness given to `dumps` as `Rows`, the runs `LocalFactor.runs` decodes.
It and `root_template` (one root) cut one term template at the same
depths; a `Records` list of same-shaped dicts (the beta table, verify's
reports, the eigenvalue rows) goes through one template too.
"""

from __future__ import annotations

import math
from functools import lru_cache
from itertools import compress
from typing import Iterable, Optional, Tuple

try:  # json's C accelerator: json.encoder would also load json's decoder
    from _json import encode_basestring_ascii as _string
except ImportError:  # an interpreter without it
    from json.encoder import encode_basestring_ascii as _string


class Rows(tuple):
    """(negative, runs): a polynomial of one sign as the decoded rows of a
    LocalFactor, `coefficient_text`'s runs (e_a, e_b, e_q, cs) with step 1."""
    __slots__ = ()


class Records(tuple):
    """(keys, rows): same-keyed dicts as flat tuples of values; a key
    (name, subkeys) holds a dict of scalars, its values in its place."""
    __slots__ = ()


# -- layout --------------------------------------------------------------------

def container(depth: Optional[int]) -> Tuple[str, str, str]:
    """What json.dumps writes after the opening bracket of a nonempty
    container at `depth`, between two of its items and before its closing
    bracket: with indent=2, or without indent for None."""
    if depth is None:
        return "", ", ", ""
    pad = "\n" + "  " * depth
    return pad + "  ", "," + pad + "  ", pad


def _layout(depth: Optional[int]) -> Tuple[str, str, str, str]:
    """A nonempty polynomial at `depth`: its text up to the first
    term, between two terms and after the last, and the term template, with
    %s for e_a, e_b, e_q, e_T and c."""
    poly, terms, term, exps = (container(None if depth is None else depth + i)
                               for i in range(4))
    template = ('{' + term[0] + '"e": [' + exps[0] + exps[1].join(["%s"] * 4) + exps[2]
                + ']' + term[1] + '"c": "%s"' + term[2] + '}')
    return '{' + poly[0] + '"terms": [' + terms[0], terms[1], terms[2] + ']' + poly[2] + '}', template


def root_template(depth: Optional[int]) -> str:
    """The polynomial 1 a^e_a b^e_b q^e_q at `depth`, with %s for e_a, e_b, e_q."""
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


def coefficient_text(negative: bool, step: int,
                     rows: Iterable[Tuple[int, int, int, memoryview]],
                     depth: Optional[int]) -> str:
    """A polynomial at `depth` as dumps writes it, for nonempty terms of one
    sign given in canonical order as rows (e_a, e_b, e_q, cs), cs[i] the
    |c| of the term of e_q + i step or 0 for none.  Rows with equal terms,
    keyed from their first nonzero slot, share one list of term strings,
    each written under its own row head, and the text is joined once."""
    head, sep, tail, row_head, q_piece, end = _row_layout(depth)
    term = q_piece + ("-" if negative else "") + "%s"
    out = []
    seen = {}
    for e_a, e_b, e_q, cs in rows:
        raw = cs.tobytes()
        body = raw.lstrip(b"\0")
        if not body:
            continue
        skip, size = len(raw) - len(body), cs.itemsize
        first = e_q + skip // size * step
        key = first, skip % size, body.rstrip(b"\0")
        terms = seen.get(key)
        if terms is None:
            cs = cs[skip // size:]
            qs = compress(range(first, first + len(cs) * step, step), cs)
            terms = seen[key] = list(map(term.__mod__, zip(qs, filter(None, cs))))
        row = row_head % (e_a, e_b)
        out += (sep, row, (end + sep + row).join(terms), end)
    # the first row's separator
    out[0] = head
    out.append(tail)
    return "".join(out)


# -- values --------------------------------------------------------------------

def dumps(value, depth: Optional[int] = 0) -> str:
    """json.dumps(value, indent=2) as written at `depth` inside a container,
    or json.dumps(value) for depth None, of dicts with str keys, lists,
    tuples, str, int, bool, None and floats, a Rows as its polynomial and a
    Records as its list of dicts; TypeError on anything else, a key that is
    not a str included, rather than bytes json.dumps would not write."""
    if isinstance(value, str):
        return _string(value)
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
    inner = None if depth is None else depth + 1
    if isinstance(value, Rows):
        negative, runs = value
        return coefficient_text(negative, 1, runs, depth) if runs else dumps({"terms": []}, depth)
    if isinstance(value, Records):
        keys, rows = value
        if not rows:
            return "[]"
        (opening, sep, closing), template = container(depth), _record(keys, inner)
        deeper = None if inner is None else inner + 1
        # %s writes an int as dumps does, so rows of ints alone are formatted as they are
        ints = all(set(map(type, column)) == {int} for column in zip(*rows))
        return "[" + opening + sep.join(map(template.__mod__, rows) if ints else [
            template % tuple([item if type(item) is int else dumps(item, deeper) for item in row])
            for row in rows]) + closing + "]"
    if isinstance(value, (list, tuple)):
        if not value:
            return "[]"
        opening, sep, closing = container(depth)
        return "[" + opening + sep.join([dumps(item, inner) for item in value]) + closing + "]"
    if isinstance(value, dict):
        if not value:
            return "{}"
        opening, sep, closing = container(depth)
        return "{" + opening + sep.join([_key(key) + ": " + dumps(item, inner)
                                         for key, item in value.items()]) + closing + "}"
    raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


def _record(keys, depth: Optional[int]) -> str:
    """The dict of `keys` (see Records) at `depth`, with %s for each value."""
    (opening, sep, closing), inner = container(depth), None if depth is None else depth + 1
    fields = [_key(name).replace("%", "%%") + ": " + ("%s" if sub is None else _record(sub, inner))
              for name, sub in ((key, None) if isinstance(key, str) else key for key in keys)]
    return "{" + opening + sep.join(fields) + closing + "}" if fields else "{}"


def _key(key) -> str:
    if not isinstance(key, str):
        raise TypeError(f"keys must be str, not {type(key).__name__}")
    return _string(key)
