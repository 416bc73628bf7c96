"""Text syntax for queries.

Example::

    Q(x, y) :- x -[(ab)*]-> y, y -[c*]-> x

- head: ``Q(v1, v2, ...)`` (possibly empty for Boolean queries), each
  variable an identifier of letters, digits and ``_``;
- body: comma-separated atoms ``u -[regex]-> v`` (the regex contains no
  ``]``, so a chained ``x -[a]-> y -[b]-> z`` is an error, not one atom);
- regexes use :mod:`repro.regular.parser` syntax;
- single-symbol shorthand: ``u -a-> v`` is ``u -[a]-> v``.
"""

import re

from repro.errors import QuerySyntaxError
from repro.queries.atoms import Atom
from repro.queries.crpq import CRPQ
from repro.regular.parser import parse_regex

_HEAD_RE = re.compile(r"^\s*\w+\s*\(([^)]*)\)\s*$")
_VARIABLE_RE = re.compile(r"\w+")
_ATOM_RE = re.compile(
    r"^\s*(?P<src>\w+)\s*-\s*(?:\[(?P<regex>[^\]]*)\]|(?P<label>\w+))\s*->\s*(?P<tgt>\w+)\s*$"
)


def parse_query(text):
    """Parse ``text`` into a :class:`CRPQ`.

    >>> q = parse_query("Q(x, y) :- x -[(ab)*]-> y, y -[c*]-> x")
    >>> str(q.query_class())
    'CRPQ'
    """
    if ":-" not in text:
        raise QuerySyntaxError(f"missing ':-' in query: {text!r}")
    head_text, body_text = text.split(":-", 1)
    head_match = _HEAD_RE.match(head_text)
    if not head_match:
        raise QuerySyntaxError(f"malformed head: {head_text!r}")
    head_vars = tuple(var.strip() for var in head_match.group(1).split(","))
    if head_vars == ("",):
        head_vars = ()
    for var in head_vars:
        if not _VARIABLE_RE.fullmatch(var):
            raise QuerySyntaxError(
                f"malformed head variable {var!r} in {head_text.strip()!r}"
            )
    atoms = []
    body_text = body_text.strip()
    if body_text:
        for part in _split_atoms(body_text):
            match = _ATOM_RE.match(part)
            if not match:
                raise QuerySyntaxError(f"malformed atom: {part!r}")
            if match.group("regex") is not None:
                language = parse_regex(match.group("regex"))
            else:
                language = parse_regex(match.group("label"))
            atoms.append(Atom(match.group("src"), language, match.group("tgt")))
    return CRPQ(head_vars, atoms, extra_variables=head_vars)


def _split_atoms(body_text):
    """Split on commas that are not inside [...] brackets.

    Every part must hold an atom: a leading, trailing or doubled comma
    is a syntax error, not an empty conjunct.
    """
    parts = []
    depth = 0
    current = []
    for ch in body_text:
        if ch == "[":
            depth += 1
        elif ch == "]":
            depth -= 1
        if ch == "," and depth == 0:
            parts.append("".join(current))
            current = []
        else:
            current.append(ch)
    parts.append("".join(current))
    if not all(part.strip() for part in parts):
        raise QuerySyntaxError(
            f"malformed body: empty atom (leading, trailing or doubled "
            f"comma) in {body_text!r}"
        )
    return parts
