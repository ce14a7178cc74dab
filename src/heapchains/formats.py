"""File formats: poset JSON, interval/box CSV, forest JSON.

Decimal coordinates are parsed exactly (as rationals), never through binary
floating point, so file-based inputs behave identically to in-memory exact
inputs.

Every number is read as a ratio (p, q) by one parser, ``_ratio``.  A text
without a decimal point goes to ``int()`` first, as (value, 1).  A plain
ASCII decimal such as ``-12.345`` skips ``Fraction``'s regex: it is the
integer ``-12345`` over ``10**3``, exactly what ``Fraction("-12.345")``
computes from the same digits.  Only texts no longer than the integer digit
limit take this route, so neither integer can exceed the limit where
``Fraction`` would not.  Every other text goes to ``Fraction`` itself (``_``
groups beside a point, exponents, ``p/q``, non-ASCII digits, ``5.``), so its
value and error message are the ones that constructor gives.  ``parse_exact``
returns the ratio's value: an int when it is integral, else a Fraction.

The interval and box CSV loaders build no ``Fraction``, ``Interval`` or
``Box`` per row; they return the int key columns of the file's values on
one scale as a lazy read-only sequence, ``poset._KeyedItems``, which builds
an item only when one is read (the solvers read its columns).  One reader,
``_columns``, makes every file's key columns: it checks every non-blank
line's comma count at once, joins the lines with ``,`` and splits that text
into one flat list of cells (no list per row), reads the cells by the first
of three tiers that takes them all, and checks order column by column.

1. ``int()`` reads every cell: the keys are those ints at scale 1.
2. Every cell has the first cell's d > 0 fraction digits and is a plain
   ASCII decimal, ``[-+]?[0-9]*\\.[0-9]{d}``, with no whitespace and no
   longer than the digit limit: one regex match over the joined text checks
   them all, and the keys are that text without its points, split and read
   by ``int()``, at scale ``10**d``, tier 3's keys for such a file.
3. ``poset._scale`` over each stripped cell's ``_ratio``: every other file,
   mixed precision included (a plain decimal's ratio is its digits over
   ``10**d``, so its key is its digits padded to the file's longest
   fraction), ``p/q``, exponents, ``_`` beside a point, non-ASCII digits
   and long fractions.

A file the reader refuses (a field count, a number or an order) has a bad
row.  The row pass, ``_row_error``, names the first one: it checks each row
(field count, numbers, then order) before the next, with the message the
item's constructor gives.

The poset loader pauses the garbage collector (if it is on) while it
parses and builds: ``json.loads`` makes one list per relation, and on a
wide poset those set off dozens of collections, most of them over objects
that die at the end of the load.

The permutation loader reads every line with ``int()`` at once, and runs
the line-by-line loop, which names the first bad line, only when that
fails.

Every file is written through one helper, ``_write_text``.  A poset goes
through ``json.dumps``; a witness forest's text, the one ``json.dumps``
would give, is rendered straight from its sorted ids, after every id and k
has been checked, so a forest the loader would refuse is never written.
"""

from __future__ import annotations

import json
import operator
import re
import sys
from collections import Counter
from fractions import Fraction
from itertools import repeat
from typing import Sequence

from .poset import (
    Box,
    Coord,
    CycleError,
    HeapForest,
    IdOutOfRange,
    Interval,
    Poset,
    _check_arity,
    _element_id,
    _exact_value,
    _KeyedItems,
    _row_item,
    _scale,
    poset_from_relations,
)

_EXPONENT = re.compile(r"e([-+]?\d+(?:_\d+)*)\s*\Z", re.IGNORECASE)  # Fraction's exponent
_PLAIN = re.compile(r"[-+]?[0-9]*\.?[0-9]+")  # a plain ASCII number, read without Fraction
# Comma-joined plain decimals, each with exactly d fraction digits: format with (d, d).
_UNIFORM = r"[-+]?[0-9]*\.[0-9]{%d}(?:,[-+]?[0-9]*\.[0-9]{%d})*"


class InputFormatError(ValueError):
    """Malformed input file; message names the file and line."""


def _digit_limit() -> int:
    # Python 3.10.0 to 3.10.6 lack the function; their int() has no limit (0).
    return getattr(sys, "get_int_max_str_digits", lambda: 0)()


def _ratio(text: str, limit: int) -> tuple[int, int]:
    """``parse_exact``'s value of ``text`` as (p, q), q > 0, not always in
    lowest terms; ``limit`` is the integer digit limit."""
    # int() accepts a subset of the strings Fraction() does, with the same
    # value, and is much faster; a decimal point would only make it raise.
    if "." not in text:
        try:
            return int(text), 1
        except ValueError:
            pass
    # A plain ASCII decimal, read as in the module docstring.
    if _PLAIN.fullmatch(text) and (not limit or len(text) <= limit):
        whole, _, frac = text.partition(".")
        return int(whole + frac), 10 ** len(frac)
    exponent = limit and ("e" in text or "E" in text) and _EXPONENT.search(text)
    if exponent and abs(int(exponent[1])) > limit + len(text):
        raise ValueError(f"exponent too large: the value exceeds the {limit}-digit limit")
    try:
        value = Fraction(text)
    except ZeroDivisionError:
        raise ValueError(f"zero denominator: {text!r}") from None
    if exponent or 0 < limit < len(text):  # else neither has more digits than text
        str(value.numerator), str(value.denominator)  # str() raises past the limit, as int() does
    return value.numerator, value.denominator


def parse_exact(text: str) -> Coord:
    """Exact numeric parse of a decimal string; integers stay ints.  As in
    ``int()``, more than ``sys.get_int_max_str_digits()`` digits in the numerator
    or denominator raise ValueError; an exponent is judged before its power."""
    return _exact_value(*_ratio(text, _digit_limit()))


def _read_text(path) -> str:
    """The whole file, decoded as UTF-8."""
    try:
        with open(path, encoding="utf-8") as handle:
            return handle.read()
    except UnicodeDecodeError as exc:
        raise InputFormatError(f"{path}: not UTF-8: {exc}") from exc


def _lines(text: str) -> list[tuple[int, str]]:
    """(line number, stripped line) for each non-blank line of a file's text."""
    # Text mode turned \r\n and \r into \n; splitlines() would also split on
    # \f, \v and others, and line numbers would drift from an editor's.
    return [
        (lineno, line)
        for lineno, raw in enumerate(text.split("\n"), start=1)
        if (line := raw.strip())
    ]


def _json(path):
    text = _read_text(path)  # outside the try: its InputFormatError is a ValueError
    try:
        return json.loads(text)
    except ValueError as exc:  # JSONDecodeError, or an integer past the digit limit
        raise InputFormatError(f"{path}: invalid JSON: {exc}") from exc
    except RecursionError as exc:
        raise InputFormatError(f"{path}: invalid JSON: nested too deeply") from exc


def _columns(text: str, fields: int, limit: int) -> tuple[list[list[int]], int]:
    """The key columns and scale of a CSV text's ``fields``-field rows, read
    in one pass by the tiers of the module docstring.  Raises ValueError,
    naming no line, for a file with a bad row; ``_row_error`` names it."""
    lines = [*filter(str.strip, text.split("\n"))]
    if {*map(str.count, lines, repeat(","))} - {fields - 1}:
        raise ValueError("field count")
    joined = ",".join(lines)
    del lines
    cells = joined.split(",") if joined else []
    try:
        keys, scale = list(map(int, cells)), 1
    except ValueError:
        keys = None
    if keys is None:
        # Tier 2 in one pass when every cell has the first cell's d > 0 fraction digits.
        point = cells[0].find(".") + 1
        digits = point and len(cells[0]) - point
        if (digits and re.fullmatch(_UNIFORM % (digits, digits), joined)
                and not (limit and max(map(len, cells)) > limit)):
            keys, scale = list(map(int, joined.replace(".", "").split(","))), 10**digits
    del joined
    if keys is None:
        ratios, cells = [_ratio(cell.strip(), limit) for cell in cells], None
        keys, scale = _scale(ratios)
        del ratios
    del cells
    columns = [keys[c::fields] for c in range(fields)]
    del keys
    if any(any(map(operator.gt, low, high)) for low, high in zip(columns, columns[fields // 2:])):
        raise ValueError("order")
    return columns, scale


def _row_error(path, text: str, kind: type, fields: int, limit: int) -> InputFormatError | None:
    """The error naming the first bad line of ``path``'s CSV ``text``, or
    None when every row is good.  A row's field count, numbers and order are
    all checked before the next row is read."""
    half = fields // 2
    for lineno, line in _lines(text):
        row = line.split(",")
        if len(row) != fields:
            return InputFormatError(f"{path}:{lineno}: expected {fields} fields, got {len(row)}")
        try:
            row = [_ratio(field.strip(), limit) for field in row]
            # Low <= high on each axis, cross-multiplied: denominators are positive.
            for (p, q), (r, s) in zip(row, row[half:]):
                if p * s > r * q:
                    _row_item(kind, [_exact_value(*ratio) for ratio in row])  # raises its error
        except ValueError as exc:
            return InputFormatError(f"{path}:{lineno}: {exc}")
    return None


def _rows(path, kind: type, fields: int) -> Sequence:
    """The ``kind`` items of each line's ``fields`` comma-separated exact
    numbers, as key columns on the file's one scale.  A file ``_columns``
    refuses raises the error ``_row_error`` gives: each of its refusals (a
    field count, a ``_ratio`` error or an order) is a bad row."""
    text, limit = _read_text(path), _digit_limit()
    try:
        return _KeyedItems(kind, *_columns(text, fields, limit))
    except ValueError:
        pass  # outside this handler, the traceback frees the reader's lists
    raise _row_error(path, text, kind, fields, limit)


def load_intervals_csv(path) -> Sequence[Interval]:
    """One 'left,right' pair per line, as a lazy read-only sequence."""
    return _rows(path, Interval, 2)


def load_boxes_csv(path) -> Sequence[Box]:
    """One 'lx,ly,ux,uy' quadruple per line, as a lazy read-only sequence."""
    return _rows(path, Box, 4)


def load_permutation(path) -> list[int]:
    """One integer per line, the sequence pi(0), pi(1), ..."""
    text = _read_text(path)
    try:
        return list(map(int, filter(str.strip, text.split("\n"))))
    except ValueError:
        pass  # int() keeps some whitespace strip() removes, such as \x1c: not always an error
    values = []
    for lineno, line in _lines(text):
        try:
            values.append(int(line))
        except ValueError as exc:
            raise InputFormatError(f"{path}:{lineno}: not an integer: {line!r}") from exc
    return values


def load_poset_json(path) -> Poset:
    """{"n": int, "relations": [[i, j], ...]}; transitive closure applied on load.

    ``n`` and the ids must be JSON integers.  Shape and type errors raise
    InputFormatError; CycleError and IdOutOfRange keep their types.  The
    pairs go to ``poset_from_relations`` as parsed, which checks them in the
    same pass that builds the masks, with the collector paused (module
    docstring).
    """
    import gc

    collecting = gc.isenabled()
    if collecting:
        gc.disable()
    try:
        data = _json(path)
        try:
            return poset_from_relations(data["n"], data["relations"])
        except (CycleError, IdOutOfRange):
            raise
        except (KeyError, TypeError, ValueError) as exc:
            raise InputFormatError(
                f"{path}: expected {{'n': int, 'relations': [[i, j], ...]}}: {exc}"
            ) from exc
    finally:
        if collecting:
            gc.enable()


def _write_text(path, text: str) -> None:
    """The one file writer: ``text`` as UTF-8."""
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(text)


def save_poset_json(path, poset: Poset) -> None:
    relations = [list(p) for p in poset.pairs()]
    # json.dumps runs the C encoder; json.dump always runs the Python one.
    _write_text(path, json.dumps({"n": poset.n, "relations": relations}) + "\n")


def save_forest_json(path, forest: HeapForest) -> None:
    """{"k", "roots", "parent": {child: parent}}, the text ``json.dumps``
    gives, with roots and children ascending.  The text is rendered from the
    sorted ids, and the file is opened only after every id has passed
    ``_element_id`` (TypeError for bools, floats and strings) and k
    ``_check_arity`` (ValueError), so a refused forest leaves it untouched."""
    k, links = _check_arity(forest.k), forest.parent
    if {*map(type, links)} - {int} or {*map(type, links.values())} - {int, type(None)}:
        links = {_element_id(c): p if p is None else _element_id(p) for c, p in links.items()}
    ids = sorted(links)
    roots = ", ".join([str(c) for c in ids if links[c] is None])
    parent = ", ".join([f'"{c}": {links[c]}' for c in ids if links[c] is not None])
    _write_text(path, f'{{"k": {k}, "roots": [{roots}], "parent": {{{parent}}}}}\n')


def load_forest_json(path) -> HeapForest:
    """Inverse of save_forest_json.  Checks the shape of the file, that ids
    and k are integers with k >= 1 (child keys such as " 1" or "1_0", which
    ``int`` would coerce, are rejected), and that no node is listed twice as a
    root or both as a root and as a child; whether the forest is a valid
    partition of some poset is left to ``verify_forest``."""
    data = _json(path)
    try:
        roots = [_element_id(root) for root in data["roots"]]
        # Object keys are always strings in JSON: each must read back as the id it names.
        children = {int(child): _element_id(par) for child, par in data["parent"].items()}
        if list(map(str, children)) != list(data["parent"]):
            raise ValueError("child keys must be plain integer ids")
        k = _check_arity(data["k"])
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        raise InputFormatError(f"{path}: malformed forest JSON") from exc
    parent: dict[int, int | None] = dict.fromkeys(roots)
    if len(parent) < len(roots):
        twice = min(root for root, count in Counter(roots).items() if count > 1)
        raise InputFormatError(f"{path}: node {twice} is listed as a root twice")
    both = sorted(parent.keys() & children.keys())
    if both:
        raise InputFormatError(f"{path}: node {both[0]} is listed as a root and as a child")
    parent.update(children)
    return HeapForest(k, parent)
