import gc
import json
import os
import random
import re
import subprocess
import sys
import tempfile
import time
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from heapchains import (
    SimConfig,
    cli,
    estimate_scaling,
    formats,
    greedy_max_heapable_subset,
    greedy_partition_sequence,
    greedy_partition_set,
    run_process,
    simulate,
    verify_forest,
)
from heapchains.cli import run
from heapchains.greedy import _set_chain_count
from heapchains.poset import (
    Box,
    CycleError,
    HeapForest,
    IdOutOfRange,
    Interval,
    Poset,
    _scale,
    poset_from_relations,
)

from conftest import S1_PAIRS


@pytest.fixture
def s1_csv(tmp_path):
    path = tmp_path / "s1.csv"
    path.write_text("".join(f"{a},{b}\n" for a, b in S1_PAIRS))
    return str(path)


@pytest.fixture
def antichain5_json(tmp_path):
    path = tmp_path / "antichain5.json"
    path.write_text(json.dumps({"n": 5, "relations": []}))
    return str(path)


# Signs, empty whole parts ("-.5"), leading and trailing zeros: half the texts
# are plain ASCII decimals; the rest add "_" groups, non-ASCII digits
# (Arabic-Indic, Bengali, fullwidth), surrounding spaces and a missing point.
_signs = st.sampled_from(["", "-", "+"])
_ascii_digits = st.text(alphabet="0123456789", max_size=6)
_digit_runs = st.text(alphabet="0123456789" * 4 + "\u0661\u0663\u09e9\uff10", min_size=1, max_size=6)
_number_parts = st.one_of(st.just(""), st.lists(_digit_runs, min_size=1, max_size=3).map("_".join))
_padding = st.sampled_from(["", " ", "\t", "  "])
_decimal_texts = st.one_of(
    st.tuples(_signs, _ascii_digits, st.just("."), _ascii_digits),
    st.tuples(_padding, _signs, _number_parts, st.sampled_from(["", "."]), _number_parts, _padding),
).map("".join)


# Every text form the CSV loaders read: the texts above, p/q, exponents, and
# the keys past int64 of CI's huge.csv.
_exact_texts = st.one_of(
    _decimal_texts,
    st.builds("{}/{}".format, st.integers(-99, 99), st.integers(1, 40)),
    st.builds("{}e{}".format, st.integers(-99, 99), st.integers(-3, 3)),
    st.sampled_from([
        "18446744073709551616", "-9223372036854775809", "9223372036854775808",
        "9223372036854775809", "1/3",
    ]),
)


# CSV cells for the reader's three tiers: plain ASCII ints and decimals
# (tiers 1 and 2), ints past int64, and every form only tier 3 reads or
# the row pass rejects.
_plain_cells = st.one_of(
    st.integers(-(2**70), 2**70).map(str),
    st.tuples(_signs, _ascii_digits, st.just("."), _ascii_digits.filter(bool)).map("".join),
)
_any_cells = st.one_of(
    _plain_cells,
    _exact_texts,
    st.sampled_from([" 5 ", "1_000", "\u0663", "7/3", "5e-1", "5.", "-.5", "+0.250", "\x1c5",
                     "x", "1/0", "", "1 2"]),
)


def _in_order(row):
    """``row`` with each axis's low and high cells swapped where they parse
    out of order."""
    half = len(row) // 2
    try:
        values = [formats.parse_exact(cell) for cell in row]
    except ValueError:
        return row
    for c in range(half):
        if values[c] > values[c + half]:
            row[c], row[c + half] = row[c + half], row[c]
    return row


@st.composite
def _csv_texts(draw, fields):
    """A CSV file's text: rows of plain or of any cells, mostly in order and
    with ``fields`` fields, between blank and whitespace-only lines."""
    cells = draw(st.sampled_from([_plain_cells, _any_cells]))
    counts = st.integers(fields - 1, fields + 1) if draw(st.booleans()) else st.just(fields)
    lines = []
    for _ in range(draw(st.integers(0, 6))):
        if draw(st.integers(0, 4)) == 0:
            lines.append(draw(st.sampled_from(["", " ", "\t  "])))
            continue
        count = draw(counts)
        row = draw(st.lists(cells, min_size=count, max_size=count))
        lines.append(",".join(_in_order(row) if draw(st.integers(0, 5)) else row))
    return draw(st.sampled_from(["\n", "\r\n"])).join(lines) + draw(st.sampled_from(["", "\n"]))


_csv_files = st.sampled_from([2, 4]).flatmap(lambda fields: st.tuples(st.just(fields),
                                                                       _csv_texts(fields)))
_LIMIT = getattr(sys, "get_int_max_str_digits", lambda: 4300)() or 4300  # 4,300 where none


def _json_dumps_forest(forest):
    """The witness text as ``json.dumps`` writes it, kept as a reference for
    the direct writer: roots and children split over the sorted ids."""
    links, roots, parent = forest.parent, [], {}
    for child in sorted(links):
        par = links[child]
        if par is None:
            roots.append(child)
        else:
            parent[child] = par
    return json.dumps({"k": forest.k, "roots": roots, "parent": parent}) + "\n"


@st.composite
def _forests(draw):
    """A forest of distinct ids, some past 2**64 or negative, in a random
    dict order; each parent is None, another id or any int."""
    ids = draw(st.lists(st.integers(-(2**70), 2**70) | st.integers(0, 40), unique=True, max_size=30))
    links = st.none() | st.integers(-(2**70), 2**70)
    if ids:
        links |= st.sampled_from(ids)
    parents = draw(st.lists(links, min_size=len(ids), max_size=len(ids)))
    order = draw(st.permutations(range(len(ids))))
    return HeapForest(draw(st.integers(1, 9)), {ids[i]: parents[i] for i in order})


def _parses(text):
    try:
        formats.parse_exact(text)
    except ValueError:
        return False
    return True


def _typed_coords(*values):
    return [(value, type(value)) for value in values]


def _coords(item):
    return [item.left, item.right] if isinstance(item, Interval) else [*item.lower, *item.upper]


def _reference_load_poset_json(path):
    """The loader without the collector pause, kept as the reference: one
    ``json.loads`` of the whole text, then the pairs as parsed."""
    text = Path(path).read_text(encoding="utf-8")
    try:
        data = json.loads(text)
    except ValueError as exc:
        raise formats.InputFormatError(f"{path}: invalid JSON: {exc}") from exc
    try:
        return poset_from_relations(data["n"], data["relations"])
    except (CycleError, IdOutOfRange):
        raise
    except (KeyError, TypeError, ValueError) as exc:
        raise formats.InputFormatError(
            f"{path}: expected {{'n': int, 'relations': [[i, j], ...]}}: {exc}"
        ) from exc


def _outcome(load, path):
    """A loader's Poset, or the type and message of what it raised."""
    try:
        return load(path)
    except Exception as exc:
        return type(exc), str(exc)


@st.composite
def _relation_files(draw):
    """n and a list of pairs: mostly i < j below n, so most load; some ids
    are out of range, equal or past 2**64."""
    n = draw(st.integers(0, 12))
    ids = st.integers(0, max(n - 1, 0)) | st.integers(0, 2**70)
    pairs = draw(st.lists(st.tuples(ids, ids).map(sorted), max_size=30))
    return n, pairs


class TestFormats:
    @given(st.lists(st.lists(_exact_texts.filter(_parses), min_size=4, max_size=4), max_size=8))
    @example([  # CI's huge.csv as the intervals
        ["0", "18446744073709551616", "0.5", "1_000"],
        ["-9223372036854775809", "3", "7/3", " 5 "],
        ["9223372036854775808", "9223372036854775809", "1e3", "-0.25"],
        ["1/3", "2", "\u0663", "12.345"],
    ])
    @settings(max_examples=100, deadline=None)
    def test_loaders_match_parse_exact_field_by_field(self, rows):
        # Each row names an interval (its first two texts) and a box, every
        # axis ordered by value, so both files load.
        def ordered(*texts):
            return tuple(sorted(texts, key=formats.parse_exact))

        intervals = [ordered(row[0], row[1]) for row in rows]
        boxes = [(ordered(row[0], row[2]), ordered(row[1], row[3])) for row in rows]
        with tempfile.TemporaryDirectory() as tmp:
            iv_path, bx_path = Path(tmp, "iv.csv"), Path(tmp, "bx.csv")
            iv_path.write_text("".join(f"{a},{b}\n" for a, b in intervals), encoding="utf-8")
            bx_path.write_text(
                "".join(f"{lx},{ly},{ux},{uy}\n" for (lx, ux), (ly, uy) in boxes), encoding="utf-8"
            )
            loaded_intervals = formats.load_intervals_csv(iv_path)
            loaded_boxes = formats.load_boxes_csv(bx_path)
        assert len(loaded_intervals) == len(loaded_boxes) == len(rows)
        for item, texts in zip(loaded_intervals, intervals):
            want = [formats.parse_exact(text) for text in texts]
            assert item == Interval(*want)
            assert _typed_coords(item.left, item.right) == _typed_coords(*want)
        for i, ((lx, ux), (ly, uy)) in enumerate(boxes):
            box = loaded_boxes[i]
            want = [formats.parse_exact(text) for text in (lx, ly, ux, uy)]
            assert box == Box(tuple(want[:2]), tuple(want[2:]))
            assert _typed_coords(*box.lower, *box.upper) == _typed_coords(*want)

    def test_decimals_parse_exactly(self, tmp_path):
        path = tmp_path / "iv.csv"
        path.write_text("0.1,0.25\n2,3\n")
        items = formats.load_intervals_csv(path)
        assert items[0] == Interval(Fraction(1, 10), Fraction(1, 4))
        assert items[1] == Interval(2, 3)
        assert isinstance(items[1].left, int)

    def test_parse_exact_accepted_strings(self):
        for text, want in [("1_000", 1000), ("+5", 5), ("-0", 0), (" 7", 7), ("1e3", 1000)]:
            got = formats.parse_exact(text)
            assert got == want and type(got) is int, text
        got = formats.parse_exact("3.250")
        assert got == Fraction(13, 4) and type(got) is Fraction
        with pytest.raises(ValueError):
            formats.parse_exact("0x10")

    @pytest.mark.parametrize("text", ["1e5000", "1e-5000", "1e3000000"])
    def test_parse_exact_rejects_exponent_past_digit_limit(self, text):
        start = time.perf_counter()
        with pytest.raises(ValueError, match="digit limit"):
            formats.parse_exact(text)
        assert time.perf_counter() - start < 0.1  # decided before the power is computed

    def test_parse_exact_digit_limit(self):
        limit = sys.get_int_max_str_digits()
        assert formats.parse_exact(f"1e{limit - 1}") == 10 ** (limit - 1)
        assert formats.parse_exact(f"1e-{limit - 1}") == Fraction(1, 10 ** (limit - 1))
        got = formats.parse_exact("1." + "0" * limit)  # one past the plain-decimal route's length
        assert got == 1 and type(got) is int
        for text in (
            f"1e{limit}",
            f"1e-{limit}",
            f"0.1e{limit + 1}",
            "1." + "1" * limit,
            "0." + "0" * (limit - 1) + "1",
        ):
            with pytest.raises(ValueError):
                formats.parse_exact(text)
        sys.set_int_max_str_digits(0)  # no limit, as for int()
        try:
            assert formats.parse_exact("1e5000") == 10**5000
        finally:
            sys.set_int_max_str_digits(limit)

    def test_parse_exact_without_digit_limit_function(self, monkeypatch):
        # Python 3.10.0 to 3.10.6 have no sys.get_int_max_str_digits.
        monkeypatch.delattr(sys, "get_int_max_str_digits")
        assert formats.parse_exact("0.5") == Fraction(1, 2)
        assert formats.parse_exact("7/3") == Fraction(7, 3)
        got = formats.parse_exact("1e3")
        assert got == 1000 and type(got) is int

    @given(_decimal_texts)
    @example("1_.5")
    @example("1._5")
    @example("1.2.3")
    @example(".")
    @example("-.")
    @settings(max_examples=500)
    def test_parse_exact_agrees_with_fraction(self, text):
        try:
            want = Fraction(text)
        except ValueError as exc:
            with pytest.raises(ValueError) as info:
                formats.parse_exact(text)
            assert str(info.value) == str(exc)
            return
        got = formats.parse_exact(text)
        assert got == want
        assert type(got) is (int if want.denominator == 1 else Fraction)

    def test_blank_lines_skipped(self, tmp_path):
        path = tmp_path / "iv.csv"
        path.write_text("\n1,2\n\n3,4\n")
        assert len(formats.load_intervals_csv(path)) == 2

    def test_malformed_row_names_file_and_line(self, tmp_path):
        path = tmp_path / "iv.csv"
        path.write_text("1,2\n1,2,3\n")
        with pytest.raises(formats.InputFormatError, match=r"iv\.csv:2"):
            formats.load_intervals_csv(path)

    def test_bad_number_names_line(self, tmp_path):
        path = tmp_path / "iv.csv"
        path.write_text("1,2\nx,4\n")
        with pytest.raises(formats.InputFormatError, match=r"iv\.csv:2"):
            formats.load_intervals_csv(path)

    def test_interval_order_violation_names_line(self, tmp_path):
        path = tmp_path / "iv.csv"
        path.write_text("5,2\n")
        with pytest.raises(formats.InputFormatError, match=r"iv\.csv:1"):
            formats.load_intervals_csv(path)

    @pytest.mark.parametrize(
        "load, data, where",
        [
            (formats.load_intervals_csv, b"1,2\n1/0,3\n", ":2: zero denominator"),
            (formats.load_boxes_csv, b"0,0,1,1\n0,0,2,1/0\n", ":2: zero denominator"),
            (formats.load_intervals_csv, b"1,2\n\xff,3\n", ": not UTF-8"),
            (formats.load_boxes_csv, b"0,0,1,1\n\xff\n", ": not UTF-8"),
            (formats.load_permutation, b"0\n\xff\n", ": not UTF-8"),
            (formats.load_poset_json, b'{"n": 1, "relations": [], "\xff": 0}', ": not UTF-8"),
            (formats.load_forest_json, b'{"k": 1, "roots": [0], "parent": {"\xff": 0}}',
             ": not UTF-8"),
            (formats.load_poset_json, b"[" * 100_000 + b"]" * 100_000, ": invalid JSON"),
            (formats.load_forest_json, b'{"k": ' + b"[" * 100_000, ": invalid JSON"),
            (formats.load_forest_json, b'{"k": 1, "roots": [' + b"1" * 5000 + b'], "parent": {}}',
             ": invalid JSON: Exceeds the limit"),
        ],
        ids=["intervals-1/0", "boxes-1/0", "intervals-utf8", "boxes-utf8", "permutation-utf8",
             "poset-utf8", "forest-utf8", "poset-nested", "forest-nested",
             "forest-id-5000-digits"],
    )
    def test_unreadable_file_names_file(self, tmp_path, load, data, where):
        path = tmp_path / "bad"
        path.write_bytes(data)
        with pytest.raises(formats.InputFormatError) as info:
            load(path)
        assert str(info.value).startswith(f"{path}{where}")

    @pytest.mark.parametrize(
        "load, data, where",
        [
            (formats.load_intervals_csv, b"1,2\n5,2\n1/0,3\n",
             ":2: interval endpoints out of order: [5, 2]"),
            (formats.load_boxes_csv, b"0,0,1,1\n2,0,1,1\n0,0,1/0,1\n",
             ":2: box corners out of order: (2, 0) / (1, 1)"),
        ],
        ids=["intervals", "boxes"],
    )
    def test_first_bad_row_is_named_before_later_rows_parse(self, tmp_path, load, data, where):
        # Line 3 does not parse; line 2 is out of order and comes first.
        path = tmp_path / "bad"
        path.write_bytes(data)
        with pytest.raises(formats.InputFormatError) as info:
            load(path)
        assert str(info.value) == f"{path}{where}"

    @pytest.mark.skipif(not hasattr(sys, "get_int_max_str_digits"), reason="no digit limit")
    @pytest.mark.parametrize("load, row", [(formats.load_intervals_csv, "0,{}"),
                                           (formats.load_boxes_csv, "0,0,{},1")])
    def test_decimal_past_digit_limit_rejected(self, tmp_path, load, row):
        text = "1." + "1" * sys.get_int_max_str_digits()
        with pytest.raises(ValueError, match=r"^Exceeds the limit \(\d+ digits\)") as want:
            formats.parse_exact(text)
        path = tmp_path / "long.csv"
        path.write_text(row.format(1) + "\n" + row.format(text) + "\n")
        with pytest.raises(formats.InputFormatError) as info:
            load(path)
        assert str(info.value) == f"{path}:2: {want.value}"

    @given(_csv_files)
    @example((2, "1,2\r\n\r\n \t\r\n3,4\r\n"))  # CRLF, blank and whitespace-only lines
    @example((2, " 5 ,1_000\n-.5,+0.250\n"))
    @example((4, "\u0663,7/3,5e-1,5.\n"))
    @example((2, "\x1c5,6\n"))  # int() keeps \x1c, which strip() removes
    @example((4, "-9223372036854775809,0.5,18446744073709551616,12345678901234567890\n"))
    @example((2, "1,2.5\n-3.25,4\n"))  # int and decimal rows mixed
    @example((2, "0,1." + "1" * _LIMIT + "\n"))  # past tier 2's length
    # Each cell at the digit limit; padding the second's fraction to the first's passes it.
    @example((2, "0." + "1" * (_LIMIT - 2) + ",123456789012." + "1" * (_LIMIT - 13)))
    @example((2, "0.5" + "0" * (_LIMIT - 2) + ",0.6" + "0" * (_LIMIT - 2)))  # Fraction's 1/2, 3/5
    @example((2, "\u0663.5,4\n"))  # a decimal in non-ASCII digits is Fraction's 7/2
    @example((4, "x,0,1,1\n1,2,3,4,5\n"))  # a bad number, then a bad field count
    @example((4, "0,0,1,1\n2,0,1,1\n0,0,1/0,1\n"))  # out of order, then unparsable
    @example((2, "1,2\n9\n"))
    @example((4, ""))
    # Uniform fraction digits, read by tier 2's one pass: d = 1, d = 3 with signs.
    @example((2, "0.5,1.5\n0.2,0.9\n1.5,2.5\n"))
    @example((4, "0.125,1.250,2.500,3.000\n-.250,+0.250,-0.125,1.000\n"))
    @example((2, "-.5,+0.5\n"))
    @example((2, "5,5.250\n"))  # one cell without a point
    @example((2, "0.125,1.250\n2.5000,3.125\n"))  # one cell with d + 1 digits
    @example((2, "0.5" + "0" * _LIMIT + ",0.6" + "0" * _LIMIT))  # uniform, past the digit limit
    @example((2, " 1.5 , 7\n0.25,3.125 \n"))  # mixed precision, whitespace around cells
    @example((2, "-9223372036854775809,0.5\n0.25,18446744073709551616\n"))  # mixed, ints past int64
    @settings(max_examples=300, deadline=None)
    def test_bulk_route_matches_per_row_route(self, file):
        # The reader, _columns, against the row pass, _row_error, and the
        # per-cell _ratio keys.
        fields, text = file
        kind, load = (Interval, formats.load_intervals_csv) if fields == 2 else (
            Box, formats.load_boxes_csv)
        limit = formats._digit_limit()
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp, "f.csv")
            path.write_text(text, encoding="utf-8", newline="")
            read = formats._read_text(path)
            error = formats._row_error(path, read, kind, fields, limit)
            try:
                columns = formats._columns(read, fields, limit)
            except ValueError:
                columns = None
            try:
                got = load(path)
            except formats.InputFormatError as exc:
                got = str(exc)
        assert (error is None) == (columns is not None)
        if error is not None:
            assert str(error).startswith(f"{path}:") and got == str(error)  # the same line
            return
        cells = [cell.strip() for _, line in formats._lines(read) for cell in line.split(",")]
        keys, scale = _scale([formats._ratio(cell, limit) for cell in cells])
        want = [keys[c::fields] for c in range(fields)], scale
        assert columns == want
        assert ([list(column) for column in got._columns], got._scale) == want
        coords = [value for item in got for value in _coords(item)]
        assert _typed_coords(*coords) == _typed_coords(*map(formats.parse_exact, cells))

    def test_long_fraction_among_short_cells_loads_with_tier_3_keys(self, tmp_path):
        # One long fraction puts every short cell on its scale: tier 2's one
        # pass refuses the mixed precision, and tier 3 keys each cell.
        text = "0." + "1" * 1000 + ",1\n" + "1.5,2.5\n" * 100
        cells = [cell for line in text.split() for cell in line.split(",")]
        limit = formats._digit_limit()
        keys, scale = _scale([formats._ratio(cell, limit) for cell in cells])
        path = tmp_path / "long.csv"
        path.write_text(text)
        loaded = formats.load_intervals_csv(path)
        assert ([list(column) for column in loaded._columns], loaded._scale) == (
            [keys[0::2], keys[1::2]], scale)
        assert formats._columns("1.5,2.25\n", 2, limit) == ([[150], [225]], 100)

    def test_boxes_roundtrip(self, tmp_path):
        path = tmp_path / "bx.csv"
        path.write_text("0,0,1.5,2\n")
        box = formats.load_boxes_csv(path)[0]
        assert box.lower == (0, 0) and box.upper == (Fraction(3, 2), 2)

    def test_permutation_file(self, tmp_path):
        path = tmp_path / "perm.txt"
        path.write_text("1\n2\n0\n3\n")
        assert formats.load_permutation(path) == [1, 2, 0, 3]

    def test_permutation_file_skips_blank_lines_and_strips(self, tmp_path):
        path = tmp_path / "perm.txt"
        path.write_text("1\n \t\n\n 3 \n0\n\x1c2\n", newline="\r\n")  # int() keeps \x1c
        assert formats.load_permutation(path) == [1, 3, 0, 2]

    @pytest.mark.parametrize("data, where", [
        ("0\n\n1 2\n", ":3: not an integer: '1 2'"),
        ("0\n \nx\n1\n", ":3: not an integer: 'x'"),
    ], ids=["two-on-a-line", "not-a-number"])
    def test_permutation_bad_line_named(self, tmp_path, data, where):
        path = tmp_path / "perm.txt"
        path.write_text(data)
        with pytest.raises(formats.InputFormatError) as info:
            formats.load_permutation(path)
        assert str(info.value) == f"{path}{where}"

    def test_poset_json_closure_applied(self, tmp_path):
        path = tmp_path / "p.json"
        path.write_text(json.dumps({"n": 3, "relations": [[0, 1], [1, 2]]}))
        poset = formats.load_poset_json(path)
        assert poset.less(0, 2)

    def test_poset_json_malformed(self, tmp_path):
        path = tmp_path / "p.json"
        path.write_text("{nope")
        with pytest.raises(formats.InputFormatError):
            formats.load_poset_json(path)

    @pytest.mark.parametrize(
        "text",
        [
            '{"n": 3, "relations": [[0, 1.5]]}',
            '{"n": 3.7, "relations": []}',
            '{"n": 3, "relations": [["0", 1]]}',
            '{"n": 3, "relations": [[true, 2]]}',
            '{"n": "3", "relations": []}',
            '{"n": -1, "relations": []}',
            '{"n": 3, "relations": [[0, 1, 2]]}',
            '{"n": 3, "relations": [0, 1]}',
            '{"n": 3, "relations": 5}',
            '{"n": 3}',
            "[3, []]",
        ],
    )
    def test_poset_json_bad_shape_or_type(self, tmp_path, text):
        path = tmp_path / "p.json"
        path.write_text(text)
        with pytest.raises(formats.InputFormatError):
            formats.load_poset_json(path)

    def test_poset_json_relation_errors_keep_types(self, tmp_path):
        path = tmp_path / "p.json"
        path.write_text('{"n": 3, "relations": [[0, 1], [1, 2], [2, 0]]}')
        with pytest.raises(CycleError):
            formats.load_poset_json(path)
        path.write_text('{"n": 3, "relations": [[0, 3]]}')
        with pytest.raises(IdOutOfRange):
            formats.load_poset_json(path)

    def test_poset_json_roundtrip(self, tmp_path):
        poset = poset_from_relations(4, [(0, 1), (1, 3)])
        path = tmp_path / "p.json"
        formats.save_poset_json(path, poset)
        assert formats.load_poset_json(path) == poset

    def test_saved_json_text(self, tmp_path):
        path = tmp_path / "p.json"
        formats.save_poset_json(path, poset_from_relations(4, [(0, 1), (1, 3)]))
        expected = {"n": 4, "relations": [[0, 1], [0, 3], [1, 3]]}
        assert path.read_text() == json.dumps(expected) + "\n"
        path = tmp_path / "f.json"
        formats.save_forest_json(path, HeapForest(2, {3: None, 2: 0, 0: None, 1: 0}))
        expected = {"k": 2, "roots": [0, 3], "parent": {"1": 0, "2": 0}}
        assert path.read_text() == json.dumps(expected) + "\n"

    def test_forest_root_and_child_rejected(self, tmp_path):
        path = tmp_path / "f.json"
        path.write_text('{"k": 2, "roots": [0, 1], "parent": {"1": 0, "2": 0}}')
        with pytest.raises(formats.InputFormatError, match="node 1 is listed as a root"):
            formats.load_forest_json(path)

    @pytest.mark.parametrize("roots, twice", [("[0, 0]", 0), ("[3, 0, 3, 0]", 0), ("[5, 2, 5]", 5)])
    def test_forest_root_listed_twice_rejected(self, tmp_path, roots, twice):
        path = tmp_path / "f.json"
        path.write_text(f'{{"k": 2, "roots": {roots}, "parent": {{"1": 0}}}}')
        with pytest.raises(formats.InputFormatError) as info:
            formats.load_forest_json(path)
        assert str(info.value) == f"{path}: node {twice} is listed as a root twice"

    def test_forest_parent_list_rejected(self, tmp_path):
        path = tmp_path / "f.json"
        path.write_text('{"k": 2, "roots": [0], "parent": [[1, 0]]}')
        with pytest.raises(formats.InputFormatError, match="malformed forest JSON"):
            formats.load_forest_json(path)

    @pytest.mark.parametrize(
        "text",
        [
            '{"k": 2.7, "roots": [true, "3"], "parent": {"2": 0.9}}',
            '{"k": 0, "roots": [0], "parent": {}}',
            '{"k": 1, "roots": [0], "parent": {" 1": 0}}',
            '{"k": 1, "roots": [0], "parent": {"1_0": 0}}',
        ],
    )
    def test_forest_non_integer_ids_and_bad_k_rejected(self, tmp_path, text):
        path = tmp_path / "f.json"
        path.write_text(text)
        with pytest.raises(formats.InputFormatError):
            formats.load_forest_json(path)

    @given(_forests())
    @example(HeapForest(1, {}))
    @example(HeapForest(9, {i: None for i in range(5)}))  # all roots
    @example(HeapForest(2, {2**64 + 1: None, 2**64: 2**64 + 1, -3: 2**64, 7: -(2**70)}))
    @settings(max_examples=200, deadline=None)
    def test_forest_text_matches_json_dumps(self, forest):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp, "f.json")
            formats.save_forest_json(path, forest)
            assert path.read_bytes() == _json_dumps_forest(forest).encode()

    def test_forest_roundtrip_with_numpy_ids(self, tmp_path):
        forest = HeapForest(np.int64(2), {np.int64(3): np.int32(0), 0: None, np.int64(2): 3,
                                          1: np.int64(0)})
        path = tmp_path / "f.json"
        formats.save_forest_json(path, forest)
        assert formats.load_forest_json(path) == forest
        assert path.read_text() == '{"k": 2, "roots": [0], "parent": {"1": 0, "2": 3, "3": 0}}\n'

    @pytest.mark.parametrize("k, parent, error", [
        (1, {True: None}, TypeError),
        (1, {0: None, 2: True}, TypeError),
        (1, {1.0: None}, TypeError),
        (1, {0: None, 1: 0.0}, TypeError),
        (1, {"1": None}, TypeError),
        (1, {0: None, 1: "0"}, TypeError),
        (True, {0: None}, ValueError),
        (0, {0: None}, ValueError),
    ])
    def test_forest_with_non_integer_ids_leaves_file_untouched(self, tmp_path, k, parent, error):
        path = tmp_path / "f.json"
        path.write_text("kept\n")
        with pytest.raises(error):
            formats.save_forest_json(path, HeapForest(k, parent))
        assert path.read_text() == "kept\n"

    def test_forest_roundtrip(self, tmp_path):
        from heapchains import greedy_partition_sequence

        items = [Interval(a, b) for a, b in S1_PAIRS]
        _, forest, _ = greedy_partition_sequence(items, 2)
        path = tmp_path / "f.json"
        formats.save_forest_json(path, forest)
        loaded = formats.load_forest_json(path)
        assert loaded == forest
        data = json.loads(path.read_text())
        assert data["roots"] == [0, 1, 6]
        assert list(data["parent"]) == sorted(data["parent"], key=int)


class TestPosetJsonLoad:
    """``load_poset_json`` parses with the collector paused; every value and
    error must be the reference loader's."""

    @given(_relation_files())
    @example((0, []))
    @example((3, [[0, 1], [1, 2]]))
    @settings(max_examples=200, deadline=None)
    def test_dumped_files_load_as_reference(self, drawn):
        n, pairs = drawn
        with tempfile.TemporaryDirectory() as tmp:
            dumped = Path(tmp, "dumped.json")
            dumped.write_text(json.dumps({"n": n, "relations": pairs}))
            want = _outcome(_reference_load_poset_json, dumped)
            assert _outcome(formats.load_poset_json, dumped) == want
            if isinstance(want, Poset):
                saved = Path(tmp, "saved.json")
                formats.save_poset_json(saved, want)
                assert formats.load_poset_json(saved) == want

    @pytest.mark.parametrize("text", [
        '{"n": 3, "relations": [[01, 2]]}',
        '{"n": 03, "relations": [[0, 2]]}',
        '{"n": 3, "relations": [[, 2]]}',
        '{"n": 4, "relations": [[1 2, 3]]}',
        '{"n": 3, "relations": [[0, 1, 2]]}',
        '{"n": 30, "relations": [[1, 2]3]}',
        '{"n": 30, "relations": [[1, 2]3, [4, 5]]}',
        '{"n": 30, "relations": [[0, 1], 2[3, 4]]}',
        '{"n": 60, "relations": [5[1, 2]]}',
        '{"n": 3, "relations": [[0, 1],[1, 2]]}',
        '{"n": 3, "relations": [[0, \u0661]]}',
        '{"n": 3, "relations": []}',
        '{"n": 0, "relations": []}',
        ' \r\n{"n": 3, "relations": [[0, 2]]}\n\t',
        '\x0c{"n": 3, "relations": [[0, 2]]}',
        '{"n": 3, "relations": [[0, 2]]}\xa0',
        '{"n": 3, "relations": [[-1, 2]]}',
        '{"n": 3, "relations": [[0, 3]]}',
        '{"n": 3, "relations": [[1, 1]]}',
        '{"n": 3, "relations": [[0, 1], [1, 2], [2, 0]]}',
        '{"n":3,"relations":[[0,1],[1,2]]}',
        json.dumps({"n": 3, "relations": [[0, 1], [1, 2]]}, indent=1),
        '{"n": 3, "relations": [[0, 1]], "x": 1}',
        '{"x": 1, "n": 3, "relations": [[0, 1]]}',
        '{"n": 3, "relations": [[0, 1]], "relations": [[2, 1]]}',
        '\ufeff{"n": 3, "relations": [[0, 1]]}',
        '{"n": 100000000000000000000, "relations": [[0, 1]]}',
        '{"n": 3, "relations": [[0, ' + "1" * 5000 + ']]}',
        '{"n": ' + "1" * 5000 + ', "relations": []}',
        '{"n": 3, "relations": [[0, 1.0]]}',
        '{"n": 3.0, "relations": []}',
        '{"n": 3, "relations": [[true, 1]]}',
    ], ids=["leading-zero", "n-leading-zero", "empty-slot", "two-in-a-slot", "three-ids",
            "digit-after-last-pair", "digit-after-pair", "digit-before-pair",
            "digit-before-only-pair", "compact-pair-separator", "non-ascii-digit",
            "no-relations", "n-0", "whitespace", "form-feed-before", "nbsp-after",
            "negative-id", "id-n", "self-loop", "cycle", "compact", "indent-1", "extra-key",
            "leading-key", "duplicate-relations", "bom", "huge-n", "id-5000-digits",
            "n-5000-digits", "float-id", "float-n", "true-id"])
    def test_near_canonical_text_loads_as_reference(self, tmp_path, text):
        path = tmp_path / "p.json"
        path.write_text(text, encoding="utf-8")
        assert _outcome(formats.load_poset_json, path) == _outcome(
            _reference_load_poset_json, path)

    def test_dumped_file_sets_off_no_collection(self, tmp_path):
        # One list per relation would set off a young collection every few
        # hundred relations; the loader pauses the collector instead.
        pairs = [[i, j] for i in range(201) for j in range(i + 1, 201)][:20_000]
        path = tmp_path / "p.json"
        path.write_text(json.dumps({"n": 201, "relations": pairs}) + "\n")
        del pairs
        young = []

        def count(phase, info):
            if phase == "start" and info["generation"] == 0:
                young.append(info)

        gc.collect()
        gc.callbacks.append(count)
        try:
            poset = formats.load_poset_json(path)
        finally:
            gc.callbacks.remove(count)
        assert poset.less(0, 200)
        assert len(young) <= 1

    @pytest.mark.parametrize("text", ['{"n": 2, "relations": [[0, 1]]}', '{"n": 2}'])
    def test_collector_state_is_restored(self, tmp_path, text):
        path = tmp_path / "p.json"
        path.write_text(text)
        for collecting in (True, False):
            (gc.enable if collecting else gc.disable)()
            try:
                _outcome(formats.load_poset_json, path)
                assert gc.isenabled() == collecting
            finally:
                gc.enable()


class TestCliCommands:
    def test_intervals_seq_s1(self, capsys, s1_csv):
        assert run(["intervals-seq", "--k", "2", "--input", s1_csv]) == 0
        out = capsys.readouterr().out
        assert out.strip().splitlines()[-1] == "3"

    def test_kwidth_antichain(self, capsys, antichain5_json):
        assert run(["kwidth", "--k", "1", "--poset", antichain5_json]) == 0
        assert capsys.readouterr().out.strip().splitlines()[-1] == "5"

    def test_witness_roundtrips_and_verifies(self, capsys, s1_csv, tmp_path):
        witness = tmp_path / "w.json"
        assert run(["intervals-seq", "--k", "2", "--input", s1_csv, "--witness", str(witness)]) == 0
        forest = formats.load_forest_json(witness)
        items = formats.load_intervals_csv(s1_csv)
        from heapchains import poset_from_interval_sequence

        assert verify_forest(poset_from_interval_sequence(items), forest, 2)

    def test_trace_one_line_per_item(self, capsys, s1_csv):
        assert run(["intervals-seq", "--k", "2", "--input", s1_csv, "--trace"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == len(S1_PAIRS) + 1
        assert sum("new chain" in line for line in lines) == 3

    def test_intervals_set(self, capsys, tmp_path):
        path = tmp_path / "iv.csv"
        path.write_text("2,3\n0,1\n")
        assert run(["intervals-set", "--k", "1", "--input", str(path)]) == 0
        assert capsys.readouterr().out.strip().splitlines()[-1] == "1"

    def test_max_heapable(self, capsys, tmp_path):
        path = tmp_path / "iv.csv"
        path.write_text("1,2\n3,4\n5,6\n0,10\n")
        assert run(["max-heapable", "--k", "2", "--input", str(path)]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[-1] == "3"
        assert lines[0] == "subset: 0 1 2"

    def test_max_heapable_trace_shows_rejections(self, capsys, tmp_path):
        path = tmp_path / "iv.csv"
        path.write_text("0,5\n1,2\n6,7\n6,9\n")
        assert run(["max-heapable", "--k", "1", "--input", str(path), "--trace"]) == 0
        assert capsys.readouterr().out.splitlines() == [
            "subset: 1 2",
            "item 1: new chain",
            "item 0: rejected",
            "item 2: attached to 1 via slot 2",
            "item 3: rejected",
            "2",
        ]

    def test_permutation(self, capsys, tmp_path):
        path = tmp_path / "perm.txt"
        path.write_text("1\n2\n0\n3\n")
        assert run(["permutation", "--k", "2", "--input", str(path), "--trace"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines == [
            "item 1: new chain",
            "item 2: attached to 1 via slot 1",
            "item 0: new chain",
            "item 3: attached to 2 via slot 2",
            "2",
        ]
        assert run(["permutation", "--k", "2", "--input", str(path)]) == 0
        assert capsys.readouterr().out == "2\n"

    def test_permutation_builds_trace_only_when_asked(self, capsys, tmp_path, monkeypatch):
        path, witness = tmp_path / "perm.txt", tmp_path / "forest.json"
        path.write_text("1\n2\n0\n3\n")
        argv = ["permutation", "--k", "2", "--input", str(path), "--witness", str(witness)]
        assert run(argv) == 0
        want = capsys.readouterr().out, witness.read_bytes()

        def no_trace(*args):
            raise AssertionError("trace built without --trace")

        monkeypatch.setattr("heapchains.cli.best_fit_trace", no_trace)
        assert run(argv) == 0
        assert (capsys.readouterr().out, witness.read_bytes()) == want

    def test_trapezoid(self, capsys, tmp_path):
        path = tmp_path / "bx.csv"
        path.write_text("0,0,1,1\n2,2,3,3\n")
        assert run(["trapezoid", "--k", "1", "--input", str(path)]) == 0
        assert capsys.readouterr().out.strip().splitlines()[-1] == "1"

    def test_simulate_writes_csv(self, capsys, tmp_path):
        out = tmp_path / "sim.csv"
        argv = [
            "simulate", "--k", "2", "--n", "100", "--trials", "3",
            "--seed", "5", "--mode", "set", "--csv", str(out),
        ]
        assert run(argv) == 0
        first = out.read_bytes()
        first_stdout = capsys.readouterr().out
        assert run(argv) == 0
        assert out.read_bytes() == first
        assert capsys.readouterr().out == first_stdout

    def test_simulate_zero_arrivals(self, capsys, tmp_path):
        # No arrivals means no chains; the normalized count is undefined.
        for mode in ("seq", "set"):
            out = tmp_path / f"{mode}.csv"
            argv = ["simulate", "--k", "2", "--n", "0", "--trials", "3", "--mode", mode]
            assert run([*argv, "--csv", str(out)]) == 0
            lines = capsys.readouterr().out.splitlines()
            assert lines == ["mean count 0 over 3 trials (stderr 0)", "nan"]
            rows = out.read_text(encoding="utf-8").splitlines()
            assert rows[1:] == [f"{trial},0,2,{mode},0,nan" for trial in range(3)]

    def test_oracle_subcommands(self, capsys, tmp_path, antichain5_json):
        iv = tmp_path / "iv.csv"
        iv.write_text("1,2\n3,4\n5,6\n0,10\n")
        assert run(["oracle", "--what", "kwidth", "--k", "2", "--poset", antichain5_json]) == 0
        assert capsys.readouterr().out.strip() == "5"
        assert run(["oracle", "--what", "antichain", "--poset", antichain5_json]) == 0
        assert capsys.readouterr().out.strip() == "5"
        assert run(["oracle", "--what", "maxheap", "--k", "2", "--input", str(iv)]) == 0
        assert capsys.readouterr().out.strip() == "3"
        assert run(["oracle", "--what", "clique", "--input", str(iv)]) == 0
        assert capsys.readouterr().out.strip() == "2"

    def test_crosscheck_passes(self, capsys):
        assert run(["crosscheck", "--trials", "12", "--seed", "7"]) == 0
        out = capsys.readouterr().out
        assert "sweep vs flow: 12 trials" in out and "all checks passed" in out
        assert "permutation greedy vs flow: 12 trials" in out
        assert "max-heapable vs oracle: 12 trials" in out

    def test_crosscheck_reports_count_mismatch(self, capsys, monkeypatch):
        def off_by_one(solve):
            def wrapped(*args):
                count, *rest = solve(*args)
                return (count + 1, *rest)

            return wrapped

        for name, solve, label in (
            ("greedy_partition_set", greedy_partition_set, "set greedy"),
            ("run_process", run_process, "process"),
        ):
            with monkeypatch.context() as patch:
                patch.setattr(f"heapchains.cli.{name}", off_by_one(solve))
                assert run(["crosscheck", "--trials", "12", "--seed", "7"]) == 1
            captured = capsys.readouterr()
            assert f"MISMATCH: {label} " in captured.err
            assert "all checks passed" not in captured.out

    def test_crosscheck_reports_matching_bound_mismatch(self, capsys, monkeypatch):
        monkeypatch.setattr(
            "heapchains.cli._set_chain_count", lambda *args: _set_chain_count(*args) + 1)
        assert run(["crosscheck", "--trials", "12", "--seed", "7"]) == 1
        captured = capsys.readouterr()
        pattern = r"MISMATCH: set greedy matching bound (\d+) != flow (\d+) \(trial \d+, k=[123]\)"
        found = [re.fullmatch(pattern, line) for line in captured.err.splitlines()]
        assert found and all(m and int(m[1]) == int(m[2]) + 1 for m in found)
        assert "all checks passed" not in captured.out

    def test_crosscheck_reports_max_heapable_mismatch(self, capsys, monkeypatch):
        def drop_a_leaf(items, k):  # still one valid chain, one item short
            _, forest, trace = greedy_max_heapable_subset(items, k)
            parent = dict(forest.parent)
            del parent[max(set(parent) - set(parent.values()))]
            return tuple(sorted(parent)), HeapForest(k, parent), trace

        monkeypatch.setattr("heapchains.cli.greedy_max_heapable_subset", drop_a_leaf)
        assert run(["crosscheck", "--trials", "12", "--seed", "7"]) == 1
        captured = capsys.readouterr()
        pattern = r"MISMATCH: max-heapable (\d+) != oracle (\d+) \(trial \d+, k=[123]\)"
        found = [re.fullmatch(pattern, line) for line in captured.err.splitlines()]
        assert len(found) == 12 and all(m and int(m[1]) == int(m[2]) - 1 for m in found)
        assert "all checks passed" not in captured.out

        def all_roots(items, k):  # the right size, but every item roots its own chain
            subset, forest, trace = greedy_max_heapable_subset(items, k)
            return subset, HeapForest(k, dict.fromkeys(forest.parent)), trace

        monkeypatch.setattr("heapchains.cli.greedy_max_heapable_subset", all_roots)
        assert run(["crosscheck", "--trials", "12", "--seed", "7"]) == 1
        err = capsys.readouterr().err
        assert "MISMATCH: max-heapable witness is not one valid chain" in err
        assert "!=" not in err

    def test_crosscheck_skips_repeated_points(self, capsys, monkeypatch):
        # Every other draw gains two equal point intervals, which have no
        # order: each family skips those trials and checks the rest.
        draws, oracle_calls = [], []
        real_draw, real_oracle = cli._random_intervals, cli.oracle_max_heapable

        def with_repeats(rng, n):
            draws.append(real_draw(rng, n))
            return draws[-1] + [Interval(1, 1)] * 2 if len(draws) % 2 else draws[-1]

        def counted_oracle(items, k):
            oracle_calls.append(items)
            return real_oracle(items, k)

        monkeypatch.setattr(cli, "_random_intervals", with_repeats)
        monkeypatch.setattr(cli, "oracle_max_heapable", counted_oracle)
        assert run(["crosscheck", "--trials", "12", "--seed", "7"]) == 0
        captured = capsys.readouterr()
        assert "max-heapable vs oracle: 12 trials" in captured.out
        assert "all checks passed" in captured.out and "MISMATCH" not in captured.err
        assert len(draws) == 24 and oracle_calls == draws[13::2]

    def test_crosscheck_checks_forked_trials(self, capsys, monkeypatch):
        # With two CPUs a worker runs the odd trials; giving only the forked
        # workers other draws must fail exactly those trials, in both modes.
        real, caller = simulate.trial_rng, os.getpid()

        def worker_off(seed, trial):
            return real(seed + (os.getpid() != caller), trial)

        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
        monkeypatch.setattr("heapchains.simulate.trial_rng", worker_off)
        assert run(["crosscheck", "--trials", "12", "--seed", "7"]) == 1
        lines = capsys.readouterr().err.splitlines()
        assert {line.split(" ", 3)[2] for line in lines} == {"seq", "set"}
        assert all(int(re.search(r"trial (\d+)", line)[1]) % 2 for line in lines)

    def test_crosscheck_rejects_invalid_witness(self, capsys, monkeypatch):
        def all_roots(items, k):  # the right count, but every item starts its own chain
            count, forest, trace = greedy_partition_sequence(items, k)
            return count, HeapForest(k, dict.fromkeys(forest.parent)), trace

        monkeypatch.setattr("heapchains.cli.greedy_partition_sequence", all_roots)
        assert run(["crosscheck", "--trials", "12", "--seed", "7"]) == 1
        err = capsys.readouterr().err
        assert "MISMATCH: sequence greedy witness" in err
        assert "!=" not in err

    def test_deterministic_stdout(self, capsys, s1_csv):
        run(["intervals-seq", "--k", "2", "--input", s1_csv, "--trace"])
        first = capsys.readouterr().out
        run(["intervals-seq", "--k", "2", "--input", s1_csv, "--trace"])
        assert capsys.readouterr().out == first


class TestCliErrors:
    def test_usage_error_exit_1(self, capsys):
        assert run(["intervals-seq", "--k", "2"]) == 1  # missing --input
        assert run(["no-such-command"]) == 1
        assert run([]) == 1
        assert run(["intervals-seq", "--k", "0", "--input", "x.csv"]) == 1

    def test_help_exit_0(self, capsys):
        assert run(["--help"]) == 0
        assert run(["kwidth", "--help"]) == 0

    def test_missing_file_exit_2(self, capsys):
        assert run(["intervals-seq", "--k", "2", "--input", "/nonexistent.csv"]) == 2
        assert "error" in capsys.readouterr().err

    def test_malformed_file_exit_2_names_line(self, capsys, tmp_path):
        path = tmp_path / "iv.csv"
        path.write_text("1,2\nbroken\n")
        assert run(["intervals-seq", "--k", "2", "--input", str(path)]) == 2
        assert "iv.csv:2" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv, name, data, where",
        [
            (["intervals-seq", "--k", "2", "--input"], "iv.csv", b"1,2\n1/0,3\n",
             ":2: zero denominator"),
            (["trapezoid", "--k", "1", "--input"], "bx.csv", b"0,0,1,1\n\xff\n", ": not UTF-8"),
            (["kwidth", "--k", "1", "--poset"], "p.json", b"[" * 100_000, ": invalid JSON"),
            (["permutation", "--k", "1", "--input"], "perm.txt", b"0\nx\n",
             ":2: not an integer: 'x'\n"),
            (["trapezoid", "--k", "1", "--input"], "boxes.csv", b"0,0,1,1\n2,0,1,1\n",
             ":2: box corners out of order: (2, 0) / (1, 1)\n"),
        ],
        ids=["zero-denominator", "not-utf8", "nested-json", "not-an-integer", "box-corners"],
    )
    def test_unreadable_file_exit_2(self, capsys, tmp_path, argv, name, data, where):
        path = tmp_path / name
        path.write_bytes(data)
        assert run(argv + [str(path)]) == 2
        assert capsys.readouterr().err.startswith(f"error: {path}{where}")

    @pytest.mark.parametrize(
        "argv, name, data",
        [
            (["intervals-seq", "--trace", "--k", "1", "--input"], "iv.csv", b"0,1e5000\n"),
            (["kwidth", "--k", "1", "--poset"], "p.json",
             b'{"n": 100000000000000000000, "relations": []}'),
            (["kwidth", "--k", "1", "--poset"], "p.json",
             b'{"n": 3, "relations": [[0, ' + b"1" * 5000 + b"]]}"),
        ],
        ids=["exponent", "poset-n", "poset-id-5000-digits"],
    )
    def test_huge_number_exit_2(self, capsys, tmp_path, argv, name, data):
        path = tmp_path / name
        path.write_bytes(data)
        assert run(argv + [str(path)]) == 2
        assert capsys.readouterr().err.startswith(f"error: {path}")

    def test_non_bijection_exit_2_names_first_bad_value(self, capsys, tmp_path):
        path = tmp_path / "perm.txt"
        path.write_text("0\n" * 5000)
        assert run(["permutation", "--k", "2", "--input", str(path), "--trace"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "error: not a bijection on 0..4999: value 0 at position 1 repeats position 0\n"
        )

    def test_cyclic_poset_exit_2(self, capsys, tmp_path):
        path = tmp_path / "p.json"
        path.write_text(json.dumps({"n": 2, "relations": [[0, 1], [1, 0]]}))
        assert run(["kwidth", "--k", "1", "--poset", str(path)]) == 2

    def test_repeated_point_exit_2(self, capsys, tmp_path):
        intervals, boxes = tmp_path / "iv.csv", tmp_path / "bx.csv"
        intervals.write_text("2,2\n1,3\n2,2\n")
        boxes.write_text("1,2,1,2\n0,0,3,3\n1,2,1,2\n")
        for command, path in [("intervals-set", intervals), ("max-heapable", intervals),
                              ("trapezoid", boxes)]:
            assert run([command, "--k", "2", "--input", str(path)]) == 2
            assert "one point" in capsys.readouterr().err
        assert run(["intervals-seq", "--k", "2", "--input", str(intervals)]) == 0

    def test_negative_simulate_n_or_seed_is_usage_error(self, capsys):
        assert run(["simulate", "--k", "2", "--n", "-1", "--trials", "1"]) == 1
        assert run(["simulate", "--k", "2", "--n", "5", "--trials", "1", "--seed", "-1"]) == 1
        assert run(["crosscheck", "--trials", "1", "--seed", "-1"]) == 1
        assert "must be >= 0" in capsys.readouterr().err

    def test_poset_json_type_error_exit_2(self, capsys, tmp_path):
        path = tmp_path / "p.json"
        path.write_text(json.dumps({"n": 3, "relations": [[0, 1.5]]}))
        assert run(["kwidth", "--k", "1", "--poset", str(path)]) == 2
        assert "error:" in capsys.readouterr().err

    def test_internal_value_error_not_reported_as_input_error(self, capsys, monkeypatch, tmp_path):
        def broken(graph):
            raise ValueError("solver bug")

        monkeypatch.setattr("heapchains.flow.max_left_k_matching", broken)
        path = tmp_path / "p.json"
        path.write_text(json.dumps({"n": 2, "relations": [[0, 1]]}))
        with pytest.raises(ValueError, match="solver bug"):
            run(["kwidth", "--k", "1", "--poset", str(path)])
        assert "error:" not in capsys.readouterr().err

    def test_oracle_without_input_flag_exit_2(self, capsys):
        assert run(["oracle", "--what", "kwidth"]) == 2
        assert capsys.readouterr().err == "error: oracle kwidth needs --poset\n"

    def test_oracle_too_large_exit_2(self, capsys, tmp_path):
        path = tmp_path / "p.json"
        path.write_text(json.dumps({"n": 9, "relations": []}))
        assert run(["oracle", "--what", "kwidth", "--k", "1", "--poset", str(path)]) == 2


# Run in a fresh interpreter by TestImportFootprint: after each step, whether
# numpy is loaded and the last line of the step's output.
_FOOTPRINT_STEPS = """
import contextlib, io, json, sys
report = []
import heapchains, heapchains.cli
report.append(["import", "numpy" in sys.modules, None])
for argv in json.loads(sys.argv[1]):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        rc = heapchains.cli.run(argv)
    report.append([argv[0], "numpy" in sys.modules, [rc, out.getvalue().splitlines()[-1]]])
print(json.dumps(report))
"""

# Run in a fresh interpreter by TestImportFootprint: four threads make the
# first numpy-backed calls at once, right after the import.
_CONCURRENT_FIRST_USE = """
import json, sys, threading
import heapchains
from heapchains import SimConfig, estimate_scaling, greedy_partition_set, Interval
items = [Interval(a, b) for a, b in json.loads(sys.argv[1])]
barrier, results = threading.Barrier(4), [None] * 4
def work(slot):
    barrier.wait()
    count, forest, _ = greedy_partition_set(items, 2)
    stats = estimate_scaling(SimConfig(n=2000, k=2, trials=2, seed=3))
    results[slot] = [count, sorted(forest.parent.items()), list(stats.counts), stats.mean]
threads = [threading.Thread(target=work, args=(slot,)) for slot in range(4)]
for thread in threads:
    thread.start()
for thread in threads:
    thread.join()
print(json.dumps(results))
"""

# Run in a fresh interpreter by TestImportFootprint: one call forced to fork
# a worker (two CPUs, no arrival threshold); prints the forks it made, the
# executor modules it loaded and the threads alive after it.
_FORKED_CALL = """
import json, os, sys, threading
os.sched_getaffinity = lambda pid: {0, 1}
from heapchains import simulate
simulate._FORK_MIN_ARRIVALS = 0
forks, real_fork = [], os.fork
os.fork = lambda: forks.append(1) or real_fork()
config = simulate.SimConfig(n=200, k=2, trials=4, seed=3)
assert simulate.estimate_scaling(config).counts == tuple(simulate._trial_counts(config, 0, 1))
loaded = sorted({"multiprocessing", "concurrent.futures"} & set(sys.modules))
print(json.dumps([len(forks), loaded, threading.active_count()]))
"""


def _fresh_python(code: str, *args: str) -> str:
    """Stdout of ``code`` run in a new interpreter that imports heapchains from this tree."""
    import heapchains

    src = str(Path(heapchains.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    result = subprocess.run(
        [sys.executable, "-c", code, *args], env=env, capture_output=True, text=True, timeout=60
    )
    assert result.returncode == 0, result.stderr
    return result.stdout


class TestImportFootprint:
    def test_cli_imports_no_optional_packages(self):
        # sortedcontainers is no longer a dependency; scipy and networkx
        # would add their import time and memory to every CLI call, and no
        # call needs multiprocessing or concurrent.futures: simulation
        # workers are bare os.fork children (see test_simulate.py).
        code = (
            "import sys, heapchains.cli; "
            "print(sorted({'sortedcontainers', 'scipy', 'networkx', 'multiprocessing',"
            " 'concurrent.futures'} & set(sys.modules)))"
        )
        assert _fresh_python(code).strip() == "[]"

    def test_forked_call_loads_no_executor_and_starts_no_thread(self):
        # A bare os.fork per worker: no multiprocessing, no executor, and no
        # manager thread left behind.
        assert json.loads(_fresh_python(_FORKED_CALL)) == [1, [], 1]

    def test_cli_import_loads_no_dataclasses_or_inspect(self):
        # The records are built by poset._record: dataclasses would load
        # inspect, ast, dis and tokenize on every CLI call.  site may preload
        # modules of its own, so only what the import adds is compared.
        code = (
            "import sys; before = set(sys.modules); import heapchains.cli; "
            "print(sorted({'dataclasses', 'inspect'} & (set(sys.modules) - before)))"
        )
        assert _fresh_python(code).strip() == "[]"

    def test_numpy_loads_only_at_first_numpy_backed_call(self, tmp_path, s1_csv):
        # numpy's import is most of a cold CLI call; the poset-JSON path,
        # the poset oracles and --help never need it.
        poset = tmp_path / "p.json"
        poset.write_text(json.dumps({"n": 4, "relations": [[0, 1], [0, 2], [1, 3]]}))
        steps = [
            ["kwidth", "--k", "2", "--poset", str(poset), "--witness", str(tmp_path / "f.json")],
            ["oracle", "--what", "antichain", "--poset", str(poset)],
            ["oracle", "--what", "kwidth", "--k", "2", "--poset", str(poset)],
            ["--help"],
            ["intervals-seq", "--k", "2", "--input", s1_csv],
        ]
        report = json.loads(_fresh_python(_FOOTPRINT_STEPS, json.dumps(steps)))
        assert [(step, loaded) for step, loaded, _ in report] == [
            ("import", False),
            ("kwidth", False),
            ("oracle", False),
            ("oracle", False),
            ("--help", False),
            ("intervals-seq", True),
        ]
        assert [result for _, _, result in report[1:4]] == [[0, "1"], [0, "2"], [0, "1"]]
        assert report[4][2][0] == 0
        want_count = greedy_partition_sequence([Interval(a, b) for a, b in S1_PAIRS], 2)[0]
        assert report[5][2] == [0, str(want_count)]

    def test_rejecting_a_plain_float_loads_no_numpy(self):
        code = (
            "import math, sys\nfrom heapchains import Interval\n"
            "try:\n    Interval(0, math.nan)\nexcept ValueError as exc:\n"
            "    print(exc, 'numpy' in sys.modules)\n"
        )
        assert _fresh_python(code).strip() == "coordinate must be finite, got nan False"

    def test_concurrent_first_use_matches_serial(self):
        # numpy is imported at first use, under the import lock: threads that
        # race to the first call must still see one fully loaded module.
        rng = random.Random(8)
        pairs = [sorted(rng.sample(range(900), 2)) for _ in range(300)]
        got = json.loads(_fresh_python(_CONCURRENT_FIRST_USE, json.dumps(pairs)))
        count, forest, _ = greedy_partition_set([Interval(a, b) for a, b in pairs], 2)
        stats = estimate_scaling(SimConfig(n=2000, k=2, trials=2, seed=3))
        serial = [count, [list(p) for p in sorted(forest.parent.items())], list(stats.counts),
                  stats.mean]
        assert got == [serial] * 4
