import json
import os
import random
import re
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from heapchains import (
    SimConfig,
    estimate_scaling,
    formats,
    greedy_partition_sequence,
    greedy_partition_set,
    run_process,
    simulate,
    verify_forest,
)
from heapchains.cli import run
from heapchains.poset import CycleError, HeapForest, IdOutOfRange, Interval, poset_from_relations

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


class TestFormats:
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
        ],
        ids=["intervals-1/0", "boxes-1/0", "intervals-utf8", "boxes-utf8", "permutation-utf8",
             "poset-utf8", "forest-utf8", "poset-nested", "forest-nested"],
    )
    def test_unreadable_file_names_file(self, tmp_path, load, data, where):
        path = tmp_path / "bad"
        path.write_bytes(data)
        with pytest.raises(formats.InputFormatError, match=re.escape(f"{path}{where}")):
            load(path)

    def test_boxes_roundtrip(self, tmp_path):
        path = tmp_path / "bx.csv"
        path.write_text("0,0,1.5,2\n")
        box = formats.load_boxes_csv(path)[0]
        assert box.lower == (0, 0) and box.upper == (Fraction(3, 2), 2)

    def test_permutation_file(self, tmp_path):
        path = tmp_path / "perm.txt"
        path.write_text("1\n2\n0\n3\n")
        assert formats.load_permutation(path) == [1, 2, 0, 3]

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
        ],
        ids=["exponent", "poset-n"],
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
        # would add their import time and memory to every CLI call, and
        # multiprocessing loads only when simulation trials fork.
        code = (
            "import sys, heapchains.cli; "
            "print(sorted({'sortedcontainers', 'scipy', 'networkx', 'multiprocessing',"
            " 'concurrent.futures'} & set(sys.modules)))"
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
