import csv
import os
import re
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import integrate

import oracles
from lbrc import io as lbrc_io
from lbrc.cli import main
from lbrc.data import Dataset
from lbrc.errors import InvalidDataError
from lbrc.estimators import fit
from lbrc.io import (
    CurveTimes,
    _fmt,
    config_hash,
    parse_dataset,
    parse_rate_config,
    write_curve_csv,
    write_dataset_csv,
    write_influence_csv,
    write_rate_report_csv,
)
from lbrc.simulate import RateReport, sample_lbrc
from lbrc.stepfun import StepFunction
from lbrc.truth import ExponentialModel

# floats whose shortest repr is easy to get wrong: a rounding sum, the
# smallest subnormal, negative zero, a large integral value and one
SPECIAL = [0.1 + 0.2, 5e-324, -0.0, 1e16, 1.0]


def _full_width(text):
    return text.translate({ord(c): 0xFF10 + int(c) for c in "0123456789"})


# spellings of a field: float() reads each one, though not every value passes
SPELLINGS = st.sampled_from([repr] * 16 + [
    lambda x: f" {x!r} ",
    lambda x: _full_width(repr(x)),
    lambda x: "-0" if x == 0 else repr(x),
    lambda x: "1_0",
    lambda x: "1e400",
    lambda x: "inf",
    lambda x: "nan",
])

# one defect in one row; the byte-level ones are applied to the encoded file
DEFECTS = {
    "quoted": lambda row, cols: [f'"{f}"' for f in row],
    "blank line": lambda row, cols: [],
    "two fields": lambda row, cols: row[:2],
    "four fields": lambda row, cols: row + ["1"],
    "delta=2": lambda row, cols: [("2" if c == "delta" else f) for c, f in zip(cols, row)],
    "y < a": lambda row, cols: [("-1.0" if c in "vy" else f) for c, f in zip(cols, row)],
    "not a number": lambda row, cols: ["x" + f for f in row],
    "long numeric field": lambda row, cols: ["0" * (csv.field_size_limit() + 1)] + row[1:],
    "crlf": lambda row, cols: row,
    "bom": lambda row, cols: row,
    "latin-1": lambda row, cols: row,
    "no final newline": lambda row, cols: row,
}


class TestParseDataset:
    def test_residual_schema(self, tmp_path):
        p = tmp_path / "d.csv"
        p.write_text("a,v,delta\n1.0,2.0,1\n")
        d = parse_dataset(p)
        assert d.n == 1
        assert d.y[0] == 3.0

    def test_total_time_schema(self, tmp_path):
        p = tmp_path / "d.csv"
        p.write_text("a,y,delta\n1.0,3.0,1\n")
        d = parse_dataset(p)
        assert d.v[0] == 2.0
        assert d.y[0] == 3.0

    def test_byte_order_mark_ignored(self, tmp_path):
        # spreadsheet "CSV UTF-8" exports start with a UTF-8 byte-order mark
        text = "a,v,delta\n1.0,2.0,1\n0.5,0.25,0\n"
        plain, marked = tmp_path / "plain.csv", tmp_path / "bom.csv"
        plain.write_text(text, encoding="utf-8")
        marked.write_bytes(b"\xef\xbb\xbf" + text.encode())
        want, got = parse_dataset(plain), parse_dataset(marked)
        for name in ("a", "v", "delta", "y"):
            assert np.array_equal(getattr(got, name), getattr(want, name)), name

    def test_negative_entry_rejected_with_row(self, tmp_path):
        p = tmp_path / "d.csv"
        p.write_text("a,v,delta\n-1.0,2.0,1\n")
        with pytest.raises(InvalidDataError, match=r"row 1.*'a'"):
            parse_dataset(p)

    def test_bad_delta_rejected(self, tmp_path):
        p = tmp_path / "d.csv"
        p.write_text("a,v,delta\n1.0,2.0,1\n0.5,1.0,2\n")
        with pytest.raises(InvalidDataError, match=r"row 2.*'delta'"):
            parse_dataset(p)

    @pytest.mark.parametrize(
        "delta",
        [
            np.array([0, 1, 1]),
            np.array([True, False, True]),
            np.array([0.0, 1.0, 1.0]),
            np.array([0, 2, 1]),
            np.array([0, -1, 1]),
            np.array([0.0, np.nan, 1.0]),
            np.array(["0", "1", "1"]),
        ],
        ids=["int", "bool", "float", "two", "minus-one", "nan", "string"],
    )
    def test_delta_check_agrees_with_set_membership(self, delta):
        # the two comparisons with 0 and 1 accept exactly the columns that
        # membership in {0, 1} accepts
        member = bool(np.all(np.isin(delta, (0, 1))))
        try:
            Dataset([1.0, 2.0, 3.0], [0.5, 0.5, 0.5], delta)
        except InvalidDataError as err:
            assert not member and "event indicators" in str(err)
        else:
            assert member

    def test_non_numeric_rejected(self, tmp_path):
        p = tmp_path / "d.csv"
        p.write_text("a,v,delta\n1.0,oops,1\n")
        with pytest.raises(InvalidDataError, match=r"row 1.*'v'"):
            parse_dataset(p)

    def test_overflowing_total_rejected_with_row(self, tmp_path):
        # a and v are finite, but a + v overflows to inf
        p = tmp_path / "d.csv"
        p.write_text("a,v,delta\n1.0,2.0,1\n1e308,1e308,1\n")
        with pytest.raises(InvalidDataError, match=r"row 2.*'v'"):
            parse_dataset(p)
        with pytest.raises(InvalidDataError, match="a \\+ v finite"), np.errstate(over="ignore"):
            Dataset([1e308], [1e308], [1])

    def test_total_less_than_entry_rejected(self, tmp_path):
        p = tmp_path / "d.csv"
        p.write_text("a,y,delta\n2.0,1.0,1\n")
        with pytest.raises(InvalidDataError, match=r"row 1.*'y'"):
            parse_dataset(p)

    def test_wrong_header_rejected(self, tmp_path):
        p = tmp_path / "d.csv"
        p.write_text("x,v,delta\n1.0,2.0,1\n")
        with pytest.raises(InvalidDataError, match="header"):
            parse_dataset(p)

    def test_empty_file_rejected(self, tmp_path):
        p = tmp_path / "d.csv"
        p.write_text("a,v,delta\n")
        with pytest.raises(InvalidDataError, match="no observations"):
            parse_dataset(p)

    def test_missing_file(self, tmp_path):
        with pytest.raises(InvalidDataError, match="no such file"):
            parse_dataset(tmp_path / "absent.csv")

    def test_round_trip_bit_exact(self, tmp_path):
        model = ExponentialModel(censor_rate=0.5, rate=1.0)
        d = sample_lbrc(model, 200, seed=99)
        p = tmp_path / "d.csv"
        write_dataset_csv(p, d)
        back = parse_dataset(p)
        assert np.array_equal(back.a, d.a)
        assert np.array_equal(back.v, d.v)
        assert np.array_equal(back.delta, d.delta)
        # numpy's parser reads a written dataset; the row reader is not needed
        assert lbrc_io._loadtxt(p, False, {"a": 0, "v": 1, "delta": 2}) is not None

    @pytest.mark.parametrize("schema", ["v", "y"])
    @pytest.mark.parametrize("defect", [None, *sorted(DEFECTS)])
    @settings(max_examples=15, deadline=None)
    @given(st.data())
    def test_vectorized_pass_agrees_with_row_reader(self, tmp_path_factory, schema, defect, data):
        # numpy's parse returns what the row reader returns, or hands the file
        # to it, so every error keeps its row and column; the reference reads
        # 2-row blocks, so a defect can land in any block, and every defect is
        # tried in both schemas in every run
        cols = data.draw(st.permutations(["a", schema, "delta"]))
        rows = []
        for _ in range(data.draw(st.integers(1, 6))):
            a, v = (data.draw(st.floats(0, 50)) for _ in range(2))
            value = {"a": a, "v": v, "y": a + v, "delta": data.draw(st.sampled_from([0.0, 1.0]))}
            rows.append([data.draw(SPELLINGS)(value[c]) for c in cols])
        if defect:
            at = data.draw(st.integers(0, len(rows) - 1))
            rows[at] = DEFECTS[defect](rows[at], cols)
        raw = "".join(",".join(row) + "\n" for row in [cols] + rows).encode()
        raw = {"crlf": raw.replace(b"\n", b"\r\n"), "bom": b"\xef\xbb\xbf" + raw,
               "latin-1": raw + b"0.5,\xe9,1\n", "no final newline": raw[:-1]}.get(defect, raw)
        src = tmp_path_factory.mktemp("parse") / "d.csv"
        src.write_bytes(raw)
        _assert_same(*_parse_both(src))

    @pytest.mark.parametrize("body", [
        "1.0,2.0\n0.5,1.0\n",
        "1.0,2.0,1,1\n0.5,1.0,0,1\n",
        "\n\n",
        ",,\n,,\n",
        "",
        "1_0,2.0,1\n1_0,1.0,0\n",
        _full_width("1.0,2.0,1\n0.5,1.0,0\n"),
        "0" * 131_073 + ",1.0,1\n",
        "0" * 131_073 + ",1.0,1\r\n",
    ], ids=["two fields", "four fields", "blank lines", "empty fields", "header only",
            "underscore", "full width", "long field", "long field crlf"])
    def test_numpy_refusals_go_to_row_reader(self, tmp_path, body):
        # numpy refuses each of these files, reads no sample from it, or is
        # not tried on a line over the csv module's field size limit; the row
        # reader gives the verdict, and no warning is raised
        src = tmp_path / "d.csv"
        src.write_bytes(b"a,v,delta\n" + body.encode())
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert lbrc_io._loadtxt(src, False, {"a": 0, "v": 1, "delta": 2}) is None
            _assert_same(*_parse_both(src))

    def test_header_over_two_lines_goes_to_row_reader(self, tmp_path):
        # numpy skips a line, not a record: after the header's first line it
        # would read '"\n1"' as the number 1, which the row reader refuses
        src = tmp_path / "d.csv"
        src.write_text('v,delta,"a\n"\n1",1,2\n')
        got, want = _parse_both(src)
        assert got == want == f"{src}: row 1: column 'v': not a number: '1\"'"


def _parse_both(src):
    """parse_dataset's outcome, and the row reader's with 2-row blocks: the
    Dataset or the error message."""

    def outcome():
        try:
            return parse_dataset(src)
        except InvalidDataError as exc:
            return str(exc)

    got = outcome()
    with mock.patch.object(lbrc_io, "_loadtxt", return_value=None), \
            mock.patch.object(lbrc_io, "_ROW_BLOCK", 2):
        return got, outcome()


def _assert_same(got, want):
    if isinstance(want, str) or isinstance(got, str):
        assert got == want
        return
    for name in ("a", "v", "delta", "y"):
        g, w = getattr(got, name), getattr(want, name)
        assert g.dtype == w.dtype and np.array_equal(g, w), name


class TestEstimateCommand:
    def test_tiny_file_writes_five_curves(self, tmp_path, capsys):
        src = tmp_path / "d.csv"
        src.write_text("a,v,delta\n1.0,2.0,1\n")
        out = tmp_path / "curves"
        assert main(["estimate", str(src), "--out", str(out)]) == 0
        files = sorted(f.name for f in out.iterdir())
        assert files == [
            "f_bar.csv",
            "f_tilde.csv",
            "f_tjw.csv",
            "lambda_tilde.csv",
            "s_a.csv",
        ]
        body = (out / "f_bar.csv").read_text()
        assert "3.0,0.5" in body

    @pytest.mark.parametrize("grid, expected", [("jumps", "tied-jumps"), ("n:7", "tied-n7")])
    def test_tied_sample_matches_golden_files(self, tmp_path, monkeypatch, grid, expected):
        # data/tied.csv has an entry delay equal to another subject's exit, a
        # censored exit tied with an event, a = 0, a censored v = 0 and a
        # fitted CDF that reaches 1.  The input path is relative because the
        # '# config=' line hashes it.
        data = Path(__file__).parent / "data"
        monkeypatch.chdir(data)
        assert main(["estimate", "tied.csv", "--grid", grid, "--out", str(tmp_path)]) == 0
        want = sorted((data / expected).iterdir())
        assert sorted(f.name for f in tmp_path.iterdir()) == [f.name for f in want]
        for f in want:
            assert (tmp_path / f.name).read_bytes() == f.read_bytes(), f.name

    @staticmethod
    def sample(kind):
        d = sample_lbrc(ExponentialModel(censor_rate=0.5, rate=1.0), 300, seed=1)
        if kind == "reaches one early":
            # an event at 0.001 with entry at 0 takes the whole floored risk:
            # F-hat is 1 from there, so f_tilde and f_tjw drop the later jumps
            # that f_bar and lambda_tilde keep
            return Dataset(np.append(d.a, 0.0), np.append(d.v, 0.001), np.append(d.delta, 1))
        # with a = v, s_a has one point as the other four files do, at a
        # different time
        return {"four share t": d,
                "all tied": Dataset([1.0] * 6, [0.5] * 6, [1] * 6),
                "one row": Dataset([1.5], [1.5], [1])}[kind]

    @pytest.mark.parametrize("block", [1, 7, lbrc_io._ROW_BLOCK])
    @pytest.mark.parametrize("kind", ["four share t", "reaches one early", "all tied", "one row"])
    def test_files_match_one_shot_writer(self, tmp_path, monkeypatch, block, kind):
        # files whose t columns are equal share one formatted column; each
        # file still holds the bytes of the one-shot writer run on it alone
        monkeypatch.setattr(lbrc_io, "_ROW_BLOCK", block)
        src, want = tmp_path / "d.csv", tmp_path / "want.csv"
        write_dataset_csv(src, self.sample(kind))
        d = parse_dataset(src)
        curves = fit(d)
        files = {
            "f_tilde.csv": (curves.cdf, "huang-qin-cdf"),
            "f_bar.csv": (curves.cdf_safeguarded, "huang-qin-cdf-safeguarded"),
            "s_a.csv": (curves.entry_survival, "pooled-entry-survival"),
            "lambda_tilde.csv": (curves.combined_cumhaz, "combined-cumulative-hazard"),
            "f_tjw.csv": (curves.tjw_cdf, "tjw-cdf"),
        }
        jumps = [step.jump_times for step, _ in files.values()]
        if kind == "four share t":
            assert all(np.array_equal(jumps[0], jumps[k]) for k in (1, 3, 4))
        if kind == "reaches one early":
            assert jumps[0].size == jumps[4].size == 1 < jumps[1].size == jumps[3].size
        for grid, extra in (("jumps", None), ("n:7", np.linspace(0.0, float(d.y.max()), 7))):
            out = tmp_path / grid.replace(":", "")
            assert main(["estimate", str(src), "--grid", grid, "--out", str(out)]) == 0
            cfg = config_hash({"input": str(src), "estimator": "both", "grid": grid})
            for name, (step, label) in files.items():
                oracles.curve_csv_one_shot(want, step, label, d.n, cfg, extra)
                assert (out / name).read_bytes() == want.read_bytes(), (grid, name)

    def test_estimator_selection(self, tmp_path):
        src = tmp_path / "d.csv"
        src.write_text("a,v,delta\n1.0,2.0,1\n")
        out = tmp_path / "only_tjw"
        assert main(["estimate", str(src), "--estimator", "tjw", "--out", str(out)]) == 0
        assert [f.name for f in out.iterdir()] == ["f_tjw.csv"]

    def test_empty_input_fails(self, tmp_path, capsys):
        src = tmp_path / "d.csv"
        src.write_text("a,v,delta\n")
        assert main(["estimate", str(src), "--out", str(tmp_path / "o")]) == 1
        # a directory, and a file with a byte that is not UTF-8
        latin = tmp_path / "latin.csv"
        latin.write_bytes(b"a,v,delta\n1.0,2.0,1\n0.5,\xe92.0,1\n")
        # a quoted field longer than the csv module's field size limit
        long_field = tmp_path / "long-field.csv"
        long_field.write_text('a,v,delta\n1.0,2.0,1\n"' + "0" * 200_001 + '",1.0,1\n')
        for path, said in (
            (tmp_path, "Is a directory"),
            (latin, "not UTF-8"),
            (long_field, "row 2: field larger than field limit"),
        ):
            assert main(["estimate", str(path), "--out", str(tmp_path / "o")]) == 1
            err = capsys.readouterr().err
            assert err.startswith("error: ") and said in err
            assert "Traceback" not in err

    @pytest.mark.parametrize("rows", ["1.0,2.0,1\n0.5,1.0,0\n", "1.0,2.0,1\n0.5,x,0\n"])
    def test_long_header_field_has_one_message(self, tmp_path, capsys, rows):
        # a header field over the csv module's size limit gets the row
        # reader's message whether or not every row parses as numbers, and
        # the message does not echo the field
        src = tmp_path / "d.csv"
        src.write_text("a,v," + "d" * 140_000 + "\n" + rows)
        assert main(["estimate", str(src), "--out", str(tmp_path / "o")]) == 1
        err = capsys.readouterr().err
        assert err == f"error: {src}: header: field larger than field limit (131072)\n"

    def test_long_data_field_fails_whatever_the_line_ends(self, tmp_path, capsys):
        # a data field over the csv module's size limit is an input error in
        # a plain file too, with the message of its CRLF copy; a field at the
        # limit parses from both
        src = tmp_path / "d.csv"
        said = f"error: {src}: row 2: field larger than field limit (131072)\n"
        for length, want in ((131_073, (1, said)), (131_072, (0, ""))):
            for ending in ("\n", "\r\n"):
                text = f"a,v,delta\n1.0,2.0,1\n{'0' * length},1.0,1\n"
                src.write_bytes(text.replace("\n", ending).encode())
                status = main(["estimate", str(src), "--out", str(tmp_path / "o")])
                assert (status, capsys.readouterr().err) == want, (length, ending)

    @settings(max_examples=150, deadline=None)
    @given(st.binary(max_size=400))
    def test_arbitrary_bytes_end_in_an_exit_code(self, tmp_path_factory, data):
        # whatever the file holds, the command succeeds or reports an input
        # error; it never raises
        work = tmp_path_factory.mktemp("bytes")
        src = work / "d.csv"
        src.write_bytes(data)
        assert main(["estimate", str(src), "--out", str(work / "o")]) in (0, 1)

    def test_tjw_matches_kaplan_meier_file(self, tmp_path):
        # no truncation: the classical product-limit output is Kaplan-Meier
        rng = np.random.default_rng(123)
        times = rng.uniform(0.2, 3.0, 40)
        events = (rng.random(40) > 0.3).astype(int)
        src = tmp_path / "d.csv"
        lines = ["a,v,delta"] + [
            f"0.0,{repr(float(t))},{e}" for t, e in zip(times, events)
        ]
        src.write_text("\n".join(lines) + "\n")
        out = tmp_path / "km"
        assert main(["estimate", str(src), "--estimator", "tjw", "--out", str(out)]) == 0
        rows = [
            line.split(",")
            for line in (out / "f_tjw.csv").read_text().splitlines()
            if line and not line.startswith("#") and not line.startswith("t,")
        ]
        for t_str, val_str in rows:
            want = oracles.kaplan_meier_cdf_at(times, events, float(t_str))
            assert float(val_str) == want

    def test_grid_flag_adds_points(self, tmp_path):
        src = tmp_path / "d.csv"
        src.write_text("a,v,delta\n1.0,2.0,1\n")
        out = tmp_path / "gridded"
        assert main(
            ["estimate", str(src), "--grid", "n:5", "--out", str(out)]
        ) == 0
        rows = [
            line
            for line in (out / "f_tilde.csv").read_text().splitlines()
            if line and not line.startswith("#") and not line.startswith("t,")
        ]
        assert len(rows) >= 5

    def test_bad_grid_flag(self, tmp_path):
        src = tmp_path / "d.csv"
        src.write_text("a,v,delta\n1.0,2.0,1\n")
        assert main(["estimate", str(src), "--grid", "bogus", "--out", str(tmp_path)]) == 1


class TestSimulateCommand:
    def test_byte_identical_for_same_seed(self, tmp_path):
        f1, f2 = tmp_path / "s1.csv", tmp_path / "s2.csv"
        args = ["simulate", "--n", "5", "--seed", "42"]
        assert main(args + ["--out", str(f1)]) == 0
        assert main(args + ["--out", str(f2)]) == 0
        assert f1.read_bytes() == f2.read_bytes()

    @pytest.mark.parametrize("censor", ["none", ""])
    def test_censor_none_gives_all_events(self, tmp_path, censor):
        f = tmp_path / "s.csv"
        assert main(
            ["simulate", "--n", "50", "--seed", "1", "--censor-rate", censor, "--out", str(f)]
        ) == 0
        d = parse_dataset(f)
        assert np.all(d.delta == 1)

    @pytest.mark.parametrize(
        "family, explicit",
        [("exponential", ["--rate", "1.0"]), ("weibull", ["--shape", "1.5", "--scale", "1.0"])],
    )
    def test_omitted_parameters_take_the_defaults(self, tmp_path, family, explicit):
        bare, given = tmp_path / "bare.csv", tmp_path / "given.csv"
        args = ["simulate", "--family", family, "--n", "40", "--seed", "3"]
        assert main(args + ["--out", str(bare)]) == 0
        assert main(args + explicit + ["--out", str(given)]) == 0
        assert bare.read_bytes() == given.read_bytes()

    @pytest.mark.parametrize(
        "family, flag", [("exponential", "--shape"), ("exponential", "--scale"), ("weibull", "--rate")]
    )
    def test_parameter_of_the_other_family_fails(self, tmp_path, capsys, family, flag):
        argv = ["simulate", "--family", family, flag, "2", "--n", "5", "--seed", "1"]
        assert main(argv + ["--out", str(tmp_path / "x.csv")]) == 1
        err = capsys.readouterr().err
        assert err == f"error: key {flag[2:]} is not valid for family={family}\n"
        assert not (tmp_path / "x.csv").exists()

    def test_round_trip_reproduces_dataset(self, tmp_path):
        f = tmp_path / "s.csv"
        assert main(["simulate", "--n", "64", "--seed", "9", "--out", str(f)]) == 0
        model = ExponentialModel(censor_rate=0.5, rate=1.0)
        direct = sample_lbrc(model, 64, seed=9)
        back = parse_dataset(f)
        assert np.array_equal(back.a, direct.a)
        assert np.array_equal(back.v, direct.v)
        assert np.array_equal(back.delta, direct.delta)

    def test_mean_exit_time_matches_quadrature(self, tmp_path):
        f = tmp_path / "s.csv"
        assert main(["simulate", "--n", "100000", "--seed", "5", "--out", str(f)]) == 0
        d = parse_dataset(f)
        model = ExponentialModel(censor_rate=0.5, rate=1.0)
        # E[entry delay] + E[observed residual], both from their tails
        want, _ = integrate.quad(
            lambda u: model.entry_survival(u) * (1.0 + model.censor_survival(u)),
            0.0,
            np.inf,
            limit=200,
        )
        se = d.y.std() / np.sqrt(d.n)
        assert abs(d.y.mean() - want) < 3 * se

    def test_bad_parameters_fail(self, tmp_path, capsys):
        out = str(tmp_path / "x.csv")
        for bad, said in (
            (["--rate", "-2.0", "--out", out], "rate"),
            (["--censor-rate", "abc", "--out", out], "--censor-rate"),
            (["--seed", "-1", "--out", out], "--seed"),
            (["--out", str(tmp_path / "missing" / "x.csv")], "No such file"),
            # lifetime draws that overflow a float, without a numpy warning
            (["--family", "weibull", "--shape", "1e-3", "--out", out], "shape=0.001"),
            (["--rate", "1e-320", "--out", out], "rate=1e-320"),
        ):
            argv = ["simulate", "--n", "5", "--seed", "1"] + bad
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                assert main(argv) == 1, bad
            err = capsys.readouterr().err
            assert err.startswith("error: ") and said in err, bad
            assert "Traceback" not in err


def write_config(path, **overrides):
    base = {
        "family": "exponential",
        "rate": "1.0",
        "censor_rate": "0.5",
        "sizes": "60,120",
        "reps": "50",
        "which": "Lemma35",
        "grid": "quantiles:0.10:0.90:8",
        "seed": "7",
    }
    base.update(overrides)
    path.write_text("".join(f"{k}={v}\n" for k, v in base.items() if v is not None))


class TestRateExperimentCommand:
    def test_runs_and_is_deterministic(self, tmp_path):
        cfg = tmp_path / "exp.cfg"
        write_config(cfg)
        out1, out2 = tmp_path / "r1.csv", tmp_path / "r2.csv"
        assert main(["rate-experiment", str(cfg), "--out", str(out1)]) == 0
        assert main(["rate-experiment", str(cfg), "--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()
        text = out1.read_text()
        assert "# slope=" in text
        assert "n,rep,sup_residual" in text

    def test_single_size_exits_nonzero(self, tmp_path, capsys):
        cfg = tmp_path / "exp.cfg"
        write_config(cfg, sizes="100")
        assert main(["rate-experiment", str(cfg), "--out", str(tmp_path / "r.csv")]) == 1
        assert "2 sizes" in capsys.readouterr().err

    def test_unknown_key_exits_nonzero(self, tmp_path, capsys):
        cfg = tmp_path / "exp.cfg"
        write_config(cfg)
        cfg.write_text(cfg.read_text() + "bogus_key=1\n")
        assert main(["rate-experiment", str(cfg), "--out", str(tmp_path / "r.csv")]) == 1
        assert "bogus_key" in capsys.readouterr().err
        # a negative seed, and a byte that is not UTF-8
        write_config(cfg, seed="-1")
        latin = tmp_path / "latin.cfg"
        latin.write_bytes(cfg.read_bytes().replace(b"family", b"# caf\xe9\nfamily"))
        # model parameters whose grid or oracle tables overflow
        tiny_shape, tiny_rate, huge_rate, huge_bare = (tmp_path / f"{k}.cfg" for k in range(4))
        write_config(tiny_shape, family="weibull", rate=None, shape="0.001", which="Rn2")
        write_config(tiny_rate, rate="1e-320", which="Rn2")
        write_config(huge_rate, rate="1e305", which="Rn2")
        write_config(huge_bare, rate="1e305", censor_rate="none", which="Rn2")
        for path, said in (
            (cfg, "seed"),
            (latin, "not UTF-8"),
            (tiny_shape, "grid: 'quantiles:0.10:0.90:8' on WeibullModel(censor_rate=0.5, shape=0.001"),
            (tiny_rate, "grid: 'quantiles:0.10:0.90:8' on ExponentialModel(censor_rate=0.5, rate=1e-320"),
            (huge_rate, "ExponentialModel(censor_rate=0.5, rate=1e+305): oracle tables"),
            (huge_bare, "ExponentialModel(censor_rate=None, rate=1e+305): oracle tables"),
        ):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                assert main(["rate-experiment", str(path), "--out", str(tmp_path / "r.csv")]) == 1
            err = capsys.readouterr().err
            assert err.startswith("error: ") and said in err
            assert "Traceback" not in err
        # a large rate whose exit CDF and tables stay in range runs through
        large_rate, report = tmp_path / "large.cfg", tmp_path / "large.csv"
        write_config(large_rate, rate="1e150", which="Rn2")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["rate-experiment", str(large_rate), "--out", str(report)]) == 0
        rows = [l for l in report.read_text().splitlines() if l and not l.startswith("#")]
        sups = np.array([float(l.split(",")[2]) for l in rows[1:]])
        assert sups.size == 100 and np.all(np.isfinite(sups)) and np.all(sups > 0)

    @pytest.mark.parametrize(
        "overrides, said",
        [
            ({"shape": "2"}, "key shape is not valid for family=exponential"),
            ({"family": "weibull", "rate": "2"}, "key rate is not valid for family=weibull"),
            ({"family": "gamma"}, "family must be exponential or weibull, got 'gamma'"),
            ({"rate": "abc"}, "config key rate: not a number: 'abc'"),
            ({"censor_rate": "abc"}, "config key censor_rate: not a number: 'abc'"),
        ],
    )
    def test_model_keys_checked_as_on_the_command_line(self, tmp_path, capsys, overrides, said):
        cfg = tmp_path / "exp.cfg"
        write_config(cfg, **overrides)
        assert main(["rate-experiment", str(cfg), "--out", str(tmp_path / "r.csv")]) == 1
        assert capsys.readouterr().err == f"error: {said}\n"

    @pytest.mark.parametrize("threads, flag", [("0", None), ("-3", None), ("2", "0"), (None, "-3")])
    def test_threads_below_one_exit_one(self, tmp_path, capsys, threads, flag):
        cfg = tmp_path / "exp.cfg"
        write_config(cfg, threads=threads)
        argv = ["rate-experiment", str(cfg), "--out", str(tmp_path / "r.csv")]
        assert main(argv + (["--threads", flag] if flag else [])) == 1
        bad = flag if flag else threads
        assert capsys.readouterr().err == f"error: threads must be >= 1, got {bad}\n"
        assert not (tmp_path / "r.csv").exists()

    def test_key_given_twice_exits_one(self, tmp_path, capsys):
        # the second seed would silently win, and the config hash would hide the first
        cfg = tmp_path / "exp.cfg"
        write_config(cfg)
        lines = cfg.read_text().splitlines(keepends=True)
        first = next(i for i, line in enumerate(lines, start=1) if line.startswith("seed="))
        cfg.write_text("".join(lines) + "# again\nSeed = 2\n")
        assert main(["rate-experiment", str(cfg), "--out", str(tmp_path / "r.csv")]) == 1
        err = capsys.readouterr().err
        assert err == (f"error: {cfg}: config key seed given twice: "
                       f"lines {first} and {len(lines) + 2}\n")
        assert not (tmp_path / "r.csv").exists()

    def test_missing_key_named(self, tmp_path, capsys):
        cfg = tmp_path / "exp.cfg"
        write_config(cfg, seed=None)
        assert main(["rate-experiment", str(cfg), "--out", str(tmp_path / "r.csv")]) == 1
        assert "seed" in capsys.readouterr().err

    def test_config_byte_order_mark_ignored(self, tmp_path):
        cfg, marked = tmp_path / "exp.cfg", tmp_path / "bom.cfg"
        write_config(cfg)
        marked.write_bytes(b"\xef\xbb\xbf" + cfg.read_bytes())
        want, got = parse_rate_config(cfg), parse_rate_config(marked)
        assert got["raw"] == want["raw"]
        assert np.array_equal(got["grid"].points, want["grid"].points)

    def test_window_refusal_exits_2(self, tmp_path):
        cfg = tmp_path / "exp.cfg"
        write_config(cfg, grid="quantiles:0.10:0.999:8")
        assert main(["rate-experiment", str(cfg), "--out", str(tmp_path / "r.csv")]) == 2

    @pytest.mark.parametrize(
        "unit, extreme",
        [
            ({"rate": "1", "censor_rate": "none"}, {"rate": "1e300", "censor_rate": "none"}),
            (
                {"family": "weibull", "rate": None, "shape": "1.5", "scale": "1"},
                {"family": "weibull", "rate": None, "shape": "1.5", "scale": "1e-300",
                 "censor_rate": "5e299"},
            ),
        ],
    )
    def test_extreme_time_scales_run(self, tmp_path, capsys, unit, extreme):
        # the oracle tables' origin grading stays in normal floats, so a
        # window end near 1e-300 gives the unit-scale slope
        slopes = []
        for k, keys in enumerate((unit, extreme)):
            cfg, report = tmp_path / f"{k}.cfg", tmp_path / f"{k}.csv"
            write_config(cfg, which="Rn2", seed="11", **keys)
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                assert main(["rate-experiment", str(cfg), "--out", str(report)]) == 0
            line = next(l for l in report.read_text().splitlines() if l.startswith("# slope="))
            slopes.append(float(line.split("=")[1]))
        assert slopes[1] == pytest.approx(slopes[0], rel=1e-12)
        assert "Traceback" not in capsys.readouterr().err

    def test_window_diagnostic_overflow_exits_2_without_warning(self, tmp_path, capsys):
        # at rate 1e307 the diagnostic's integrand overflows a float
        cfg = tmp_path / "exp.cfg"
        write_config(cfg, rate="1e307", censor_rate="none", which="Rn2")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["rate-experiment", str(cfg), "--out", str(tmp_path / "r.csv")]) == 2
        assert capsys.readouterr().err == (
            "compute error: window diagnostic inf exceeds cap 10000; "
            "shrink b below the heavy tail\n"
        )


class TestInfluenceCommand:
    def test_single_row_smoke(self, tmp_path):
        src = tmp_path / "d.csv"
        src.write_text("a,v,delta\n1.0,2.0,1\n")
        out = tmp_path / "ci.csv"
        assert main(["influence", str(src), "--out", str(out)]) == 0
        lines = [l for l in out.read_text().splitlines() if l and not l.startswith("#")]
        assert lines[0] == "t,cdf,se,ci_low,ci_high,d,v"
        vals = [float(x) for x in lines[1].split(",")]
        assert all(np.isfinite(vals))

    @pytest.mark.parametrize("grid", ["n:20", "jumps"])
    def test_event_at_time_zero(self, tmp_path, capsys, grid):
        # a = v = 0 with an event is valid data; the window starts at the
        # first positive event time
        src = tmp_path / "d.csv"
        src.write_text("a,v,delta\n0,0,1\n0.5,0.5,1\n1,2,1\n0.5,1,0\n")
        out = tmp_path / "ci.csv"
        assert main(["influence", str(src), "--grid", grid, "--out", str(out)]) == 0
        assert "Traceback" not in capsys.readouterr().err
        rows = [l for l in out.read_text().splitlines() if l and not l.startswith("#")]
        assert float(rows[1].split(",")[0]) == 1.0

    def test_events_only_at_time_zero(self, tmp_path, capsys):
        src = tmp_path / "d.csv"
        src.write_text("a,v,delta\n0,0,1\n0.5,1,0\n")
        assert main(["influence", str(src), "--out", str(tmp_path / "ci.csv")]) == 1
        err = capsys.readouterr().err
        assert "no observed events at positive times" in err
        assert "Traceback" not in err

    def test_invalid_level(self, tmp_path, capsys):
        src = tmp_path / "d.csv"
        src.write_text("a,v,delta\n1.0,2.0,1\n")
        assert main(["influence", str(src), "--level", "1.5", "--out", str(tmp_path / "x")]) == 1
        # an output path in a directory that does not exist
        missing = str(tmp_path / "missing" / "ci.csv")
        capsys.readouterr()
        assert main(["influence", str(src), "--out", missing]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "No such file" in err
        assert "Traceback" not in err

    def test_ci_width_shrinks_with_n(self):
        # interval width drops by about 1/sqrt(2) when the sample doubles
        from lbrc.influence import make_plugin_context, plugin_variance
        from lbrc.stepfun import EvalGrid

        model = ExponentialModel(censor_rate=0.5, rate=1.0)
        grid = EvalGrid.of_points([model.quantile(0.5)])
        widths = []
        for si, n in enumerate((1000, 2000)):
            per = [
                np.sqrt(plugin_variance(make_plugin_context(
                    sample_lbrc(model, n, np.random.SeedSequence(6, spawn_key=(si, r))), grid
                )))[0]
                for r in range(40)
            ]
            widths.append(np.median(per))
        assert 0.6 <= widths[1] / widths[0] <= 0.8

    def test_help_exits_zero(self):
        assert main(["--help"]) == 0


class TestWriters:
    @staticmethod
    def body(path):
        return [l for l in Path(path).read_text().splitlines() if not l.startswith("#")]

    def test_dataset_rows(self, tmp_path):
        a, v, delta = SPECIAL, SPECIAL[::-1], [1, 0, 1, 0, 1]
        write_dataset_csv(tmp_path / "d.csv", Dataset(a, v, delta))
        expected = [f"{_fmt(x)},{_fmt(y)},{dlt}" for x, y, dlt in zip(a, v, delta)]
        assert self.body(tmp_path / "d.csv") == ["a,v,delta"] + expected

    def test_curve_rows(self, tmp_path):
        times = sorted(SPECIAL)
        step = StepFunction(times, SPECIAL, 0.0)
        write_curve_csv(tmp_path / "c.csv", step, "x", 5, "h", CurveTimes(step.jump_times))
        expected = [f"{_fmt(t)},{_fmt(v)}" for t, v in zip(times, SPECIAL)]
        assert self.body(tmp_path / "c.csv") == ["t,value"] + expected

    def test_influence_rows(self, tmp_path):
        rows = [SPECIAL + SPECIAL[:2], SPECIAL[::-1] + SPECIAL[:2]]
        write_influence_csv(tmp_path / "i.csv", np.array(rows).T, 5, 0.95, "h")
        expected = [",".join(_fmt(x) for x in row) for row in rows]
        assert self.body(tmp_path / "i.csv") == ["t,cdf,se,ci_low,ci_high,d,v"] + expected

    def test_rate_report_rows(self, tmp_path):
        sup = np.array([SPECIAL, SPECIAL[::-1]])
        report = RateReport("Rn2", np.array([100, 200]), sup, np.array(SPECIAL[:2]),
                            SPECIAL[0], -0.75, 7)
        write_rate_report_csv(tmp_path / "r.csv", report, "h")
        text = (tmp_path / "r.csv").read_text().splitlines()
        assert f"# slope={_fmt(SPECIAL[0])}" in text
        assert f"# median n=100: {_fmt(SPECIAL[0])}" in text
        assert f"# median n=200: {_fmt(SPECIAL[1])}" in text
        expected = [f"{n},{r},{_fmt(sup[si, r])}"
                    for si, n in enumerate((100, 200)) for r in range(5)]
        assert self.body(tmp_path / "r.csv") == ["n,rep,sup_residual"] + expected


def _floats(rng, n, low=0.0):
    """n floats of many magnitudes, starting with the SPECIAL ones at or above low."""
    x = rng.random(n) * 10.0 ** rng.integers(-8, 9, n)
    special = [v for v in SPECIAL if v >= low][:n]
    x[: len(special)] = special
    return x


class TestRowBlocks:
    # the writers write the bytes of the one-shot reference, and numpy's
    # parse reads what the row reader reads, wherever the rows end relative
    # to a block of the writer or the row reader
    @staticmethod
    def sizes(block):
        return sorted({1, block - 1, block, block + 1} - {0})

    @pytest.mark.parametrize("block", [1, 7, lbrc_io._ROW_BLOCK])
    def test_writers_match_one_shot(self, tmp_path, monkeypatch, block):
        monkeypatch.setattr(lbrc_io, "_ROW_BLOCK", block)
        rng = np.random.default_rng(block)
        got, want = tmp_path / "got.csv", tmp_path / "want.csv"
        for n in self.sizes(block):
            d = Dataset(_floats(rng, n), _floats(rng, n), rng.integers(0, 2, n))
            write_dataset_csv(got, d)
            oracles.dataset_csv_one_shot(want, d)
            assert got.read_bytes() == want.read_bytes(), ("dataset", n)

            step = StepFunction(np.cumsum(rng.random(n) + 1e-3), _floats(rng, n), 0.0)
            for extra in (None, np.linspace(0.0, 2.0 * step.jump_times[-1], 5)):
                write_curve_csv(got, step, "x", n, "h", CurveTimes(step.jump_times, extra))
                oracles.curve_csv_one_shot(want, step, "x", n, "h", extra)
                assert got.read_bytes() == want.read_bytes(), ("curve", n, extra)

            columns = [_floats(rng, n, low=-1.0) for _ in range(7)]
            write_influence_csv(got, columns, n, 0.95, "h")
            oracles.influence_csv_one_shot(want, zip(*columns), n, 0.95, "h")
            assert got.read_bytes() == want.read_bytes(), ("influence", n)

            for sizes in ([100], [100, 200, 400]):
                sup = _floats(rng, len(sizes) * n).reshape(len(sizes), n)
                report = RateReport("Rn2", np.array(sizes), sup, sup[:, 0], 0.5, -0.75, 7)
                write_rate_report_csv(got, report, "h")
                oracles.rate_report_csv_one_shot(want, report, "h")
                assert got.read_bytes() == want.read_bytes(), ("rate report", n, sizes)

    @pytest.mark.parametrize("block", [1, 2, 7, lbrc_io._ROW_BLOCK])
    @pytest.mark.parametrize(
        "form", ["final newline", "no final newline", "byte-order mark", "crlf", "quoted"]
    )
    def test_numpy_parse_matches_row_reader(self, tmp_path, monkeypatch, block, form):
        monkeypatch.setattr(lbrc_io, "_ROW_BLOCK", block)
        rng = np.random.default_rng(block)
        path = tmp_path / "d.csv"
        for n in self.sizes(block):
            d = Dataset(_floats(rng, n), _floats(rng, n), rng.integers(0, 2, n))
            write_dataset_csv(path, d)
            raw = path.read_bytes()
            path.write_bytes({"no final newline": raw[:-1],
                              "byte-order mark": b"\xef\xbb\xbf" + raw,
                              "crlf": raw.replace(b"\n", b"\r\n"),
                              "quoted": re.sub(rb"[^,\n]+", rb'"\g<0>"', raw)}.get(form, raw))
            got = lbrc_io._loadtxt(path, False, {"a": 0, "v": 1, "delta": 2})
            assert got is not None
            with mock.patch.object(lbrc_io, "_loadtxt", return_value=None):
                want = parse_dataset(path)
            for name in ("a", "v", "delta", "y"):
                g, w = getattr(got, name), getattr(want, name)
                assert g.dtype == w.dtype and np.array_equal(g, w), (n, name)
                assert np.array_equal(g, getattr(d, name)), (n, name)


class TestMemoryGuards:
    # readers and writers hold the columns and one block of rows, not one
    # Python object per row
    @staticmethod
    def peak(fn, *args):
        tracemalloc.start()
        try:
            fn(*args)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def test_curve_writer(self, tmp_path):
        times = np.cumsum(np.random.default_rng(1).random(150_000) + 1e-3)
        step = StepFunction(times, np.linspace(0.0, 1.0, times.size), 0.0)
        extra = np.linspace(0.0, times[-1], 200)
        # the column's points are built inside the measured call
        assert self.peak(lambda: write_curve_csv(
            tmp_path / "c.csv", step, "x", 1, "h", CurveTimes(step.jump_times, extra)
        )) < 10e6

    def test_estimate_command(self, tmp_path):
        # four of the five curve files share a t column of 66,664 points,
        # which is kept as one string per block of rows, not one per row
        d = sample_lbrc(ExponentialModel(censor_rate=0.5, rate=1.0), 100_000, seed=1)
        write_dataset_csv(tmp_path / "d.csv", d)
        argv = ["estimate", str(tmp_path / "d.csv"), "--grid", "n:200", "--out", str(tmp_path)]
        status = []
        assert self.peak(lambda: status.append(main(argv))) < 26e6
        assert status == [0]

    def test_dataset_writer(self, tmp_path):
        d = sample_lbrc(ExponentialModel(censor_rate=0.5, rate=1.0), 100_000, seed=1)
        assert self.peak(write_dataset_csv, tmp_path / "d.csv", d) < 5e6

    def test_parse_dataset(self, tmp_path):
        d = sample_lbrc(ExponentialModel(censor_rate=0.5, rate=1.0), 100_000, seed=1)
        write_dataset_csv(tmp_path / "d.csv", d)
        assert self.peak(parse_dataset, tmp_path / "d.csv") < 14e6


def test_package_import_loads_no_scipy():
    # scipy is imported by the functions that use it, not by the package
    code = ("import sys, lbrc, lbrc.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=src + os.pathsep + os.environ.get("PYTHONPATH", ""))
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, check=True, timeout=120)
    assert done.stdout.strip() == "[]"
