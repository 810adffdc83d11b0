import argparse
import contextlib
import csv
import io
import json
import math
import multiprocessing
import os
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from drlogit import cli, simulate
from drlogit.cli import CliError, main, read_dataset_csv
from drlogit.model import Basis, Dataset, InstrumentSpec
from drlogit.nuisance import _distinct
from drlogit.estimators import Estimation
from drlogit.simulate import (
    KNOWN_ESTIMATORS,
    _run_replication,
    sample_dataset,
    scenario_catalog,
    with_size,
    write_dataset_csv,
)
from drlogit.cli import basis_from_terms

REPO = Path(__file__).resolve().parent.parent
EXAMPLE_CSV = REPO / "data" / "example_binary_beta0.csv"
EXAMPLE_CFG = REPO / "data" / "example_fit_config.json"
README = REPO / "README.md"
CLI_TEXT = json.loads((REPO / "tests" / "cli_text.json").read_text())


def test_fit_bundled_example(tmp_path, capsys):
    rc = main(["fit", "--data", str(EXAMPLE_CSV), "--config", str(EXAMPLE_CFG),
               "--out", str(tmp_path)])
    assert rc == 0
    payload = json.loads((tmp_path / "estimates.json").read_text())
    assert payload["n"] == 600 and payload["p"] == 1
    # the file was generated with beta* = 0: every estimator is within 4 SE
    for name, res in payload["estimators"].items():
        assert abs(res["beta"][0]) < 4 * res["se"][0], name
    out = capsys.readouterr().out
    assert "estimator" in out and "dr_simple" in out


def test_fit_reproducible_bytes(tmp_path):
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert main(["fit", "--data", str(EXAMPLE_CSV), "--config", str(EXAMPLE_CFG),
                 "--out", str(out_a)]) == 0
    assert main(["fit", "--data", str(EXAMPLE_CSV), "--config", str(EXAMPLE_CFG),
                 "--out", str(out_b)]) == 0
    assert (out_a / "estimates.json").read_bytes() == (out_b / "estimates.json").read_bytes()


def test_quick_tour_estimates_equal_the_fit_command(tmp_path, capsys):
    """The README quick tour, Estimation(ds, basis, families).estimate(name),
    on the bundled example with its config's basis and families gives for
    every estimator of the config the beta and se that `drlogit fit` writes
    to estimates.json, bit for bit."""
    assert main(["fit", "--data", str(EXAMPLE_CSV), "--config", str(EXAMPLE_CFG),
                 "--out", str(tmp_path)]) == 0
    capsys.readouterr()
    written = json.loads((tmp_path / "estimates.json").read_text())["estimators"]
    cfg = json.loads(EXAMPLE_CFG.read_text())
    est = Estimation(read_dataset_csv(EXAMPLE_CSV), basis_from_terms(cfg["basis"]),
                     cfg["z_families"])
    assert sorted(written) == sorted(cfg["estimators"])
    for name in cfg["estimators"]:
        beta, se, _ = est.estimate(name)
        # a float's JSON repr reads back as the same double
        assert beta.tolist() == written[name]["beta"], name
        assert se.tolist() == written[name]["se"], name


def test_fit_round_trip_matches_in_process(tmp_path):
    """A dataset written to CSV and refit through the CLI reproduces the
    in-process estimate to the last bit (repr round-trip)."""
    sc = next(s for s in scenario_catalog() if s.name == "S1-binary")
    ds = sample_dataset(sc.law, 400, 2024)
    csv_path = tmp_path / "d.csv"
    write_dataset_csv(csv_path, ds)
    ds2 = read_dataset_csv(csv_path)
    assert ds2.y.tobytes() == ds.y.tobytes()
    assert ds2.z.tobytes() == ds.z.tobytes()
    assert ds2.x.tobytes() == ds.x.tobytes()

    basis = basis_from_terms([{"kind": "intercept"}, {"kind": "linear", "j": 0}])
    want = Estimation(ds, basis, ("bernoulli",)).solve(InstrumentSpec("simple")).beta_hat[0]

    cfg = {"basis": [{"kind": "intercept"}, {"kind": "linear", "j": 0}],
           "z_families": ["bernoulli"], "estimators": ["dr_simple"]}
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    assert main(["fit", "--data", str(csv_path), "--config", str(cfg_path),
                 "--out", str(tmp_path)]) == 0
    got = json.loads((tmp_path / "estimates.json").read_text())
    assert abs(got["estimators"]["dr_simple"]["beta"][0] - want) <= 1e-12


def test_fit_full_menu_matches_replication(tmp_path):
    """`fit` on a replication's dataset reports, for every known estimator,
    the very (beta, se) that the Monte Carlo replication records."""
    sc = with_size(next(s for s in scenario_catalog() if s.name == "S1-binary"), n=600)
    want = _run_replication(sc, 0, KNOWN_ESTIMATORS)
    csv_path = tmp_path / "d.csv"
    write_dataset_csv(csv_path, sample_dataset(
        sc.law, sc.n, np.random.SeedSequence(sc.seed, spawn_key=(0,))))
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({
        "basis": [{"kind": "intercept"}, {"kind": "linear", "j": 0}],
        "z_families": ["bernoulli"], "estimators": list(KNOWN_ESTIMATORS)}))
    assert main(["fit", "--data", str(csv_path), "--config", str(cfg_path),
                 "--out", str(tmp_path)]) == 0
    got = json.loads((tmp_path / "estimates.json").read_text())["estimators"]
    assert sorted(got) == sorted(KNOWN_ESTIMATORS)
    for name in KNOWN_ESTIMATORS:
        assert (got[name]["beta"][0], got[name]["se"][0]) == want[name], name


def test_fit_menu_shares_one_design_and_validates_no_copy(tmp_path, monkeypatch):
    """`fit` with every known estimator on the bundled example evaluates b(x)
    at most twice and validates no Dataset after the CSV read: the menu
    shares one per-dataset context, and the Y=1 mirror is a reflected view."""
    counts = {"design": 0, "validated": 0, "validated_by_read": None}
    design, post_init, read = Basis.design, Dataset.__post_init__, cli._read_rows

    def counted_design(self, x):
        counts["design"] += 1
        return design(self, x)

    def counted_post_init(self):
        counts["validated"] += 1
        post_init(self)

    def counted_read(path):
        rows = read(path)
        counts["validated_by_read"] = counts["validated"]
        return rows

    monkeypatch.setattr(Basis, "design", counted_design)
    monkeypatch.setattr(Dataset, "__post_init__", counted_post_init)
    monkeypatch.setattr(cli, "_read_rows", counted_read)
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({
        "basis": [{"kind": "intercept"}, {"kind": "linear", "j": 0}],
        "z_families": ["bernoulli"], "estimators": list(KNOWN_ESTIMATORS)}))
    assert main(["fit", "--data", str(EXAMPLE_CSV), "--config", str(cfg_path),
                 "--out", str(tmp_path)]) == 0
    assert counts["design"] <= 2, counts
    assert counts["validated"] == counts["validated_by_read"], counts


def test_fit_missing_y_column(tmp_path, capsys):
    bad = tmp_path / "bad.csv"
    bad.write_text("w,z1,x1\n0,1.0,2.0\n")
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"basis": [{"kind": "intercept"}]}))
    rc = main(["fit", "--data", str(bad), "--config", str(cfg)])
    assert rc == 2
    assert "'y'" in capsys.readouterr().err


def test_fit_non_numeric_cell(tmp_path, capsys):
    bad = tmp_path / "bad.csv"
    bad.write_text("y,z1,x1\n0,1.0,2.0\n1,oops,0.5\n")
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"basis": [{"kind": "intercept"}]}))
    rc = main(["fit", "--data", str(bad), "--config", str(cfg)])
    assert rc == 2
    err = capsys.readouterr().err
    assert "row 3" in err


def test_fit_ragged_row(tmp_path, capsys):
    bad = tmp_path / "bad.csv"
    bad.write_text("y,z1,x1\n0,1.0,2.0\n1,0.5\n")
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"basis": [{"kind": "intercept"}]}))
    assert main(["fit", "--data", str(bad), "--config", str(cfg)]) == 2
    assert "row 3" in capsys.readouterr().err


_NON_FINITE_TOKENS = ("nan", "NaN", "inf", "-inf", "Infinity", "-Infinity", "1e999")


@given(st.integers(0, 3), st.sampled_from(["z1", "x1", "x2"]),
       st.sampled_from(_NON_FINITE_TOKENS))
@settings(max_examples=40, deadline=None)
def test_read_csv_rejects_non_finite_cell(row, column, token):
    """A non-finite number parses as a float; the reader refuses it and
    names its row (counting the header as row 1) and column."""
    header = ["y", "z1", "x1", "x2"]
    cells = [["0", "0.5", "1.0", "-1.0"] for _ in range(4)]
    cells[row][header.index(column)] = token
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "d.csv"
        path.write_text("\n".join(",".join(r) for r in [header, *cells]) + "\n")
        with pytest.raises(CliError, match=f"row {row + 2}, column '{column}'"):
            read_dataset_csv(path)


def test_fit_non_finite_cell(tmp_path, capsys):
    bad = tmp_path / "bad.csv"
    bad.write_text("y,z1,x1\n0,1.0,2.0\n1,0.5,nan\n0,0.2,0.1\n")
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"basis": [{"kind": "intercept"}, {"kind": "linear", "j": 0}]}))
    assert main(["fit", "--data", str(bad), "--config", str(cfg)]) == 2
    assert "row 3, column 'x1'" in capsys.readouterr().err


def _per_cell_read_csv(path) -> Dataset:
    """Reference reader: converts and checks one cell at a time, row by
    row; `read_dataset_csv` must return the same arrays or raise the same
    CliError."""
    rows = []
    with open(path, newline="") as fh:
        try:
            for row in csv.reader(fh):
                rows.append(row)
        except csv.Error as exc:
            raise CliError(f"{path}: row {len(rows) + 1}: {exc}") from None
    if not rows:
        raise CliError(f"{path}: empty file, expected a header row")
    header, rows = rows[0], rows[1:]
    cols = {name: i for i, name in enumerate(header)}
    if len(cols) != len(header):
        raise CliError(f"{path}: duplicate column names in header")
    if "y" not in cols:
        raise CliError(f"{path}: missing required column 'y'")

    def numbered(prefix: str) -> list[str]:
        found = {}
        for c in cols:
            if c.startswith(prefix) and c[len(prefix):].isdigit():
                found[int(c[len(prefix):])] = c
        count = len(found)
        if count == 0 or sorted(found) != list(range(1, count + 1)):
            raise CliError(f"{path}: expected columns {prefix}1..{prefix}{max(count, 1)}, "
                           f"found {sorted(found.values()) or 'none'}")
        return [found[j] for j in range(1, count + 1)]

    z_names = numbered("z")
    x_names = numbered("x")
    p, q = len(z_names), len(x_names)
    extra = set(cols) - {"y", *z_names, *x_names}
    if extra:
        raise CliError(f"{path}: unexpected columns {sorted(extra)}")

    n = len(rows)
    if n == 0:
        raise CliError(f"{path}: no data rows")
    y = np.empty(n, dtype=np.int64)
    z = np.empty((n, p))
    x = np.empty((n, q))
    for i, row in enumerate(rows):
        if len(row) != len(header):
            raise CliError(f"{path}: row {i + 2} has {len(row)} cells, header has {len(header)}")
        try:
            yv = float(row[cols["y"]])
            for j, name in enumerate(z_names):
                z[i, j] = float(row[cols[name]])
            for j, name in enumerate(x_names):
                x[i, j] = float(row[cols[name]])
        except ValueError as exc:
            raise CliError(f"{path}: non-numeric cell in row {i + 2}: {exc}") from exc
        if yv not in (0.0, 1.0):
            raise CliError(f"{path}: row {i + 2} has y={row[cols['y']]!r}, must be 0 or 1")
        y[i] = int(yv)
    finite = np.isfinite(z).all(axis=1) & np.isfinite(x).all(axis=1)
    if not finite.all():
        i = int(np.argmin(finite))
        name = next(c for c, v in zip(z_names + x_names, [*z[i], *x[i]])
                    if not math.isfinite(v))
        raise CliError(f"{path}: row {i + 2}, column {name!r} has non-finite value "
                       f"{rows[i][cols[name]]!r}")
    return Dataset(y, z, x)


_HEADERS = (("y", "z1", "x1"), ("x1", "y", "z2", "z1", "x2"), ("z1", "x2", "x1", "y"))
_GOOD_Y = ("0", "1", "1.0", "+1", " 0 ", '"1"', "0_0", "-0")
_BAD_Y = ("2", "-1", "0.5", "nan", "inf")
# \x0b, \x0c and \x85 pad a number for float(); \x1c does not, though
# numpy's parser strips it
_GOOD_CELLS = ("0.5", "-1.25", "3", "+1", "1_0", "\u0661", " 1.0 ", "\t2e-3", '"0.25"',
               "1e-320", "\x0b1.5", "2\x0c", "\x850.75")
_NON_FINITE_CELLS = ("Infinity", "-inf", "nan", "1e999")
_NON_NUMERIC_CELLS = ("oops", "", "1..2", '"1,5"', "0x10", "#1", "1\x0c2", "0.5\x1c")
_ROW_FAULTS = (("non-finite", "bad-y", "non-numeric") * 2
               + ("blank", "spaces", "short", "long", "lone-cr"))


def _csv_line(header, draw) -> str:
    faults = draw(st.lists(st.sampled_from(_ROW_FAULTS), min_size=1, max_size=3)
                  if draw(st.integers(0, 3)) == 0 else st.just([]))
    if "blank" in faults:
        return ""
    if "spaces" in faults:
        return draw(st.sampled_from([" ", "\t", "  "]))
    cells = [draw(st.sampled_from(_GOOD_Y if name == "y" else _GOOD_CELLS))
             for name in header]
    zx = [j for j, name in enumerate(header) if name != "y"]
    for fault in faults:
        if fault == "bad-y":
            cells[header.index("y")] = draw(st.sampled_from(_BAD_Y))
        elif fault == "non-finite":
            cells[draw(st.sampled_from(zx))] = draw(st.sampled_from(_NON_FINITE_CELLS))
        elif fault == "non-numeric":
            cells[draw(st.integers(0, len(header) - 1))] = draw(
                st.sampled_from(_NON_NUMERIC_CELLS))
    if "short" in faults:
        cells = cells[:draw(st.integers(1, len(cells) - 1))]
    if "long" in faults:
        cells.append("0")
    line = ",".join(cells)
    if "lone-cr" in faults:
        cut = draw(st.integers(0, len(line)))
        line = line[:cut] + "\r" + line[cut:]
    return line


@st.composite
def _csv_texts(draw):
    header = draw(st.sampled_from(_HEADERS))
    quote = draw(st.booleans())
    head = ",".join(f'"{name}"' if quote else name for name in header)
    lines = [_csv_line(header, draw) for _ in range(draw(st.integers(1, 6)))]
    end = draw(st.sampled_from(["\n", "\r\n"]))
    return end.join([head, *lines]) + draw(st.sampled_from([end, ""]))


@given(_csv_texts())
# a long last row: its extra cell lies past n * width cells, where a bulk
# conversion that skipped the width check would drop it unseen
@example("y,z1,x1\n0,1,2\n1,2,3,0\n")
@example("y,z1,x1\n0,1,2\n\n1,2,3\n")  # a blank line between data rows
@example("y,z1,x1\r\n0,1,2\r\n1,2,3\r\n")
@example("y,z1,x1\n0,1,2\n \n1,2,3\n")  # a line of spaces, which loadtxt may skip
@example("y,z1,x1\n0,1\r2,3\n")
@example("y,z1,x1\n0,1,2\x1c\n")
@example('"y",z1,x1\n0,1,2\n')
@example("y,z1,x1\n0,#1,2\n")
@example("y,z1,x1\n\n")  # loadtxt warns on a body with no data
@example("y,z1,x1\n0,1,2,3\n1,2,3,4\n")  # every row long by the same cell
# a cell past the csv module's field size limit is refused, naming its
# row, before the header (here without y) is checked
@example("w,z1,x1\n0,1," + "0" * csv.field_size_limit() + "1\n")
@settings(max_examples=300, deadline=None)
def test_read_csv_matches_per_cell_reader(text):
    """Quoted, padded, underscored, non-ASCII-digit and signed cells, cells
    holding \\x0b, \\x0c, \\x1c, \\x85 or '#', quoted headers, LF or CRLF line
    ends, lone CRs, blank and whitespace-only lines, ragged rows,
    non-numeric cells, y outside {0, 1} and non-finite cells, alone or
    several in different rows: the reader returns the per-cell reader's
    arrays byte for byte or raises its exact CliError, with no warning."""
    with tempfile.TemporaryDirectory() as tmp, warnings.catch_warnings():
        warnings.simplefilter("error")
        path = Path(tmp) / "d.csv"
        path.write_text(text, newline="")
        try:
            want = _per_cell_read_csv(path)
        except CliError as exc:
            with pytest.raises(CliError) as got:
                read_dataset_csv(path)
            assert str(got.value) == str(exc)
            return
        got = read_dataset_csv(path)
        for name in ("y", "z", "x"):
            assert getattr(got, name).dtype == getattr(want, name).dtype
            assert getattr(got, name).tobytes() == getattr(want, name).tobytes(), name


# 1 and 0, each spelled three ways: lines that differ as text and agree as values
_SPELLINGS = ("1", "1.0", "1e0", "0", "-0", "0.0")


# what a line may carry that the plain path leaves to the csv module
_TAINTS = ("\r", '"', "\x1c", "\x1d", "\x1e", "\x1f")


def _tainted(line: str, draw) -> str:
    """line, or (one time in four) line with a lone CR, a quote or a \\x1c-\\x1f
    character inserted, or a blank line in its place."""
    if draw(st.integers(0, 3)):
        return line
    taint = draw(st.sampled_from(("", *_TAINTS)))
    if not taint:
        return ""
    cut = draw(st.integers(0, len(line)))
    return line[:cut] + taint + line[cut:]


@st.composite
def _repeating_csv_texts(draw):
    """Data lines drawn from a pool of at most four, so that they repeat: a
    pool line spells its cells from _SPELLINGS, or is a `_csv_line`, which
    may carry faults, repeated wherever the line is; the header and a pool
    line may carry a lone CR, a quote or a \\x1c-\\x1f character, or be blank.
    Each line ends in LF or CRLF of its own, the last also in a bare CR or
    in nothing."""
    header = draw(st.sampled_from(_HEADERS))
    pool = [_tainted(",".join(draw(st.sampled_from(_SPELLINGS)) for _ in header)
                     if draw(st.booleans()) else _csv_line(header, draw), draw)
            for _ in range(draw(st.integers(1, 4)))]
    lines = [_tainted(",".join(header), draw),
             *draw(st.lists(st.sampled_from(pool), min_size=1, max_size=12))]
    ends = [draw(st.sampled_from(["\n", "\r\n"])) for _ in lines[:-1]]
    ends.append(draw(st.sampled_from(["\n", "\r\n", "\r", ""])))
    return "".join(line + end for line, end in zip(lines, ends))


@given(_repeating_csv_texts())
@example("y,z1,x1\n1,0,0\n1.0,-0,0.0\n1e0,0.0,-0\n1,0,0\n0,1,1\n1,0,0\n")
@example("y,z1,x1\n0,1,2\n0,oops,2\n0,1,2\n0,oops,2\n")  # a repeated fault, first at row 3
@example("y,z1,x1\n0,1,2\n0,1,2\n2,1,2\n0,1,inf\n2,1,2\n")
@example("y,z1,x1\n0,1,2\n0,1_0,2\n0,1_0,2\n")  # float() reads 1_0, loadtxt does not
# 0,1,2 ends in CRLF and then in LF: one row of count 3, first at row 2
@example("y,z1,x1\r\n0,1,2\r\n1,0,0\n0,1,2\n0,1,2\n")
@example("y,z1,x1\n0,1\r,2\n1,0,0\n0,1\r,2\n")  # a repeated lone CR
@example("y,z1,x1\n0,1,2\n\n0,1,2\n\n")  # a repeated blank line
@example('y,"z1",x1\n0,1,2\n0,1,2\n')  # a quote in the header only
@example("y,z1,x1\n0,1,2\n0,1,2\r")  # the last line ends in a bare CR
@example("")  # an empty file
@settings(max_examples=300, deadline=None)
def test_fit_rows_match_the_per_cell_reader_on_repeated_lines(text):
    """On bodies whose lines repeat, the rows `fit` reads (`_read_rows`) are
    the distinct rows of the per-cell reader's dataset: the same rows, bytes,
    order, counts, total and first occurrences; `read_dataset_csv` returns
    the per-cell reader's arrays byte for byte; a faulty body raises the
    per-cell reader's exact CliError, naming its first faulty row, from both."""
    with tempfile.TemporaryDirectory() as tmp, warnings.catch_warnings():
        warnings.simplefilter("error")
        path = Path(tmp) / "d.csv"
        path.write_text(text, newline="")
        try:
            want = _per_cell_read_csv(path)
        except CliError as exc:
            for read in (cli._read_rows, read_dataset_csv):
                with pytest.raises(CliError) as got:
                    read(path)
                assert str(got.value) == str(exc)
            return
        got, rows, ref = read_dataset_csv(path), cli._read_rows(path), _distinct(want)
        for name in ("y", "z", "x"):
            for a, b in ((got, want), (rows.data, ref.data)):
                assert getattr(a, name).dtype == getattr(b, name).dtype
                assert getattr(a, name).tobytes() == getattr(b, name).tobytes(), name
        assert rows.counts.dtype == ref.counts.dtype
        assert rows.counts.tobytes() == ref.counts.tobytes() and rows.total == ref.total
        assert (rows.first is None) == (ref.first is None)
        if ref.first is not None:
            assert rows.first.dtype == ref.first.dtype
            assert rows.first.tolist() == ref.first.tolist()


def _refuse_per_cell_floats(monkeypatch):
    """Make the per-cell float conversion (np.fromiter to float) fail; an
    integer np.fromiter, such as read_dataset_csv's line index, still runs."""
    fromiter = np.fromiter

    def refuse(it, dtype, *args, **kwargs):
        if np.dtype(dtype).kind == "f":
            raise AssertionError("the per-cell float conversion ran")
        return fromiter(it, dtype, *args, **kwargs)

    monkeypatch.setattr(np, "fromiter", refuse)


def test_fit_parses_each_distinct_line_once(tmp_path, monkeypatch):
    """A `write_dataset_csv` file of 2,000 S1-binary rows, which repeat 12
    lines, is parsed by numpy's C parser once per distinct line, and neither
    `fit` nor `read_dataset_csv` converts a cell one at a time."""
    sc = next(s for s in scenario_catalog() if s.name == "S1-binary")
    path = tmp_path / "d.csv"
    write_dataset_csv(path, sample_dataset(sc.law, 2000, 3))
    parsed, loadtxt = [], np.loadtxt

    def counted_loadtxt(lines, *args, **kwargs):
        parsed.append(len(lines))
        return loadtxt(lines, *args, **kwargs)

    monkeypatch.setattr(np, "loadtxt", counted_loadtxt)
    _refuse_per_cell_floats(monkeypatch)
    rows = cli._read_rows(path)
    assert read_dataset_csv(path).n == rows.total == 2000
    assert parsed == [len(set(path.read_text().splitlines()[1:]))] * 2
    assert rows.data.n <= parsed[0] <= 12


def test_plain_read_builds_no_copy_of_the_text(tmp_path, monkeypatch):
    """A `write_dataset_csv` file of 2,000 S1-binary rows (CRLF line ends) is
    checked on its split lines: neither `fit` nor `read_dataset_csv` builds an
    io.StringIO of its text, and the csv module reads its header line alone."""
    sc = next(s for s in scenario_catalog() if s.name == "S1-binary")
    path = tmp_path / "d.csv"
    write_dataset_csv(path, sample_dataset(sc.law, 2000, 3))
    head = path.read_bytes().decode().split("\n")[0]
    assert head.endswith("\r")
    seen, reader = [], csv.reader

    def spied_reader(lines, *args, **kwargs):
        seen.append(list(lines))
        return reader(seen[-1], *args, **kwargs)

    def refuse(*args, **kwargs):
        raise AssertionError("an io.StringIO was built")

    monkeypatch.setattr(csv, "reader", spied_reader)
    monkeypatch.setattr(io, "StringIO", refuse)
    assert cli._read_rows(path).total == read_dataset_csv(path).n == 2000
    assert seen == [[head]] * 2


@pytest.mark.parametrize("head, row", [
    ("y,z1,x1\n0,1,2\n1,0.5,", 3),
    ('y,z1,x1\n0,"1\n",2\n1,0.5,', 3),  # row 2 spans two lines
    ("y,z1,", 1),
])
def test_fit_cell_past_field_size_limit_exits_2_naming_the_row(tmp_path, head, row):
    """A cell longer than csv.field_size_limit() is refused with exit 2 and
    one error line naming its csv row, not a csv.Error traceback."""
    bad = tmp_path / "bad.csv"
    bad.write_text(head + "0" * (csv.field_size_limit() + 1) + "\n0,1,2\n", newline="")
    rc, err = _main_stderr(["fit", "--data", str(bad), "--config", str(EXAMPLE_CFG)])
    assert rc == 2
    assert err == (f"error: {bad}: row {row}: field larger than field limit "
                   f"({csv.field_size_limit()})\n")


@pytest.mark.parametrize("head, row", [
    (b"y,z1,x1\n0,1,2\n1,0.5,", 3),
    (b'y,z1,x1\n0,"1\n",2\n1,0.5,', 3),  # row 2 spans two lines
    (b"y,z1,x1\r\n0,1,2\r\n", 3),  # at the start of a row
    (b"y,\xe9", 1),  # in the header, a Latin-1 e-acute
])
def test_fit_non_utf8_byte_exits_2_naming_the_row(tmp_path, head, row):
    """A byte that is not UTF-8 is refused with exit 2 and one error line
    naming its csv row, its value and its offset in the file."""
    bad = tmp_path / "bad.csv"
    bad.write_bytes(head + b"\xff,0.5\n0,1,2\n")
    rc, err = _main_stderr(["fit", "--data", str(bad), "--config", str(EXAMPLE_CFG)])
    assert rc == 2
    byte = head[-1] if head.endswith(b"\xe9") else 0xFF
    offset = len(head) - 1 if head.endswith(b"\xe9") else len(head)
    assert err.startswith(f"error: {bad}: row {row} is not UTF-8: byte {byte:#04x} at "
                          f"offset {offset} (")
    assert err.count("\n") == 1


def test_plain_csv_takes_the_c_parser(tmp_path, monkeypatch):
    """A `write_dataset_csv` file (CRLF line ends) and the bundled example
    are read by numpy's C parser, never by the per-cell float conversion,
    and give the per-cell reader's arrays byte for byte."""
    sc = next(s for s in scenario_catalog() if s.name == "S2-gaussian")
    written = tmp_path / "d.csv"
    write_dataset_csv(written, sample_dataset(sc.law, 300, 11))
    assert b"\r\n" in written.read_bytes()
    wants = {path: _per_cell_read_csv(path) for path in (written, EXAMPLE_CSV)}
    _refuse_per_cell_floats(monkeypatch)
    for path, want in wants.items():
        got = read_dataset_csv(path)
        for name in ("y", "z", "x"):
            assert getattr(got, name).tobytes() == getattr(want, name).tobytes(), (path, name)


def _main_stderr(argv) -> tuple[int, str]:
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        rc = main(argv)
    return rc, err.getvalue()


@given(st.integers(-3, 0))
@example(0)
@settings(max_examples=10, deadline=None)
def test_simulate_rejects_nonpositive_workers(workers):
    rc, err = _main_stderr(["simulate", "--scenarios", "S1-binary",
                            "--workers", str(workers)])
    assert rc == 2 and "workers" in err


@given(st.one_of(st.just(0.0), st.just(1.0), st.just(math.nan),
                 st.floats(max_value=0.0), st.floats(min_value=1.0)))
@settings(max_examples=30, deadline=None)
def test_fit_rejects_level_outside_unit_interval(level):
    rc, err = _main_stderr(["fit", "--data", str(EXAMPLE_CSV), "--config", str(EXAMPLE_CFG),
                            f"--level={level!r}"])
    assert rc == 2 and "level" in err


_LETTERS = st.text("abcdefghijklmnopqrstuvwxyz", min_size=1).filter(
    lambda s: s not in ("nan", "inf", "infinity"))
_NOT_A_NUMBER = st.one_of(_LETTERS, st.none(), st.lists(st.integers(), max_size=2),
                          st.dictionaries(_LETTERS, st.integers(), max_size=1))
_GOOD_BASIS = [{"kind": "intercept"}, {"kind": "linear", "j": 0}]


# a config each command runs on, and which a bad value of one key spoils
_BASE_CONFIGS = {"fit": {"basis": _GOOD_BASIS},
                 "simulate": {"scenarios": ["S1-binary"]},
                 "compare": {"scenarios": ["S1-binary"], "phis": ["simple", "identity"]}}
# the commands that read each key besides basis
_READERS = {"level": ("fit", "simulate"), "z_families": ("fit",),
            "estimators": ("fit", "simulate"), "phis": ("compare",), "out": tuple(_BASE_CONFIGS),
            **{key: ("simulate", "compare")
               for key in ("scenarios", "seed", "workers", "n", "replications")}}


def _case(command: str, key: str, value, names: str | None = None):
    return command, {**_BASE_CONFIGS[command], key: value}, None, names or f"'{key}'"


def _unread(command: str, key: str, value):
    return _case(command, key, value, f"config key '{key}' is not read by {command}")


def _read_by(keys):
    """(command, key) for each key and each command that reads it."""
    return st.sampled_from([(command, key) for key in keys for command in _READERS[key]])


def _malformed_configs():
    """(command, config, DRLOGIT_SEED or None, text the error line must contain)."""
    index = st.sampled_from(["j", "k"])
    bad_index = st.one_of(_NOT_A_NUMBER, st.integers(max_value=-1))
    return st.one_of(
        st.tuples(st.sampled_from(list(_BASE_CONFIGS)),
                  st.one_of(st.lists(st.integers(), max_size=2), st.integers(), _LETTERS,
                            st.none()))
        .map(lambda ct: (ct[0], ct[1], None, "JSON object")),
        st.one_of(_LETTERS, st.integers(), st.none(), st.lists(st.integers(), max_size=1))
        .map(lambda term: _case("fit", "basis", [*_GOOD_BASIS, term], "'basis' term 2")),
        st.tuples(index, bad_index).map(lambda kv: _case(
            "fit", "basis", [*_GOOD_BASIS, {"kind": "interaction", "j": 0, "k": 0, kv[0]: kv[1]}],
            f"field '{kv[0]}'")),
        st.tuples(_read_by(["level", "workers", "n", "replications", "seed"]), _NOT_A_NUMBER)
        .map(lambda ck_v: _case(*ck_v[0], ck_v[1])),
        _read_by(["seed"]).map(lambda ck: _case(*ck, -1)),
        # an integer setting takes a JSON integer only, a float setting any JSON number
        st.tuples(_read_by(["workers", "n", "replications", "seed"]),
                  st.one_of(st.booleans(), st.floats(), st.just("7")))
        .map(lambda ck_v: _case(*ck_v[0], ck_v[1])),
        st.tuples(index, st.one_of(st.booleans(), st.floats(), st.just("0"))).map(lambda kv: _case(
            "fit", "basis", [*_GOOD_BASIS, {"kind": "interaction", "j": 0, "k": 0, kv[0]: kv[1]}],
            f"field '{kv[0]}'")),
        st.tuples(_read_by(["level"]), st.one_of(st.booleans(), st.just("0.9")))
        .map(lambda ck_v: _case(*ck_v[0], ck_v[1])),
        st.tuples(_read_by(["n", "replications", "workers"]), st.integers(max_value=0))
        .map(lambda ck_v: _case(*ck_v[0], ck_v[1])),
        st.tuples(st.sampled_from(["simulate", "compare"]),
                  st.one_of(_LETTERS, st.just("1.5"), st.just("-3")))
        .map(lambda ce: (ce[0], _BASE_CONFIGS[ce[0]], ce[1], "DRLOGIT_SEED")),
        st.tuples(_read_by(["z_families", "estimators", "scenarios", "phis"]),
                  st.one_of(st.integers(), _LETTERS, st.none(), st.booleans(),
                            st.lists(st.one_of(st.integers(), st.none()), min_size=1,
                                     max_size=2),
                            st.dictionaries(_LETTERS, st.integers(), max_size=1)))
        .map(lambda ck_v: _case(*ck_v[0], ck_v[1])),
        st.tuples(_read_by(["out"]),
                  st.one_of(st.integers(), st.none(), st.booleans(),
                            st.lists(_LETTERS, max_size=2),
                            st.dictionaries(_LETTERS, st.integers(), max_size=1)))
        .map(lambda ck_v: _case(*ck_v[0], ck_v[1])),
        st.sampled_from([("fit", "z_families", ["gausian"]), ("fit", "estimators", ["mle", "ml"]),
                         ("simulate", "estimators", ["dr_simpel"]),
                         ("simulate", "scenarios", ["S9"]), ("compare", "scenarios", ["S1-bin"]),
                         ("compare", "phis", ["simple", "optimum"])])
        .map(lambda ckv: _case(*ckv)),
        # a key the command does not read, misspelt or another command's
        st.tuples(st.sampled_from(list(_BASE_CONFIGS)), _LETTERS, st.just(1))
        .filter(lambda ckv: ckv[1] not in cli._CONFIG_KEYS[ckv[0]])
        .map(lambda ckv: _unread(*ckv)),
        st.sampled_from([("fit", "estimater", ["mle"]), ("fit", "seed", 1),
                         ("fit", "data", "d.csv"), ("compare", "level", 0.5),
                         ("simulate", "basis", "nonsense"),
                         ("simulate", "phis", ["simple", "identity"])])
        .map(lambda ckv: _unread(*ckv)),
    )


@given(_malformed_configs())
@settings(max_examples=150, deadline=None)
def test_malformed_config_exits_2_naming_the_field(case):
    """A config key the command does not read, a value of the wrong type or
    range for a key it reads, and a DRLOGIT_SEED that is not a nonnegative
    integer (simulate and compare) exit 2 with one error line naming the key,
    never with a traceback or exit 1, before any data is read or a replication
    run.  A config `out` is tried without --out, from a temporary working
    directory."""
    command, cfg, env_seed, names = case
    # os.chdir: contextlib.chdir needs Python 3.11, above the declared floor of 3.10
    with tempfile.TemporaryDirectory() as tmp:
        cwd = os.getcwd()
        os.chdir(tmp)
        try:
            path = Path(tmp) / "cfg.json"
            path.write_text(json.dumps(cfg))
            env = {} if env_seed is None else {"DRLOGIT_SEED": env_seed}
            out = [] if isinstance(cfg, dict) and "out" in cfg else ["--out", tmp]
            data = ["--data", str(EXAMPLE_CSV)] if command == "fit" else []
            refuse = mock.Mock(side_effect=AssertionError("ran before the config was checked"))
            with mock.patch.dict(os.environ, env), \
                    mock.patch.object(cli, "_read_rows", refuse), \
                    mock.patch.object(simulate, "run_scenarios", refuse):
                if env_seed is None:
                    os.environ.pop("DRLOGIT_SEED", None)
                rc, err = _main_stderr([command, *data, "--config", str(path), *out])
        finally:
            os.chdir(cwd)
    lines = err.splitlines()
    assert rc == 2, err
    assert len(lines) == 1 and lines[0].startswith("error: ") and names in lines[0], err


def test_integer_settings_run_from_json_integers(tmp_path, capsys):
    """The JSON integers that the malformed-config cases vary run: n, replications,
    seed and workers on simulate, a basis term's j on fit."""
    cfg = tmp_path / "sim.json"
    cfg.write_text(json.dumps({"scenarios": ["S1-binary"], "estimators": ["mle"], "n": 200,
                               "replications": 3, "seed": 1, "workers": 1}))
    assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path)]) == 0
    assert "finished S1-binary (n=200, R=3)" in capsys.readouterr().out
    cfg.write_text(json.dumps({"basis": [{"kind": "intercept"}, {"kind": "linear", "j": 0}],
                               "level": 0.9}))
    assert main(["fit", "--data", str(EXAMPLE_CSV), "--config", str(cfg),
                 "--out", str(tmp_path)]) == 0


def test_config_keys_and_fit_example_match_the_readme(tmp_path):
    """The README's per-command key table is the CLI's, and `fit` runs its
    fit config example (on data with the two x columns its basis uses)."""
    text = README.read_text()
    table = {}
    for line in text.splitlines():
        cells = [c.strip() for c in line.strip().strip("|").split("|")]
        if len(cells) == 2 and cells[0].strip("`") in cli._CONFIG_KEYS:
            table[cells[0].strip("`")] = tuple(k.strip(" `") for k in cells[1].split(","))
    assert table == cli._CONFIG_KEYS
    example = text.split("Fit config JSON:", 1)[1].split("```json", 1)[1].split("```", 1)[0]
    cfg = tmp_path / "cfg.json"
    cfg.write_text(example)
    rng = np.random.default_rng(5)
    x = rng.uniform(-1.0, 1.0, (500, 2))
    z = (rng.uniform(size=500) < 1.0 / (1.0 + np.exp(-x[:, 0]))).astype(float)
    y = (rng.uniform(size=500) < 1.0 / (1.0 + np.exp(-0.5 * z - x[:, 1]))).astype(np.int64)
    write_dataset_csv(tmp_path / "d.csv", Dataset(y, z[:, None], x))
    assert main(["fit", "--data", str(tmp_path / "d.csv"), "--config", str(cfg),
                 "--out", str(tmp_path)]) == 0


@pytest.mark.parametrize("data", ["directory", ""])
def test_fit_data_not_a_readable_file_exits_2_naming_it(data, tmp_path):
    """A --data that names a directory, or an empty one, exits 2 with one
    error line naming the path, without a traceback."""
    path = str(tmp_path) if data == "directory" else data
    rc, err = _main_stderr(["fit", "--data", path, "--config", str(EXAMPLE_CFG),
                            "--out", str(tmp_path)])
    assert rc == 2, err
    assert err.splitlines() == [f"error: data path {str(Path(path))!r} is not a readable file"]


def test_fit_phi_flag_overrides(tmp_path):
    assert main(["fit", "--data", str(EXAMPLE_CSV), "--config", str(EXAMPLE_CFG),
                 "--phi", "identity", "--out", str(tmp_path)]) == 0
    payload = json.loads((tmp_path / "estimates.json").read_text())
    names = set(payload["estimators"])
    assert "dr_identity" in names
    assert not any(n.startswith("dr_") and n != "dr_identity" for n in names)


def test_fit_phi_flag_without_config_estimators_fits_it_alone(tmp_path):
    """--phi on a config without `estimators` fits dr_<phi> alone, not the
    default menu with it."""
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"basis": _GOOD_BASIS, "z_families": ["bernoulli"]}))
    assert main(["fit", "--data", str(EXAMPLE_CSV), "--config", str(cfg),
                 "--phi", "identity", "--out", str(tmp_path)]) == 0
    assert list(json.loads((tmp_path / "estimates.json").read_text())["estimators"]) == [
        "dr_identity"]


def test_fit_does_not_read_drlogit_seed(tmp_path, monkeypatch):
    """fit reads no seed: under DRLOGIT_SEED=abc it exits 0 and writes the
    bytes it writes without it."""
    out_env, out_plain = tmp_path / "env", tmp_path / "plain"
    monkeypatch.setenv("DRLOGIT_SEED", "abc")
    assert main(["fit", "--data", str(EXAMPLE_CSV), "--config", str(EXAMPLE_CFG),
                 "--out", str(out_env)]) == 0
    monkeypatch.delenv("DRLOGIT_SEED")
    assert main(["fit", "--data", str(EXAMPLE_CSV), "--config", str(EXAMPLE_CFG),
                 "--out", str(out_plain)]) == 0
    assert (out_env / "estimates.json").read_bytes() == (out_plain / "estimates.json").read_bytes()


def test_simulate_workers_and_bytes(tmp_path):
    cfg = tmp_path / "sim.json"
    cfg.write_text(json.dumps({"n": 300, "replications": 16,
                               "estimators": ["mle", "dr_simple"]}))
    out1, out2 = tmp_path / "w1", tmp_path / "w2"
    assert main(["simulate", "--config", str(cfg), "--scenarios", "S1-binary",
                 "--workers", "1", "--out", str(out1)]) == 0
    assert main(["simulate", "--config", str(cfg), "--scenarios", "S1-binary",
                 "--workers", "2", "--out", str(out2)]) == 0
    assert (out1 / "summary.json").read_bytes() == (out2 / "summary.json").read_bytes()
    assert (out1 / "S1-binary_summary.json").exists()
    # the column order of the summary CSV and summary.md headers
    with open(out1 / "S1-binary_summary.csv", newline="") as fh:
        assert fh.readline() == "scenario,estimator,bias,sd,mean_se,rmse,coverage,mcse,n_fail\r\n"
    md = (out1 / "summary.md").read_text()
    assert md.splitlines(keepends=True)[:2] == [
        "| scenario | estimator | bias | sd | mean_se | rmse | coverage | mcse | n_fail |\n",
        "|---|---|---|---|---|---|---|---|---|\n"]
    assert "S1-binary" in md


def test_simulate_runs_every_scenario_through_one_pool(tmp_path, monkeypatch):
    """simulate and compare on the two editions of S1 with --workers 2 start
    one process pool each, and write what one process writes, byte for byte."""
    pools = []

    class CountingPool(simulate.ProcessPoolExecutor):
        def __init__(self, *args, **kwargs):
            pools.append(kwargs.get("max_workers"))
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(simulate, "ProcessPoolExecutor", CountingPool)
    size = {"n": 250, "replications": 6, "scenarios": ["S1"]}
    for command, config, names in [
            ("simulate", {"estimators": ["dr_simple"]},
             ("summary.json", "summary.md", "S1-binary_summary.csv", "S1-gaussian_summary.json")),
            ("compare", {"phis": ["simple", "identity"]}, ("compare.json",))]:
        pools.clear()
        cfg = tmp_path / f"{command}.json"
        cfg.write_text(json.dumps({**size, **config}))
        out1, out2 = tmp_path / command / "w1", tmp_path / command / "w2"
        for out, workers in ((out1, "1"), (out2, "2")):
            assert main([command, "--config", str(cfg), "--workers", workers,
                         "--out", str(out)]) == 0
        assert pools == [2], command
        for name in names:
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes(), name


@pytest.mark.parametrize("replications, worker_counts", [(7, ("1", "2", "3")), (2, ("1", "5"))],
                         ids=["R7", "R2-more-workers-than-replications"])
def test_simulate_and_compare_bytes_do_not_depend_on_the_worker_count(
        tmp_path, capsys, replications, worker_counts):
    """simulate and compare write the same files and print the same text at
    every worker count, each worker running one interleaved share of the
    replications, also when the workers outnumber the replications; no
    worker process is left running after a call."""
    size = {"n": 250, "replications": replications, "scenarios": ["S1"]}
    for command, config in [("simulate", {"estimators": ["mle", "dr_simple", "dr_optimal"]}),
                            ("compare", {"phis": ["simple", "identity"]})]:
        cfg = tmp_path / f"{command}.json"
        cfg.write_text(json.dumps({**size, **config}))
        outputs = []
        for workers in worker_counts:
            out = tmp_path / command / workers
            assert main([command, "--config", str(cfg), "--workers", workers, "--seed", "4",
                         "--out", str(out)]) == 0
            assert multiprocessing.active_children() == []
            files = {p.name: p.read_bytes() for p in sorted(out.iterdir())}
            outputs.append((capsys.readouterr().out.replace(str(out), "OUT"), files))
        assert all(o == outputs[0] for o in outputs[1:]), command


def test_simulate_mass_failure_keeps_earlier_scenario_files(tmp_path, monkeypatch, capsys):
    """A second scenario failing in more than 20% of its replications exits
    1 naming it, after the first scenario's files are written."""
    run_replication = simulate._run_replication

    def failing_gaussian(sc, rep, estimators):
        if sc.name == "S1-gaussian":
            return {name: None for name in estimators}
        return run_replication(sc, rep, estimators)

    monkeypatch.setattr(simulate, "_run_replication", failing_gaussian)
    cfg = tmp_path / "sim.json"
    cfg.write_text(json.dumps({"n": 250, "replications": 5, "estimators": ["dr_simple"]}))
    out = tmp_path / "out"
    assert main(["simulate", "--config", str(cfg), "--scenarios", "S1", "--workers", "1",
                 "--out", str(out)]) == 1
    assert "'S1-gaussian': estimator 'dr_simple' failed in 5/5" in capsys.readouterr().err
    assert sorted(p.name for p in out.iterdir()) == ["S1-binary_summary.csv",
                                                     "S1-binary_summary.json"]


def test_simulate_family_name_selects_both_editions(tmp_path):
    cfg = tmp_path / "sim.json"
    cfg.write_text(json.dumps({"n": 250, "replications": 6,
                               "estimators": ["dr_simple"]}))
    out = tmp_path / "out"
    assert main(["simulate", "--config", str(cfg), "--scenarios", "S1",
                 "--out", str(out)]) == 0
    rows = json.loads((out / "summary.json").read_text())["results"]
    assert {r["scenario"] for r in rows} == {"S1-binary", "S1-gaussian"}


def test_simulate_surfaces_s2_contrast(tmp_path):
    """At reduced scale the S2 row already shows the quasi-MLE bias
    exceeding every doubly robust bias."""
    cfg = tmp_path / "sim.json"
    cfg.write_text(json.dumps({"n": 1500, "replications": 48,
                               "estimators": ["mle", "dr_simple"]}))
    out = tmp_path / "out"
    assert main(["simulate", "--config", str(cfg), "--scenarios", "S2-gaussian",
                 "--workers", "2", "--out", str(out)]) == 0
    rows = json.loads((out / "summary.json").read_text())["results"]
    bias = {r["estimator"]: abs(r["bias"]) for r in rows}
    assert bias["mle"] > bias["dr_simple"]


def test_simulate_unknown_scenario(tmp_path, capsys):
    rc = main(["simulate", "--scenarios", "S9", "--out", str(tmp_path)])
    assert rc == 2
    err = capsys.readouterr().err
    assert "S9" in err and "S1-binary" in err


def test_simulate_env_seed_fallback(tmp_path, monkeypatch):
    cfg = tmp_path / "sim.json"
    cfg.write_text(json.dumps({"n": 250, "replications": 8,
                               "estimators": ["dr_simple"]}))
    out_env, out_flag = tmp_path / "env", tmp_path / "flag"
    monkeypatch.setenv("DRLOGIT_SEED", "4242")
    assert main(["simulate", "--config", str(cfg), "--scenarios", "S1-binary",
                 "--out", str(out_env)]) == 0
    monkeypatch.delenv("DRLOGIT_SEED")
    assert main(["simulate", "--config", str(cfg), "--scenarios", "S1-binary",
                 "--seed", "4242", "--out", str(out_flag)]) == 0
    assert (out_env / "summary.json").read_bytes() == (out_flag / "summary.json").read_bytes()


def test_compare_requires_two_variants(tmp_path, capsys):
    cfg = tmp_path / "cmp.json"
    cfg.write_text(json.dumps({"scenarios": ["S1b0-binary"], "phis": ["simple"],
                               "n": 200, "replications": 5}))
    rc = main(["compare", "--config", str(cfg), "--out", str(tmp_path)])
    assert rc == 2
    err = capsys.readouterr().err
    assert "2 phi variants" in err
    assert "--phi" not in err  # the compare parser has no such flag


def test_compare_writes_ratio_table(tmp_path, capsys):
    cfg = tmp_path / "cmp.json"
    cfg.write_text(json.dumps({"scenarios": ["S1b0-binary"],
                               "phis": ["simple", "optimal"],
                               "n": 400, "replications": 24}))
    rc = main(["compare", "--config", str(cfg), "--out", str(tmp_path)])
    assert rc == 0
    rows = json.loads((tmp_path / "compare.json").read_text())["comparison"]
    assert [r["estimator"] for r in rows] == ["dr_simple", "dr_optimal"]
    assert rows[0]["ratio_to_first"] == 1.0
    out = capsys.readouterr().out
    assert "variance" in out


def test_cli_level_validation(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"basis": [{"kind": "intercept"}], "level": 1.5}))
    rc = main(["fit", "--data", str(EXAMPLE_CSV), "--config", str(cfg)])
    assert rc == 2
    assert "level" in capsys.readouterr().err


def test_fit_loads_no_monte_carlo_harness_and_builds_one_subparser(tmp_path):
    """`import drlogit.cli`, read_dataset_csv and a fit leave the Monte Carlo
    harness and the process-pool machinery unloaded (in a fresh
    interpreter); a fit builds its own subparser alone, --help all three."""
    code = (f"import sys\nimport drlogit.cli\n"
            f"drlogit.cli.read_dataset_csv({str(EXAMPLE_CSV)!r})\n"
            f"assert drlogit.cli.main(['fit', '--data', {str(EXAMPLE_CSV)!r}, '--config', "
            f"{str(EXAMPLE_CFG)!r}, '--out', {str(tmp_path)!r}]) == 0\n"
            f"print([m for m in ('drlogit.simulate', 'concurrent.futures', 'multiprocessing') "
            f"if m in sys.modules])")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(REPO / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True, timeout=300)
    assert out.stdout.splitlines()[-1] == "[]", out.stdout

    add_parser = argparse._SubParsersAction.add_parser
    with mock.patch.object(argparse._SubParsersAction, "add_parser", autospec=True,
                           side_effect=add_parser) as counted:
        assert main(["fit", "--data", str(EXAMPLE_CSV), "--config", str(EXAMPLE_CFG),
                     "--out", str(tmp_path)]) == 0
        assert [c.args[1] for c in counted.call_args_list] == ["fit"]
        counted.reset_mock()
        with pytest.raises(SystemExit) as exc:
            main(["--help"])
        assert exc.value.code == 0
        assert [c.args[1] for c in counted.call_args_list] == ["fit", "simulate", "compare"]


@pytest.mark.parametrize("term", [{"kind": "square", "j": 0},
                                  {"kind": "interaction", "j": 0, "k": 1}])
def test_fit_overflowing_basis_term_exits_2_with_one_error_line(tmp_path, term):
    """A basis term that overflows on finite x (x near 1e158) is refused where
    b(x) is built, before any LAPACK call: `drlogit fit` in a fresh process
    exits 2 and writes one `error:` line naming the term and the data row,
    and nothing else, to stderr (no numpy warning, no LAPACK message)."""
    data = tmp_path / "data.csv"
    lines = ["y,z1,x1,x2"] + [f"{i % 2},{(i // 2) % 2},{0.5 * i},{1.0 - 0.1 * i}"
                              for i in range(12)]
    lines.insert(8, "1,0,1.5e158,2e158")  # data row 7, counting from 0
    data.write_text("\n".join(lines) + "\n")
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"basis": [{"kind": "intercept"}, {"kind": "linear", "j": 0},
                                         term], "z_families": ["bernoulli"]}))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(REPO / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    out = subprocess.run([sys.executable, "-m", "drlogit.cli", "fit", "--data", str(data),
                          "--config", str(cfg), "--out", str(tmp_path / "out")], env=env,
                         capture_output=True, text=True, timeout=300)
    assert out.returncode == 2
    assert out.stdout == ""
    kind = term["kind"]
    assert out.stderr.count("\n") == 1 and out.stderr.startswith("error: "), out.stderr
    assert f"kind='{kind}'" in out.stderr and "non-finite (inf) at data row 7 " in out.stderr


@pytest.mark.skipif(f"{sys.version_info[0]}.{sys.version_info[1]}" != CLI_TEXT["python"],
                    reason="argparse's wording changes between Python versions")
@pytest.mark.parametrize("call", CLI_TEXT["calls"], ids=lambda c: " ".join(c["argv"]) or "[]")
def test_cli_text_is_the_recorded_text(call, capsys, monkeypatch):
    """Usage, help and error text and the exit code, for no argv, --help, an
    unknown command, each command's --help, a fit missing its required
    flags and a fit with an unknown flag, are the text recorded in
    tests/cli_text.json; COLUMNS fixes argparse's wrap width."""
    monkeypatch.setenv("COLUMNS", "80")
    try:
        rc = main(call["argv"])
    except SystemExit as exc:
        rc = exc.code
    out, err = capsys.readouterr()
    assert (rc, out, err) == (call["exit"], call["stdout"], call["stderr"])
