"""Command-line interface: fit estimators on CSV data, run simulation
studies, and compare instrument choices.

Each command reads its settings from its flags, then from the config
keys it reads (_CONFIG_KEYS; any other key is refused), then from
defaults; simulate and compare take the environment variable
DRLOGIT_SEED as the seed of last resort.  All outputs are reproducible
byte for byte for a fixed (config, seed): floats are serialized with
repr and no timestamps are written.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import os
import re
import sys
from collections import Counter
from itertools import chain, islice
from pathlib import Path

import numpy as np

from .estimators import DEFAULT_ESTIMATORS, KNOWN_ESTIMATORS, Estimation, wald_interval
from .model import FAMILIES, VARIANTS, Basis, BasisTerm, Dataset, EstimationError
from .nuisance import _distinct, _Rows

__all__ = ["main", "read_dataset_csv", "basis_from_terms"]


class CliError(Exception):
    """User-facing configuration or input error (exit code 2)."""


# ---------------------------------------------------------------------------
# Configuration
# ---------------------------------------------------------------------------


# The config keys each command reads; _load_config refuses any other key.
_CONFIG_KEYS = {
    "fit": ("basis", "z_families", "estimators", "level", "out"),
    "simulate": ("scenarios", "estimators", "level", "seed", "out", "workers", "n",
                 "replications"),
    "compare": ("scenarios", "phis", "seed", "out", "workers", "n", "replications"),
}


def _load_config(path: str | None, command: str) -> dict:
    if path is None:
        return {}
    p = Path(path)
    if not p.exists():
        raise CliError(f"config file does not exist: {p}")
    try:
        cfg = json.loads(p.read_text())
    except json.JSONDecodeError as exc:
        raise CliError(f"config file {p} is not valid JSON: {exc}") from exc
    if not isinstance(cfg, dict):
        raise CliError(f"config file {p} must hold a JSON object, got {type(cfg).__name__}")
    for key in cfg:
        if key not in _CONFIG_KEYS[command]:
            raise CliError(f"config key {key!r} is not read by {command}, which reads: "
                           f"{', '.join(_CONFIG_KEYS[command])}")
    return cfg


def _number(value, name: str, kind=int, minimum=None):
    """value as a kind; a CliError naming it unless value is an int (or, for a
    float setting, a float too, bool never) of at least minimum."""
    if isinstance(value, bool) or not isinstance(value, (int,) if kind is int else (int, float)):
        raise CliError(f"{name} must be {'an integer' if kind is int else 'a number'}, "
                       f"got {value!r}")
    if minimum is not None and value < minimum:
        raise CliError(f"{name} must be at least {minimum}, got {value!r}")
    try:
        return kind(value)
    except OverflowError:  # an int beyond the float range
        raise CliError(f"{name} must be a float, got {value!r}") from None


def _setting(args, cfg: dict, key: str, default, kind=int, minimum=None, env=None):
    """The number that flag --key gives, else config key `key`, else the
    environment variable env, else default."""
    flag = getattr(args, key, None)
    if flag is not None:
        return _number(flag, f"--{key}", kind, minimum)
    if key in cfg:
        return _number(cfg[key], f"config field {key!r}", kind, minimum)
    if env is not None and env in os.environ:
        value = os.environ[env]
        try:
            value = kind(value)
        except ValueError:
            pass  # _number refuses the string, naming env
        return _number(value, env, kind, minimum)
    return default


def _names(cfg: dict, key: str, choices, flag: str | None = None) -> list[str]:
    """The names that the comma-separated flag gives, else the list in
    config key `key`, else none; each must be one of choices."""
    if flag:
        value, name = [s.strip() for s in flag.split(",") if s.strip()], f"--{key}"
    else:
        value, name = cfg.get(key, []), f"config field {key!r}"
    # a string's characters are strings too
    if not isinstance(value, list) or not all(isinstance(v, str) for v in value):
        raise CliError(f"{name} must be a list of strings, got {value!r}")
    for v in value:
        if v not in choices:
            raise CliError(f"{name} has unknown entry {v!r}; choices: {', '.join(choices)}")
    return value


def _level(args, cfg: dict) -> float:
    level = _setting(args, cfg, "level", 0.95, float)
    if not 0.0 < level < 1.0:
        raise CliError(f"confidence level must be inside (0, 1), got {level}")
    return level


def _out_dir(args, cfg: dict) -> Path:
    if args.out:
        return Path(args.out)
    out = cfg.get("out", ".")
    if not isinstance(out, str):
        raise CliError(f"config field 'out' must be a string, got {out!r}")
    return Path(out)


def basis_from_terms(terms: list[dict]) -> Basis:
    """Build a Basis from config entries like {"kind": "linear", "j": 0}."""
    if not terms or not isinstance(terms, list):
        raise CliError("config needs a nonempty 'basis' list of terms")
    built = []
    for i, t in enumerate(terms):
        if not isinstance(t, dict):
            raise CliError(f"config 'basis' term {i} must be an object, got {t!r}")
        j, k = (_number(t.get(key, 0), f"config 'basis' term {i} field {key!r}", minimum=0)
                for key in ("j", "k"))
        built.append((t.get("kind"), j, k))
    try:
        return Basis(tuple(BasisTerm(*term) for term in built))
    except ValueError as exc:
        raise CliError(str(exc)) from exc


# ---------------------------------------------------------------------------
# CSV ingestion
# ---------------------------------------------------------------------------


def _raise_first_row_fault(path, rows, width: int, order: list[int]) -> None:
    """Raise the CliError for the first row (the header is row 1) with a
    wrong cell count, a non-numeric cell (cells tried in y, z1.., x1..
    order) or a y other than 0 or 1, checked in that order per row."""
    for i, row in enumerate(rows, start=2):
        if len(row) != width:
            raise CliError(f"{path}: row {i} has {len(row)} cells, header has {width}")
        try:
            values = [float(row[j]) for j in order]
        except ValueError as exc:
            raise CliError(f"{path}: non-numeric cell in row {i}: {exc}") from exc
        if values[0] not in (0.0, 1.0):
            raise CliError(f"{path}: row {i} has y={row[order[0]]!r}, must be 0 or 1")


def _csv_rows(path, reader, first: int, limit: int | None = None) -> list[list[str]]:
    """The next rows of a csv reader (at most limit), the first of them
    numbered first (the header is row 1); a csv.Error, such as a cell
    longer than csv.field_size_limit(), becomes a CliError naming its row."""
    rows = []
    try:
        rows.extend(islice(reader, limit))
    except csv.Error as exc:
        raise CliError(f"{path}: row {first + len(rows)}: {exc}") from None
    return rows


def _decode_utf8(path, data: bytes) -> str:
    """data as UTF-8 text; a byte sequence that is not UTF-8 is a CliError
    naming the csv row it falls in."""
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        # with one character standing in for the bad byte, the text before it
        # ends in the row that holds it
        before = data[:exc.start].decode("utf-8") + "0"
        row = len(_csv_rows(path, csv.reader(io.StringIO(before, newline="")), 1))
        raise CliError(f"{path}: row {row} is not UTF-8: byte {data[exc.start]:#04x} at "
                       f"offset {exc.start} ({exc.reason})") from None


# a CR that does not end its line
_INNER_CR = re.compile("\r[^\n]")


def _plain_lines(text: str) -> tuple[str, list[str], Counter | None] | None:
    """The header line and the data lines of text when numpy's C parser reads
    the data lines as the csv module and float() do, with their counts in
    order of first occurrence when a line repeats; None when only the csv
    path can read them.  Each check is a property of one line, so it runs on
    the header and the distinct data lines only."""
    # not splitlines(): csv keeps \x0b, \x0c, \x85 and \u2028 inside a cell
    body = text.split("\n")
    if body[-1] == "":
        body.pop()
    if not body:
        return None
    head = body.pop(0)
    counts = Counter(body)
    # csv and loadtxt both end a line at a CR before its LF (or at the end);
    # csv unquotes '"', ends a row at any other CR and reads a blank line as
    # a row of 0 cells, which loadtxt skips; loadtxt strips \x1c-\x1f around
    # a number, which float() refuses
    joined = "\n".join([head, *counts])
    if (any(c in joined for c in '"\x1c\x1d\x1e\x1f') or _INNER_CR.search(joined)
            or "" in counts or "\r" in counts):
        return None
    # a line past csv's field size limit may hold a cell that csv refuses
    if max(map(len, counts), default=0) > csv.field_size_limit():
        return None
    # lines that differ only in a final CR parse to one row, which
    # nuisance._distinct merges by value
    return head, body, counts if len(counts) < len(body) else None


def _parse_plain(body: list[str], width: int, y_col: int, zx_cols: list[int]):
    """The (n, width) cells of plain data lines by numpy's C parser, or None
    where the csv path must look: a token loadtxt refuses, a skipped line,
    a y outside {0, 1} or a non-finite z or x cell."""
    try:
        cells = np.loadtxt(body, delimiter=",", comments=None, dtype=float, ndmin=2)
    except ValueError:
        return None
    if cells.shape != (len(body), width):
        return None
    y = cells[:, y_col]
    if not (((y == 0.0) | (y == 1.0)).all() and np.isfinite(cells[:, zx_cols]).all()):
        return None
    return cells


def _read_lines(path) -> tuple[Dataset, list[str] | None, Counter | None]:
    """The dataset of the CSV at path, and, when its body is plain and repeats
    a line, its data lines and their Counter: the dataset then holds one row
    per distinct line, in the Counter's order.  Raises CliError naming the
    offending column, row or cell on malformed input.

    A plain body goes through numpy's C parser, each distinct line once;
    anything else, and any body that parser refuses, through the csv module
    and Python's float over every row, which define the accepted input and
    every error."""
    with open(path, "rb") as fh:
        text = _decode_utf8(path, fh.read())
    plain = _plain_lines(text)
    if plain is None:
        reader = csv.reader(io.StringIO(text, newline=""))
        body = distinct = None
    else:  # the header line holds no quote, so it is the csv header row
        line, body, distinct = plain
        reader = csv.reader([line])
    head = _csv_rows(path, reader, 1, 1)
    if not head:
        raise CliError(f"{path}: empty file, expected a header row")
    header = head[0]
    # csv reads the rows before the header is checked, so that a row it
    # refuses comes first; a plain body waits for the C parser instead
    rows = _csv_rows(path, reader, 2) if body is None else None
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
    extra = set(cols) - {"y", *z_names, *x_names}
    if extra:
        raise CliError(f"{path}: unexpected columns {sorted(extra)}")

    n, width = len(body if rows is None else rows), len(header)
    if n == 0:
        raise CliError(f"{path}: no data rows")
    y_col = cols["y"]
    z_cols = [cols[name] for name in z_names]
    x_cols = [cols[name] for name in x_names]
    lines = body if distinct is None else list(distinct)
    cells = None if body is None else _parse_plain(lines, width, y_col, z_cols + x_cols)
    if cells is None:
        distinct = None
        if rows is None:  # each plain line is a csv row
            rows = _csv_rows(path, csv.reader(body), 2)
        try:
            if any(len(row) != width for row in rows):
                raise ValueError("ragged rows")
            # Python's float, so the accepted tokens are exactly float()'s
            cells = np.fromiter(map(float, chain.from_iterable(rows)), dtype=float,
                                count=n * width).reshape(n, width)
            y = cells[:, y_col]
            if not ((y == 0.0) | (y == 1.0)).all():
                raise ValueError("y outside {0, 1}")
        except ValueError:
            _raise_first_row_fault(path, rows, width, [y_col, *z_cols, *x_cols])
            raise  # not reached: the walk finds the fault the bulk conversion hit
        z, x = cells[:, z_cols], cells[:, x_cols]
        finite = np.isfinite(z).all(axis=1) & np.isfinite(x).all(axis=1)
        if not finite.all():
            i = int(np.argmin(finite))
            name = next(c for c, v in zip(z_names + x_names, [*z[i], *x[i]])
                        if not math.isfinite(v))
            raise CliError(f"{path}: row {i + 2}, column {name!r} has non-finite value "
                           f"{rows[i][cols[name]]!r}")
    data = Dataset._trusted(cells[:, y_col].astype(np.int64), cells[:, z_cols],
                            cells[:, x_cols])
    return data, body, distinct


def read_dataset_csv(path) -> Dataset:
    """Read a dataset with header y,z1..zp,x1..xq (column order free,
    numbering dense from 1), one row per data row.  Raises CliError naming
    the offending column, row or cell on malformed input."""
    data, body, distinct = _read_lines(path)
    if distinct is None:
        return data
    index = {line: i for i, line in enumerate(distinct)}
    rows = np.fromiter(map(index.__getitem__, body), dtype=np.intp, count=len(body))
    return Dataset._trusted(data.y[rows], data.z[rows], data.x[rows])


def _read_rows(path) -> _Rows:
    """The distinct rows of the dataset that read_dataset_csv(path) reads,
    as nuisance._distinct gives them, without building its n rows when the
    body is plain and repeats a line."""
    data, body, distinct = _read_lines(path)
    if distinct is None:
        return _distinct(data)
    # the first occurrences ascend in the Counter's order
    first = [-1]
    for line in distinct:
        first.append(body.index(line, first[-1] + 1))
    return _distinct(data, np.array(list(distinct.values()), dtype=float),
                     np.array(first[1:], dtype=np.intp))


# ---------------------------------------------------------------------------
# fit
# ---------------------------------------------------------------------------


def cmd_fit(args, cfg: dict) -> int:
    path = Path(args.data)
    if not (path.is_file() and os.access(path, os.R_OK)):
        raise CliError(f"data path {str(path)!r} is not a readable file")
    basis = basis_from_terms(cfg.get("basis"))
    z_families = _names(cfg, "z_families", FAMILIES)
    estimators = _names(cfg, "estimators", KNOWN_ESTIMATORS)
    if args.phi:
        estimators = [e for e in estimators if not e.startswith("dr_")] + [f"dr_{args.phi}"]
    estimators = estimators or ["mle", "dr_simple"]
    level = _level(args, cfg)
    out_dir = _out_dir(args, cfg)

    rows = _read_rows(path)
    data = rows.data
    z_families = z_families or ["gaussian"] * data.p
    if len(z_families) != data.p:
        raise CliError(f"config lists {len(z_families)} z_families but data has p={data.p}")

    results, ctx = {}, None
    for name in estimators:
        try:
            if ctx is None:  # the outcome fit's failure is the first estimator's
                ctx = Estimation._of_rows(rows, basis, z_families)
            beta, se, diag = ctx.estimate(name)
        except (EstimationError, ValueError) as exc:
            raise CliError(f"estimator {name!r} failed: {exc}") from exc
        results[name] = {"beta": beta.tolist(), "se": se.tolist(),
                         "ci": wald_interval(beta, se, level).tolist(), "diagnostics": diag}

    out_dir.mkdir(parents=True, exist_ok=True)
    payload = {"n": int(rows.total), "p": data.p, "q": data.q, "level": level,
               "estimators": results}
    out_path = out_dir / "estimates.json"
    with open(out_path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")

    print(f"{'estimator':<16}{'beta':>12}{'se':>12}{'ci_low':>12}{'ci_high':>12}")
    for name, res in results.items():
        for a in range(len(res["beta"])):
            lab = name if len(res["beta"]) == 1 else f"{name}[{a}]"
            print(f"{lab:<16}{res['beta'][a]:>12.6g}{res['se'][a]:>12.6g}"
                  f"{res['ci'][a][0]:>12.6g}{res['ci'][a][1]:>12.6g}")
    print(f"wrote {out_path}")
    return 0


# ---------------------------------------------------------------------------
# simulate / compare
# ---------------------------------------------------------------------------


def _study(args, cfg: dict):
    """The scenarios, worker count and output directory of a simulate or
    compare call: the scenarios (or families of them) that --scenarios
    or the config selects, all by default, resized by the config's n and
    replications; a seed from --seed, the config or DRLOGIT_SEED replaces
    the catalog seeds, offset by 1009 per scenario."""
    from .simulate import scenario_catalog, with_size
    catalog = scenario_catalog()
    choices = {sc.name: [sc] for sc in catalog}
    for sc in catalog:
        choices.setdefault(sc.family, []).append(sc)
    names = _names(cfg, "scenarios", choices, getattr(args, "scenarios", None))
    scenarios = [sc for name in names for sc in choices[name]] if names else list(catalog)
    seed = _setting(args, cfg, "seed", None, minimum=0, env="DRLOGIT_SEED")
    n = _setting(args, cfg, "n", None, minimum=1)
    replications = _setting(args, cfg, "replications", None, minimum=1)
    scenarios = [with_size(sc, n=n, replications=replications,
                           seed=None if seed is None else seed + 1009 * i)
                 for i, sc in enumerate(scenarios)]
    return scenarios, _setting(args, cfg, "workers", 1, minimum=1), _out_dir(args, cfg)


def markdown_table(summaries) -> str:
    """simulate.MonteCarloSummary objects as one markdown table."""
    from .simulate import SUMMARY_COLUMNS, summary_rows
    lines = ["| " + " | ".join(SUMMARY_COLUMNS) + " |", "|---" * len(SUMMARY_COLUMNS) + "|"]
    for s in summaries:
        for row in summary_rows(s):
            lines.append("| " + " | ".join(f"{v:.6g}" if isinstance(v, float) else str(v)
                                           for v in row.values()) + " |")
    return "\n".join(lines) + "\n"


def cmd_simulate(args, cfg: dict) -> int:
    from .simulate import run_scenarios, write_summary_csv, write_summary_json
    estimators = _names(cfg, "estimators", KNOWN_ESTIMATORS) or list(DEFAULT_ESTIMATORS)
    level = _level(args, cfg)
    scenarios, workers, out_dir = _study(args, cfg)
    out_dir.mkdir(parents=True, exist_ok=True)
    jobs = []
    for sc in scenarios:
        menu = estimators
        if "closed_form" in menu and sc.z_families[0] != "bernoulli":
            menu = [e for e in menu if e != "closed_form"]
        jobs.append((sc, menu))
    summaries = []
    for summary in run_scenarios(jobs, level=level, workers=workers):
        summaries.append(summary)
        write_summary_json([summary], out_dir / f"{summary.scenario}_summary.json")
        write_summary_csv([summary], out_dir / f"{summary.scenario}_summary.csv")
        print(f"finished {summary.scenario} (n={summary.n}, R={summary.replications})")
    (out_dir / "summary.md").write_text(markdown_table(summaries))
    write_summary_json(summaries, out_dir / "summary.json")
    print(f"wrote {out_dir / 'summary.md'}")
    return 0


def cmd_compare(args, cfg: dict) -> int:
    from .simulate import run_scenarios
    phis = _names(cfg, "phis", VARIANTS)
    if len(phis) < 2:
        raise CliError("compare needs at least 2 phi variants in the config field 'phis'")
    scenarios, workers, out_dir = _study(args, cfg)
    if len(cfg.get("scenarios", [])) != 1:  # _study has checked it is a list of names
        raise CliError("compare needs exactly one scenario name")
    out_dir.mkdir(parents=True, exist_ok=True)
    menu = [f"dr_{phi}" for phi in phis]
    rows = []
    for summary in run_scenarios([(sc, menu) for sc in scenarios], workers=workers):
        variances = {e.estimator: e.sd**2 for e in summary.estimators}
        base = variances[menu[0]]
        for name in menu:
            rows.append({
                "scenario": summary.scenario,
                "estimator": name,
                "variance": variances[name],
                "ratio_to_first": variances[name] / base if base > 0 else float("nan"),
            })
    payload = {"comparison": rows}
    with open(out_dir / "compare.json", "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(f"{'scenario':<16}{'estimator':<16}{'variance':>14}{'ratio':>10}")
    for row in rows:
        print(f"{row['scenario']:<16}{row['estimator']:<16}"
              f"{row['variance']:>14.6g}{row['ratio_to_first']:>10.6g}")
    print(f"wrote {out_dir / 'compare.json'}")
    return 0


# ---------------------------------------------------------------------------
# Argument parsing
# ---------------------------------------------------------------------------


def _fit_parser(sub) -> None:
    p = sub.add_parser("fit", help="fit estimators on a CSV dataset")
    p.add_argument("--data", required=True)
    p.add_argument("--config", required=True)
    p.add_argument("--phi", choices=VARIANTS)
    p.add_argument("--level", type=float)
    p.add_argument("--out", default=None)


def _simulate_parser(sub) -> None:
    p = sub.add_parser("simulate", help="run Monte Carlo scenarios")
    p.add_argument("--config", default=None)
    p.add_argument("--scenarios", default=None,
                   help="comma-separated scenario or family names (e.g. S1,S2)")
    p.add_argument("--workers", type=int, default=None)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--out", default=None)


def _compare_parser(sub) -> None:
    p = sub.add_parser("compare", help="compare instrument choices on one scenario")
    p.add_argument("--config", required=True)
    p.add_argument("--workers", type=int, default=None)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--out", default=None)


_COMMANDS = {"fit": (_fit_parser, cmd_fit), "simulate": (_simulate_parser, cmd_simulate),
             "compare": (_compare_parser, cmd_compare)}


def _build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The parser with the subparser of command alone, or of every command
    when command is None.  With one command, the metavar keeps every name
    in the usage line; the full parser leaves it unset, since argparse would
    also print it in place of "command" in its error messages."""
    parser = argparse.ArgumentParser(
        prog="drlogit",
        description="Doubly robust estimation for logistic partially linear models.")
    metavar = None if command is None else "{" + ",".join(_COMMANDS) + "}"
    sub = parser.add_subparsers(dest="command", required=True, metavar=metavar)
    for name, (add_parser, _) in _COMMANDS.items():
        if command in (None, name):
            add_parser(sub)
    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    # --help, no argv or an unknown command build every subparser
    command = argv[0] if argv and argv[0] in _COMMANDS else None
    args = _build_parser(command).parse_args(argv)
    try:
        return _COMMANDS[args.command][1](args, _load_config(args.config, args.command))
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (EstimationError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
