"""Command-line interface: fit estimators on CSV data, run simulation
studies, and compare instrument choices.

Configuration comes from a JSON file; command-line flags override config
fields, and the environment variable DRLOGIT_SEED is the seed of last
resort.  All outputs are reproducible byte for byte for a fixed
(config, seed): floats are serialized with repr and no timestamps are
written.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import os
import sys
from dataclasses import dataclass, field
from itertools import chain, islice
from pathlib import Path

import numpy as np

from .estimators import DEFAULT_ESTIMATORS, KNOWN_ESTIMATORS, _Context, wald_interval
from .model import VARIANTS, Basis, BasisTerm, Dataset, EstimationError
from .simulate import (
    SUMMARY_COLUMNS,
    MonteCarloSummary,
    run_scenario,
    run_scenarios,
    scenario_catalog,
    summary_rows,
    with_size,
    write_summary_csv,
    write_summary_json,
)

__all__ = ["main", "RunConfig", "read_dataset_csv", "basis_from_terms"]


class CliError(Exception):
    """User-facing configuration or input error (exit code 2)."""


# ---------------------------------------------------------------------------
# Configuration
# ---------------------------------------------------------------------------


@dataclass
class RunConfig:
    command: str
    data: Path | None = None
    basis_terms: list[dict] = field(default_factory=list)
    z_families: list[str] = field(default_factory=list)
    estimators: list[str] = field(default_factory=list)
    scenarios: list[str] = field(default_factory=list)
    level: float = 0.95
    seed: int | None = None
    out_dir: Path = Path(".")
    workers: int = 1
    n: int | None = None
    replications: int | None = None
    phis: list[str] = field(default_factory=list)

    def validate(self) -> None:
        if not 0.0 < self.level < 1.0:
            raise CliError(f"confidence level must be inside (0, 1), got {self.level}")
        if self.data is not None and not self.data.exists():
            raise CliError(f"data file does not exist: {self.data}")
        for name in self.estimators:
            if name not in KNOWN_ESTIMATORS:
                raise CliError(f"unknown estimator {name!r}; known: {KNOWN_ESTIMATORS}")
        for phi in self.phis:
            if phi not in VARIANTS:
                raise CliError(f"unknown phi variant {phi!r}; choices: {VARIANTS}")
        if self.workers < 1:
            raise CliError("workers must be at least 1")


def _load_config(path: str | None) -> dict:
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
    return cfg


def _number(value, name: str, kind=int, minimum=None):
    """value converted by kind; a CliError naming it if that fails or gives less than minimum."""
    try:
        out = kind(value)
    except (TypeError, ValueError, OverflowError):
        raise CliError(f"{name} must be {'an integer' if kind is int else 'a number'}, "
                       f"got {value!r}") from None
    if minimum is not None and out < minimum:
        raise CliError(f"{name} must be at least {minimum}, got {value!r}")
    return out


def _resolve_seed(flag_seed, cfg: dict):
    if flag_seed is not None:
        return _number(flag_seed, "--seed", minimum=0)
    if "seed" in cfg:
        return _number(cfg["seed"], "config field 'seed'", minimum=0)
    env = os.environ.get("DRLOGIT_SEED")
    if env is not None:
        return _number(env, "DRLOGIT_SEED", minimum=0)
    return None


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


def _plain_body(text: str) -> list[str] | None:
    """The data lines of text when numpy's C parser reads them as the csv
    module and float() do; None when only the csv path can read them."""
    plain = text.replace("\r\n", "\n") if "\r" in text else text
    # csv unquotes '"', ends a row at a lone CR and reads a blank line as a
    # row of 0 cells, which loadtxt skips; loadtxt strips \x1c-\x1f around a
    # number, which float() refuses
    if any(c in plain for c in '"\r\x1c\x1d\x1e\x1f') or "\n\n" in plain:
        return None
    # not splitlines(): csv keeps \x0b, \x0c, \x85 and \u2028 inside a cell
    lines = plain.split("\n")
    if lines[-1] == "":
        lines.pop()
    body = lines[1:]
    # a line past csv's field size limit may hold a cell that csv refuses
    if max(map(len, body), default=0) > csv.field_size_limit():
        return None
    return body


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


def read_dataset_csv(path) -> Dataset:
    """Read a dataset with header y,z1..zp,x1..xq (column order free,
    numbering dense from 1).  Raises CliError naming the offending
    column, row or cell on malformed input.

    A plain body goes through numpy's C parser; anything else, and any
    body that parser refuses, through the csv module and Python's float,
    which define the accepted input and every error."""
    with open(path, "rb") as fh:
        text = _decode_utf8(path, fh.read())
    body = _plain_body(text)
    reader = csv.reader(io.StringIO(text, newline=""))
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
    cells = None if body is None else _parse_plain(body, width, y_col, z_cols + x_cols)
    if cells is None:
        if rows is None:
            rows = _csv_rows(path, reader, 2)
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
    return Dataset._trusted(cells[:, y_col].astype(np.int64), cells[:, z_cols],
                            cells[:, x_cols])


# ---------------------------------------------------------------------------
# fit
# ---------------------------------------------------------------------------


def cmd_fit(rc: RunConfig) -> int:
    if rc.data is None:
        raise CliError("fit needs --data FILE")
    if not rc.basis_terms:
        raise CliError("fit needs a config with a 'basis' term list")
    data = read_dataset_csv(rc.data)
    basis = basis_from_terms(rc.basis_terms)
    z_families = rc.z_families or ["gaussian"] * data.p
    if len(z_families) != data.p:
        raise CliError(f"config lists {len(z_families)} z_families but data has p={data.p}")
    estimators = rc.estimators or ["mle", "dr_simple"]

    results, ctx = {}, None
    for name in estimators:
        try:
            if ctx is None:  # the outcome fit's failure is the first estimator's
                ctx = _Context(data, basis, z_families)
            beta, se, diag = ctx.estimate(name)
        except (EstimationError, ValueError) as exc:
            raise CliError(f"estimator {name!r} failed: {exc}") from exc
        results[name] = {"beta": beta.tolist(), "se": se.tolist(),
                         "ci": wald_interval(beta, se, rc.level).tolist(), "diagnostics": diag}

    rc.out_dir.mkdir(parents=True, exist_ok=True)
    payload = {"n": data.n, "p": data.p, "q": data.q, "level": rc.level,
               "estimators": results}
    out_path = rc.out_dir / "estimates.json"
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


def _select_scenarios(requested: list[str]):
    catalog = scenario_catalog()
    if not requested:
        return list(catalog)
    by_name = {sc.name: sc for sc in catalog}
    families: dict[str, list] = {}
    for sc in catalog:
        families.setdefault(sc.family, []).append(sc)
    out = []
    for name in requested:
        if name in by_name:
            out.append(by_name[name])
        elif name in families:
            out.extend(families[name])
        else:
            valid = sorted(by_name) + sorted(families)
            raise CliError(f"unknown scenario {name!r}; valid names: {', '.join(valid)}")
    return out


def _apply_overrides(sc, rc: RunConfig, index: int):
    # a user-supplied seed replaces the catalog seeds, offset per scenario
    seed = rc.seed + 1009 * index if rc.seed is not None else None
    return with_size(sc, n=rc.n, replications=rc.replications, seed=seed)


def markdown_table(summaries: list[MonteCarloSummary]) -> str:
    lines = ["| " + " | ".join(SUMMARY_COLUMNS) + " |", "|---" * len(SUMMARY_COLUMNS) + "|"]
    for s in summaries:
        for row in summary_rows(s):
            lines.append("| " + " | ".join(f"{v:.6g}" if isinstance(v, float) else str(v)
                                           for v in row.values()) + " |")
    return "\n".join(lines) + "\n"


def cmd_simulate(rc: RunConfig) -> int:
    scenarios = _select_scenarios(rc.scenarios)
    estimators = rc.estimators or list(DEFAULT_ESTIMATORS)
    rc.out_dir.mkdir(parents=True, exist_ok=True)
    jobs = []
    for i, sc in enumerate(scenarios):
        sc = _apply_overrides(sc, rc, i)
        menu = estimators
        if "closed_form" in menu and sc.z_families[0] != "bernoulli":
            menu = [e for e in menu if e != "closed_form"]
        jobs.append((sc, menu))
    summaries = []
    for summary in run_scenarios(jobs, level=rc.level, workers=rc.workers):
        summaries.append(summary)
        write_summary_json([summary], rc.out_dir / f"{summary.scenario}_summary.json")
        write_summary_csv([summary], rc.out_dir / f"{summary.scenario}_summary.csv")
        print(f"finished {summary.scenario} (n={summary.n}, R={summary.replications})")
    (rc.out_dir / "summary.md").write_text(markdown_table(summaries))
    write_summary_json(summaries, rc.out_dir / "summary.json")
    print(f"wrote {rc.out_dir / 'summary.md'}")
    return 0


def cmd_compare(rc: RunConfig) -> int:
    if len(rc.phis) < 2:
        raise CliError("compare needs at least 2 phi variants in the config field 'phis'")
    if len(rc.scenarios) != 1:
        raise CliError("compare needs exactly one scenario name")
    scenarios = _select_scenarios(rc.scenarios)
    rc.out_dir.mkdir(parents=True, exist_ok=True)
    rows = []
    for i, sc in enumerate(scenarios):
        sc = _apply_overrides(sc, rc, i)
        menu = [f"dr_{phi}" for phi in rc.phis]
        summary = run_scenario(sc, menu, level=rc.level, workers=rc.workers)
        variances = {e.estimator: e.sd**2 for e in summary.estimators}
        base = variances[menu[0]]
        for name in menu:
            rows.append({
                "scenario": sc.name,
                "estimator": name,
                "variance": variances[name],
                "ratio_to_first": variances[name] / base if base > 0 else float("nan"),
            })
    payload = {"comparison": rows}
    with open(rc.out_dir / "compare.json", "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(f"{'scenario':<16}{'estimator':<16}{'variance':>14}{'ratio':>10}")
    for row in rows:
        print(f"{row['scenario']:<16}{row['estimator']:<16}"
              f"{row['variance']:>14.6g}{row['ratio_to_first']:>10.6g}")
    print(f"wrote {rc.out_dir / 'compare.json'}")
    return 0


# ---------------------------------------------------------------------------
# Argument parsing
# ---------------------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="drlogit",
        description="Doubly robust estimation for logistic partially linear models.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_fit = sub.add_parser("fit", help="fit estimators on a CSV dataset")
    p_fit.add_argument("--data", required=True)
    p_fit.add_argument("--config", required=True)
    p_fit.add_argument("--phi", choices=VARIANTS)
    p_fit.add_argument("--level", type=float)
    p_fit.add_argument("--out", default=None)

    p_sim = sub.add_parser("simulate", help="run Monte Carlo scenarios")
    p_sim.add_argument("--config", default=None)
    p_sim.add_argument("--scenarios", default=None,
                       help="comma-separated scenario or family names (e.g. S1,S2)")
    p_sim.add_argument("--workers", type=int, default=None)
    p_sim.add_argument("--seed", type=int, default=None)
    p_sim.add_argument("--out", default=None)

    p_cmp = sub.add_parser("compare", help="compare instrument choices on one scenario")
    p_cmp.add_argument("--config", required=True)
    p_cmp.add_argument("--workers", type=int, default=None)
    p_cmp.add_argument("--seed", type=int, default=None)
    p_cmp.add_argument("--out", default=None)
    return parser


def _config_from_args(args) -> RunConfig:
    cfg = _load_config(getattr(args, "config", None))
    rc = RunConfig(command=args.command)
    for key, kind in [("data", str), ("out", str)] + [
            (key, list) for key in ("z_families", "estimators", "scenarios", "phis")]:
        value = cfg.get(key, kind())  # a string's characters are strings too
        if not isinstance(value, kind) or not all(isinstance(v, str) for v in value):
            raise CliError(f"config field {key!r} must be "
                           f"{'a string' if kind is str else 'a list of strings'}, got {value!r}")
    rc.data = Path(args.data) if getattr(args, "data", None) else (
        Path(cfg["data"]) if "data" in cfg else None)
    rc.basis_terms = cfg.get("basis", [])
    rc.z_families = list(cfg.get("z_families", []))
    rc.estimators = list(cfg.get("estimators", []))
    level_flag = getattr(args, "level", None)
    rc.level = level_flag if level_flag is not None else _number(
        cfg.get("level", 0.95), "config field 'level'", float)
    rc.seed = _resolve_seed(getattr(args, "seed", None), cfg)
    out_flag = getattr(args, "out", None)
    rc.out_dir = Path(out_flag) if out_flag else Path(cfg.get("out", "."))
    workers_flag = getattr(args, "workers", None)
    rc.workers = workers_flag if workers_flag is not None else _number(
        cfg.get("workers", 1), "config field 'workers'")
    rc.n = _number(cfg["n"], "config field 'n'", minimum=1) if "n" in cfg else None
    rc.replications = (_number(cfg["replications"], "config field 'replications'", minimum=1)
                       if "replications" in cfg else None)
    scen_flag = getattr(args, "scenarios", None)
    if scen_flag:
        rc.scenarios = [s.strip() for s in scen_flag.split(",") if s.strip()]
    else:
        rc.scenarios = list(cfg.get("scenarios", []))
    phi_flag = getattr(args, "phi", None)
    rc.phis = [phi_flag] if phi_flag else list(cfg.get("phis", []))
    if args.command == "fit" and phi_flag:
        rc.estimators = [e for e in rc.estimators if not e.startswith("dr_")]
        rc.estimators.append(f"dr_{phi_flag}")
    rc.validate()
    return rc


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        rc = _config_from_args(args)
        if rc.command == "fit":
            return cmd_fit(rc)
        if rc.command == "simulate":
            return cmd_simulate(rc)
        return cmd_compare(rc)
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (EstimationError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
