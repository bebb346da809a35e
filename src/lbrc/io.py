"""CSV ingestion, curve/report serialization, and experiment config parsing.

Numbers are serialized with shortest round-trip representation (repr), so a
written file parses back to bit-identical floats and identical inputs always
produce byte-identical files.  Curve files carry '#'-prefixed metadata lines
(estimator name, sample size, config hash) ahead of the header row.

A data file is read by numpy's C parser (see ``_loadtxt``); the csv-module
row reader reads what numpy does not accept, and names the bad row and
column.  The row reader and the writers work in blocks of ``_ROW_BLOCK``
rows: the row reader converts each block of rows into columns before it
reads the next, and a writer formats a block of rows into one string and
writes it.  Besides the numeric columns they hold one block of rows,
whatever the length of the file, and a file's bytes do not depend on the
block size.  The one exception is a t column that several curve files of
one command write (``curve_times``): it is formatted once, and its text is
kept for the rest of the command, one newline-joined string per block
(about 19 B a row).
"""

from __future__ import annotations

import csv
import hashlib
import math
import os
import warnings
from pathlib import Path

import numpy as np

from .data import Dataset
from .errors import ConfigError, InvalidDataError
from .stepfun import EvalGrid, StepFunction
from .truth import TruthModel, make_model

__all__ = [
    "parse_dataset",
    "write_dataset_csv",
    "CurveTimes",
    "curve_times",
    "write_curve_csv",
    "parse_rate_config",
    "parse_censor_rate",
    "write_rate_report_csv",
    "write_influence_csv",
    "config_hash",
]


# rows that the row reader converts, or a writer formats, at once
_ROW_BLOCK = 2**13
# bytes of a data file that the line-length scan reads at once
_SCAN_CHUNK = 2**20


def _fmt(x: float) -> str:
    return repr(float(x))


def _row_blocks(*columns):
    """The rows of the equal-length ``columns``, ``_ROW_BLOCK`` at a time:
    each block's columns as lists."""
    columns = [np.asarray(col) for col in columns]
    for lo in range(0, columns[0].size, _ROW_BLOCK):
        yield [col[lo : lo + _ROW_BLOCK].tolist() for col in columns]


def _write_csv(path, head: list[str], blocks) -> None:
    """Write the ``head`` lines, then each block of lines of ``blocks``: a
    block's lines are joined, encoded as UTF-8 and written at once."""
    with Path(path).open("wb") as fh:
        fh.write("".join(head).encode())
        for lines in blocks:
            fh.write("".join(lines).encode())


def config_hash(parts: dict) -> str:
    text = ";".join(f"{k}={parts[k]}" for k in sorted(parts))
    return hashlib.sha256(text.encode()).hexdigest()[:12]


def _utf8_lines(fh, path):
    """The lines of a text file; a byte that is not UTF-8 is an input error."""
    try:
        yield from fh
    except UnicodeDecodeError:
        raise InvalidDataError(f"{path}: not UTF-8 text") from None


def _records(reader, path):
    """The records after the header, numbered from 1; a record the csv
    module refuses, such as one with a field over its size limit, is an
    input error naming its row."""
    rownum = 0
    try:
        for rownum, row in enumerate(reader, start=1):
            yield rownum, row
    except csv.Error as exc:
        raise InvalidDataError(f"{path}: row {rownum + 1}: {exc}") from None


def _schema(path, cells) -> tuple[bool, dict]:
    """Whether a header names total times y, and the position of each column."""
    cols = [c.strip().lower() for c in cells]
    if set(cols) not in ({"a", "v", "delta"}, {"a", "y", "delta"}):
        raise InvalidDataError(
            f"{path}: header must be a,v,delta or a,y,delta (got {','.join(cols)})"
        )
    return "y" in cols, {name: cols.index(name) for name in cols}


def _loadtxt(path: Path, uses_total: bool, pos: dict) -> Dataset | None:
    """The observations as numpy's C parser reads them, or None.

    numpy reads LF, CRLF and quoted files alike, and gives every number it
    accepts the double that ``float()`` gives.  The row reader decides the
    rest, so its errors name the row and column: a file with a line longer
    than the csv module's field size limit (numpy has no such limit), a
    file numpy refuses or cannot decode, a result that is not three columns
    or has no rows, and columns that ``Dataset`` refuses.
    """
    if not _lines_fit(path, csv.field_size_limit()):
        return None
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)  # no data rows
            cols = np.loadtxt(
                path, delimiter=",", quotechar='"', comments=None, skiprows=1, ndmin=2,
                encoding="utf-8-sig",
            ).T
    except ValueError:
        return None
    if cols.shape[0] != 3:
        return None
    # copies, so the parsed rows, the delta column with them, are freed
    a, dlt = cols[pos["a"]].copy(), cols[pos["delta"]]
    with np.errstate(over="ignore", invalid="ignore"):
        v = cols[pos["y"]] - a if uses_total else cols[pos["v"]].copy()
        try:
            return Dataset(a, v, dlt)
        except InvalidDataError:
            return None


def _lines_fit(path: Path, limit: int) -> bool:
    """Whether every line of the file, its newline included, is at most
    ``limit`` bytes long.

    The file is read ``_SCAN_CHUNK`` bytes at a time.  From the start of a
    line, the last newline within the next ``limit`` bytes ends a run of
    lines that fit; with more than ``limit`` bytes left and no newline among
    them, the line is too long.  Each search skips up to ``limit`` bytes,
    and at most ``limit`` bytes of a chunk carry over to the next.
    """
    tail = b""
    with path.open("rb") as fh:
        while chunk := fh.read(_SCAN_CHUNK):
            buf, pos = tail + chunk, 0
            while len(buf) - pos > limit:
                end = buf.rfind(b"\n", pos, pos + limit)
                if end < 0:
                    return False
                pos = end + 1
            tail = buf[pos:]
    return True


def parse_dataset(path) -> Dataset:
    """Read observations from CSV with columns {a,v,delta} or {a,y,delta}.

    numpy's parser reads the file once (see ``_loadtxt``); whatever it does
    not accept, and a header that spans more than one line, goes through
    the row reader, so a file gets the same result or error whatever its
    line ends.  Rows violating the schema raise with the offending row
    number and column.
    """
    path = Path(path)
    if not path.exists():
        raise InvalidDataError(f"no such file: {path}")
    with path.open(newline="", encoding="utf-8-sig") as fh:
        reader = csv.reader(_utf8_lines(fh, path))
        try:
            header = next(reader)
        except StopIteration:
            raise InvalidDataError(f"{path}: empty file, no observations") from None
        except csv.Error as exc:
            raise InvalidDataError(f"{path}: header: {exc}") from None
        uses_total, pos = _schema(path, header)
        # numpy skips the header's first line, not its record
        if reader.line_num == 1 and (parsed := _loadtxt(path, uses_total, pos)) is not None:
            return parsed

        blocks, block = [], []
        for rownum, row in _records(reader, path):
            if not row or all(not cell.strip() for cell in row):
                continue
            if len(row) != 3:
                raise InvalidDataError(f"{path}: row {rownum}: expected 3 fields, got {len(row)}")

            def field(name):
                raw = row[pos[name]].strip()
                try:
                    return float(raw)
                except ValueError:
                    raise InvalidDataError(
                        f"{path}: row {rownum}: column '{name}': not a number: {raw!r}"
                    ) from None

            a = field("a")
            if not math.isfinite(a) or a < 0:
                raise InvalidDataError(f"{path}: row {rownum}: column 'a': must be >= 0, got {a}")
            dlt = field("delta")
            if dlt not in (0.0, 1.0):
                raise InvalidDataError(
                    f"{path}: row {rownum}: column 'delta': must be 0 or 1, got {dlt}"
                )
            if uses_total:
                y = field("y")
                if not math.isfinite(y) or y < a:
                    raise InvalidDataError(
                        f"{path}: row {rownum}: column 'y': must be >= a, got {y}"
                    )
                v = y - a
            else:
                v = field("v")
                if not math.isfinite(a + v) or v < 0:
                    raise InvalidDataError(
                        f"{path}: row {rownum}: column 'v': must be >= 0 with a + v finite, got {v}"
                    )
            block.append((a, v, dlt))
            if len(block) == _ROW_BLOCK:
                blocks.append(np.array(block).T)
                block = []
    if block:
        blocks.append(np.array(block).T)
    if not blocks:
        raise InvalidDataError(f"{path}: no observations")
    a, v, dlt = np.concatenate(blocks, axis=1)
    return Dataset(a, v, dlt)


def write_dataset_csv(path, d: Dataset) -> None:
    blocks = _row_blocks(d.a, d.v, d.delta)
    _write_csv(
        path,
        ["a,v,delta\n"],
        ([f"{x!r},{y!r},{z}\n" for x, y, z in zip(a, v, dlt)] for a, v, dlt in blocks),
    )


class CurveTimes:
    """The t column of a curve file: a step's jump times and any extra points.

    The text of the points, the shortest repr of each, is one newline-joined
    string per block of ``_ROW_BLOCK`` rows.  A ``shared`` column, one that
    several files write, formats its text once and keeps it; any other
    formats each block as it is written.
    """

    def __init__(self, jump_times: np.ndarray, extra_points=None):
        self.jump_times = jump_times
        self.points = (
            jump_times
            if extra_points is None
            else np.union1d(jump_times, np.asarray(extra_points, dtype=float))
        )
        self.shared = False
        self._texts = None

    def texts(self):
        """An iterator over the text of each block of points."""
        texts = self._texts
        if texts is None:
            texts = ("\n".join(map(repr, block)) for (block,) in _row_blocks(self.points))
            if self.shared:
                texts = self._texts = list(texts)
        return iter(texts)


def curve_times(steps, extra_points=None) -> list[CurveTimes]:
    """The ``CurveTimes`` of each step's curve file: steps with bit-identical
    jump times get one, which is then ``shared``."""
    columns = []
    for step in steps:
        bits = step.jump_times.view(np.int64)
        same = next((c for c in columns if np.array_equal(c.jump_times.view(np.int64), bits)), None)
        if same is not None:
            same.shared = True
        columns.append(same or CurveTimes(step.jump_times, extra_points))
    return columns


def write_curve_csv(
    path, step: StepFunction, name: str, n_obs: int, cfg_hash: str, times: CurveTimes
) -> None:
    """Write (t, value) rows of ``step`` at the points of its t column ``times``.

    The values are read a block of points at a time, so no column of values
    and none of its lookup's temporaries is held.
    """
    head = [f"# estimator={name}\n", f"# n={n_obs}\n", f"# config={cfg_hash}\n", "t,value\n"]
    pts = times.points

    def lines():
        for lo, text in zip(range(0, pts.size, _ROW_BLOCK), times.texts()):
            vals = step.at(pts[lo : lo + _ROW_BLOCK]).tolist()
            yield [f"{t},{y!r}\n" for t, y in zip(text.split("\n"), vals)]

    _write_csv(path, head, lines())


_MODEL_KEYS = ("rate", "shape", "scale")

_CONFIG_KEYS = {
    "family",
    *_MODEL_KEYS,
    "censor_rate",
    "sizes",
    "reps",
    "which",
    "grid",
    "seed",
    "threads",
    "out",
}


def _parse_grid_spec(spec: str, model: TruthModel) -> EvalGrid:
    parts = spec.strip().split(":")
    if parts[0] == "quantiles" and len(parts) == 4:
        try:
            lo, hi, count = float(parts[1]), float(parts[2]), int(parts[3])
        except ValueError:
            raise ConfigError(f"grid: malformed quantile spec {spec!r}") from None
        if not (0 < lo < hi < 1) or count < 1:
            raise ConfigError(f"grid: need 0 < lo < hi < 1 and count >= 1 in {spec!r}")
        try:
            with np.errstate(over="ignore"):
                return model.default_grid(count=count, lo=lo, hi=hi)
        except ValueError as exc:
            raise ConfigError(f"grid: {spec!r} on {model!r}: {exc}") from None
    raise ConfigError(f"grid: expected quantiles:<lo>:<hi>:<count>, got {spec!r}")


def parse_rate_config(path) -> dict:
    """Parse a flat key=value experiment config; every error names its key."""
    path = Path(path)
    if not path.exists():
        raise ConfigError(f"no such config file: {path}")
    try:
        text = path.read_text(encoding="utf-8-sig")
    except UnicodeDecodeError:
        raise ConfigError(f"{path}: not UTF-8 text") from None
    raw: dict[str, str] = {}
    given_at: dict[str, int] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError(f"{path}: line {lineno}: expected key=value, got {line!r}")
        key, _, value = line.partition("=")
        key = key.strip().lower()
        if key not in _CONFIG_KEYS:
            raise ConfigError(f"{path}: unknown config key: {key}")
        if key in given_at:
            raise ConfigError(
                f"{path}: config key {key} given twice: lines {given_at[key]} and {lineno}"
            )
        given_at[key] = lineno
        raw[key] = value.strip()

    for required in ("family", "sizes", "reps", "which", "seed"):
        if required not in raw:
            raise ConfigError(f"{path}: missing config key: {required}")

    censor_rate = parse_censor_rate("config key censor_rate", raw.get("censor_rate", ""))
    params = {k: _to_float(f"config key {k}", raw[k]) for k in _MODEL_KEYS if k in raw}
    model = make_model(raw["family"], censor_rate=censor_rate, **params)

    try:
        sizes = [int(tok) for tok in raw["sizes"].split(",") if tok.strip()]
    except ValueError:
        raise ConfigError(f"{path}: sizes: expected comma-separated integers") from None

    grid = _parse_grid_spec(raw.get("grid", "quantiles:0.10:0.90:25"), model)

    if "threads" in raw:
        threads = _to_int("threads", raw["threads"])
    else:
        threads = os.cpu_count() or 1

    seed = _to_int("seed", raw["seed"])
    if seed < 0:
        raise ConfigError(f"{path}: config key seed: must be >= 0, got {seed}")
    return {
        "model": model,
        "sizes": sizes,
        "reps": _to_int("reps", raw["reps"]),
        "which": raw["which"],
        "grid": grid,
        "seed": seed,
        "threads": threads,
        "out": raw.get("out"),
        "raw": raw,
    }


def _to_float(label: str, value: str) -> float:
    try:
        return float(value)
    except ValueError:
        raise ConfigError(f"{label}: not a number: {value!r}") from None


def parse_censor_rate(label: str, value: str) -> float | None:
    """A censoring rate; 'none' or an empty value means no censoring."""
    return None if value.strip().lower() in ("none", "") else _to_float(label, value)


def _to_int(key: str, value: str) -> int:
    try:
        return int(value)
    except ValueError:
        raise ConfigError(f"config key {key}: not an integer: {value!r}") from None


def write_rate_report_csv(path, report, cfg_hash: str) -> None:
    sizes = [int(n) for n in report.sample_sizes.tolist()]
    sups = np.asarray(report.sup_residuals, dtype=float)
    reps = sups.shape[1]
    head = [
        f"# which={report.which}\n",
        f"# config={cfg_hash}\n",
        f"# seed={report.seed}\n",
        f"# slope={_fmt(report.slope)}\n",
        f"# target_exponent={_fmt(report.target_exponent)}\n",
    ]
    head += [f"# median n={n}: {med!r}\n" for n, med in zip(sizes, report.medians.tolist())]
    head.append("n,rep,sup_residual\n")
    blocks = _row_blocks(
        np.repeat(sizes, reps), np.tile(np.arange(reps), len(sizes)), sups.reshape(-1)
    )
    _write_csv(
        path, head, ([f"{i},{j},{x!r}\n" for i, j, x in zip(*block)] for block in blocks)
    )


def write_influence_csv(path, columns, n_obs: int, level: float, cfg_hash: str) -> None:
    """The equal-length columns t, cdf, se, ci_low, ci_high, d and v."""
    head = [
        "# estimator=huang-qin\n",
        f"# n={n_obs}\n",
        f"# level={_fmt(level)}\n",
        f"# config={cfg_hash}\n",
        "t,cdf,se,ci_low,ci_high,d,v\n",
    ]
    blocks = _row_blocks(*(np.asarray(col, dtype=float) for col in columns))
    _write_csv(
        path, head, ([",".join(map(repr, row)) + "\n" for row in zip(*block)] for block in blocks)
    )
