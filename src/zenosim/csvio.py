"""CSV serialization for trajectories and small curve tables.

The format is locale independent by construction: '.' decimal
separator, 17 significant digits (enough to round-trip float64), LF
line endings, UTF-8, no trailing separator. Population columns are
written as rho_00, rho_11, .. and read back positionally, never by
name.
"""

from __future__ import annotations

import numpy as np

from .core import ValidationError

__all__ = [
    "format_value",
    "trajectory_header",
    "trajectory_lines",
    "write_trajectory_csv",
    "write_table_csv",
    "read_population_table",
]


def format_value(x) -> str:
    return f"{float(x):.17g}"


def trajectory_header(dim: int, pairs) -> list:
    cols = ["t"]
    cols += [f"rho_{j}{j}" for j in range(dim)]
    cols.append("sigma")
    for j, k in pairs:
        cols.append(f"re_{j}{k}")
        cols.append(f"im_{j}{k}")
    cols += ["trace", "purity", "energy", "event"]
    return cols


def trajectory_lines(traj) -> list:
    """Header plus one line per row, in sampling order."""
    pairs = traj.spec.resolved_pairs()
    values = np.column_stack(
        [traj.t, traj.populations, traj.sigma]
        + [part for c in traj.coherences.T for part in (c.real, c.imag)]
        + [traj.trace, traj.purity, traj.energy]
    )
    # '%.17g' % x is the same text as format_value(x)
    row_format = "%.17g," * values.shape[1] + "%s"
    lines = [",".join(trajectory_header(traj.spec.model.dim, pairs))]
    lines += [row_format % (*row.tolist(), event) for row, event in zip(values, traj.events)]
    return lines


def write_trajectory_csv(traj, path) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(trajectory_lines(traj)))
        fh.write("\n")


def write_table_csv(path, header, columns) -> None:
    """Write parallel 1-d columns under the given header names."""
    cols = [np.asarray(c, dtype=np.float64) for c in columns]
    if len(cols) != len(header) or any(c.shape != cols[0].shape for c in cols):
        raise ValidationError("header and column shapes do not agree")
    lines = [",".join(header)]
    for row in zip(*cols):
        lines.append(",".join(format_value(v) for v in row))
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines))
        fh.write("\n")


def read_population_table(path):
    """Times and populations from a trajectory CSV, parsed positionally.

    The population block spans the columns between 't' and 'sigma'; its
    width gives the system dimension.

    Returns
    -------
    times : ndarray, shape (n_rows,)
    populations : ndarray, shape (n_rows, dim)
    """
    try:
        with open(path, "r", encoding="utf-8", newline="") as fh:
            lines = [ln.rstrip("\n").rstrip("\r") for ln in fh if ln.strip()]
    except UnicodeDecodeError as exc:
        raise ValidationError(f"{path}: not UTF-8 text ({exc.reason})") from exc
    if not lines:
        raise ValidationError(f"{path}: empty trajectory file")
    header = lines[0].split(",")
    if not header or header[0] != "t" or "sigma" not in header:
        raise ValidationError(f"{path}: not a trajectory CSV (header {header[:3]}...)")
    dim = header.index("sigma") - 1
    if dim < 1:
        raise ValidationError(f"{path}: no population columns found")
    if len(lines) == 1:
        raise ValidationError(f"{path}: no data rows")
    times = []
    pops = []
    for ln in lines[1:]:
        parts = ln.split(",")
        if len(parts) != len(header):
            raise ValidationError(
                f"{path}: row with {len(parts)} fields, expected {len(header)}"
            )
        try:
            times.append(float(parts[0]))
            pops.append([float(x) for x in parts[1 : dim + 1]])
        except ValueError as exc:
            raise ValidationError(f"{path}: {exc}") from exc
    return np.asarray(times), np.asarray(pops)
