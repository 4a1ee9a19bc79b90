"""Correctness gate: compare a CSV the program wrote with its reference.

Comment lines, the header and every text or integer cell must match
exactly; float cells must agree to RTOL relative.  RTOL admits solver
backends whose solutions differ at about 1e-11 relative: the error
columns are small differences of such solutions, which amplifies their
relative change by up to about five orders of magnitude.

A stability-probe series that diverged is the exception.  Its unstable
mode grows from roundoff, about 8.8x in energy per step for the probe
workload, so where the mode carries the energy the rows are set by the
roundoff that seeded it.  Noise of 1e-11 relative on every solve moved
those energies by up to 8e-6 relative.  A float cell of such a row must
agree to RTOL plus GROWN_RTOL times the share of the row's energy that
the reference attributes to the mode (1 - first energy / energy, at
least 0).  Rows before the onset keep RTOL, and the step count and
verdict are integer and text cells, so they still match exactly.
"""

RTOL = 1e-6
GROWN_RTOL = 1e-2


def _float_cell(text):
    """The float value of a cell written by repr(float), else None."""
    if not any(ch in text for ch in ".eEn"):
        return None
    try:
        return float(text)
    except ValueError:
        return None


def _tolerances(lines):
    """Relative tolerance of the float cells of each reference line."""
    tols = [RTOL] * len(lines)
    header = next((line.split(",") for line in lines if not line.startswith("#")), [])
    if not {"row", "n", "energy", "outcome"} <= set(header):
        return tols
    n_col, energy_col, outcome_col = (header.index(c) for c in ("n", "energy", "outcome"))
    rows = [line.split(",") for line in lines]
    diverged = {
        tuple(cells[1:n_col])
        for cells in rows
        if len(cells) == len(header) and cells[0] == "summary" and cells[outcome_col] == "diverged"
    }
    first = {}
    for i, cells in enumerate(rows):
        key = tuple(cells[1:n_col])
        if len(cells) != len(header) or cells[0] != "data" or key not in diverged:
            continue
        energy = float(cells[energy_col])
        first.setdefault(key, energy)
        if energy > 0.0:
            tols[i] = RTOL + GROWN_RTOL * max(0.0, 1.0 - first[key] / energy)
    return tols


def mismatches(text, reference):
    """List of human-readable differences; empty when ``text`` passes."""
    got, want = text.splitlines(), reference.splitlines()
    if len(got) != len(want):
        return [f"{len(got)} lines, reference has {len(want)}"]
    out = []
    for lineno, (line, ref, rtol) in enumerate(zip(got, want, _tolerances(want)), start=1):
        if line == ref:
            continue
        cells, ref_cells = line.split(","), ref.split(",")
        if line.startswith("#") or ref.startswith("#") or len(cells) != len(ref_cells):
            out.append(f"line {lineno}: {line!r} != {ref!r}")
            continue
        for col, (cell, ref_cell) in enumerate(zip(cells, ref_cells), start=1):
            if cell == ref_cell:
                continue
            a, b = _float_cell(cell), _float_cell(ref_cell)
            if a is None or b is None or not abs(a - b) <= rtol * max(abs(a), abs(b)):
                out.append(f"line {lineno} column {col}: {cell!r} != {ref_cell!r}")
    return out


def failed_rows(text):
    """Data lines whose status cell reports a failed solve."""
    return [
        line
        for line in text.splitlines()
        if any(cell.startswith("failed:") for cell in line.split(","))
    ]
