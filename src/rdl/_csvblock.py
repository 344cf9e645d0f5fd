"""CSV writing with 17 significant digits, one block of rows at a time.

A file is a header and blocks: one per path or per time.  Every value is
formatted as '%.17g', which gives the bytes of f"{x:.17g}", so a file
matches a per-row writer byte for byte and regression files are bit-stable.
"""

from __future__ import annotations

import numpy as np


def csv_block(lead: str, cols, rows) -> str:
    """CSV rows `lead` + the row's values of `cols`, one % operation for the block.

    `rows` (from `shared_rows`) holds row templates in which the columns that
    every block of a file shares are already formatted; `cols` then lists
    only the other columns, in order.
    """
    template = lead.join(["", *rows])  # lead before every row
    return template % tuple(np.column_stack(cols).ravel().tolist())


def shared_rows(cols) -> list:
    """Row templates for `csv_block`: a column given as an array is formatted
    here, once for every block; each None is a column the blocks fill in."""
    n = next(len(c) for c in cols if c is not None)
    parts = [["%.17g"] * n if c is None else ["%.17g" % x for x in np.asarray(c, dtype=float).tolist()]
             for c in cols]
    return [",".join(row) + "\n" for row in zip(*parts)]
