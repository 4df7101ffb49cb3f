"""The one CSV writer behind every CSV output of the package."""

from __future__ import annotations

import csv
from typing import Iterable, Sequence


def write_csv(path, header: Sequence[str] | None, rows: Iterable[Sequence]) -> None:
    """Write ``rows`` to ``path`` after an optional ``header`` line.

    Fields are separated by ``,`` and lines end in LF.  Cells must be Python
    ``int``, ``float`` or ``str`` (``float(x)`` or ``ndarray.tolist()`` give
    these): ``csv`` writes floats as their ``repr``, the shortest string that
    round-trips, while NumPy scalars of other widths would print differently.
    ``rows`` is consumed lazily, so a generator keeps memory flat.
    """
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh, lineterminator="\n")
        if header is not None:
            w.writerow(header)
        w.writerows(rows)
