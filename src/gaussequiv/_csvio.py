"""The one CSV writer behind every CSV output, and the atomic replacement behind every output file.

``write_csv`` formats blocks of about ``_BLOCK`` cells by one ``.tolist()`` per column and one ``%r``
line template, so each cell prints as ``csv.writer`` prints a Python ``int`` or ``float``: its ``repr``.
"""

from __future__ import annotations

import os
from contextlib import contextmanager
from itertools import chain
from pathlib import Path
from typing import Sequence

import numpy as np

_BLOCK = 1 << 12  # a block's buffers stay near 100 KB; 2**15 cells grew peak RSS by MBs


@contextmanager
def atomic_open(path):
    """A new text file that replaces ``path`` (``os.replace``) if the ``with`` body
    succeeds and is deleted if it raises, leaving ``path`` untouched."""
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.urandom(6).hex()}.tmp")
    fh = open(tmp, "x", newline="")
    try:
        with fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


def write_csv(path, header: Sequence[str] | None, columns: Sequence) -> None:
    """Write equal-length 1-D ``columns``, ndarrays or sequences of Python numbers, as the rows
    of ``path``, after an optional ``header`` line quoted as ``csv`` quotes it."""
    columns = [c if isinstance(c, np.ndarray) else np.array(c, dtype=object) for c in columns]
    if len({c.shape for c in columns}) != 1 or columns[0].ndim != 1:
        raise ValueError("CSV columns must be 1-D and of one length")
    line, step = ",".join(["%r"] * len(columns)) + "\n", max(1, _BLOCK // len(columns))
    with atomic_open(path) as fh:
        if header is not None:
            quoted = ('"%s"' % h.replace('"', '""') if set(h) & set(',"\n') else h for h in header)
            fh.write(",".join(quoted) + "\n")
        for i in range(0, len(columns[0]), step):
            cells = [c[i : i + step].tolist() for c in columns]
            fh.write(line * len(cells[0]) % tuple(chain.from_iterable(zip(*cells))))
