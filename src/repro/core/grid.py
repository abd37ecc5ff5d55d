"""One grid runner for the subsystem sweeps.

The ``repro kvtier``, ``fairness``, ``sustain`` and ``plan --validate``
drivers share the paper's method: replay one deterministic scenario at
every point of a grid of named spec axes, one row per point, varying one
axis at a time.  Each driver keeps its own spec (validation) and point
function (row contents); :func:`run_grid` walks the axes and
:class:`GridReport` renders the rows as the stable text table and CSV
the CI determinism gates byte-diff.
"""

from __future__ import annotations

import dataclasses
import itertools
from typing import Callable, Dict, List, Sequence, Tuple


@dataclasses.dataclass
class GridReport:
    """All rows of one grid run, in axis order."""

    rows: List[Dict] = dataclasses.field(default_factory=list)

    def table(self) -> str:
        """Left-aligned text table; every column (the last too) is padded."""
        if not self.rows:
            return ""
        cols = list(self.rows[0])
        widths = {c: max(len(c), *(len(str(r[c])) for r in self.rows))
                  for c in cols}
        lines = ["  ".join(c.ljust(widths[c]) for c in cols)]
        for r in self.rows:
            lines.append("  ".join(str(r[c]).ljust(widths[c]) for c in cols))
        return "\n".join(lines)

    def csv(self) -> str:
        """Canonical CSV text (``\\n`` line ends, trailing newline)."""
        if not self.rows:
            return ""
        cols = list(self.rows[0])
        lines = [",".join(cols)]
        lines += [",".join(str(r[c]) for c in cols) for r in self.rows]
        return "\n".join(lines) + "\n"


def run_grid(spec, axes: Sequence[Tuple[str, Sequence]],
             point: Callable[..., Dict], report=GridReport):
    """``point(spec, **axis_values)`` at every grid point, outermost first.

    ``axes`` is a sequence of ``(name, values)``; each name is the
    keyword ``point`` receives that axis' value under.  Returns
    ``report(rows=...)`` with one row per point in product order.
    """
    names = [name for name, _ in axes]
    return report(rows=[
        point(spec, **dict(zip(names, values)))
        for values in itertools.product(*(vals for _, vals in axes))
    ])
