"""Tabular experiment output with byte-reproducible serialization, and the
one driver of the rate experiments.

Floats are written with 17 significant digits so CSV round-trips exactly.
Metadata holds only configuration and results, never timings, so identical
configurations serialize byte-identically; wall time goes to stderr.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidParameter


def fmt(x) -> str:
    if isinstance(x, float):
        return format(x, ".17g")
    return str(x)


@dataclass
class RateTable:
    columns: list[str]
    rows: list[tuple] = field(default_factory=list)
    metadata: dict = field(default_factory=dict)

    def add(self, *values):
        if len(values) != len(self.columns):
            raise ValueError(f"expected {len(self.columns)} values, got {len(values)}")
        self.rows.append(tuple(values))

    def column(self, name: str) -> list:
        i = self.columns.index(name)
        return [row[i] for row in self.rows]

    def _clean_meta(self) -> dict:
        return {k: self.metadata[k] for k in sorted(self.metadata)}

    def to_csv(self) -> str:
        lines = [f"# {k}={fmt(v)}" for k, v in self._clean_meta().items()]
        lines.append(",".join(self.columns))
        for row in self.rows:
            lines.append(",".join(fmt(v) for v in row))
        return "\n".join(lines) + "\n"

    def to_json(self) -> str:
        import json

        payload = {
            "metadata": self._clean_meta(),
            "columns": {
                name: [row[i] for row in self.rows]
                for i, name in enumerate(self.columns)
            },
        }
        return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def rate_table(columns, metadata, grid, point, replicates=None) -> RateTable:
    """One row per grid point: ``point(x)`` returns ``(law, mu, sigma2, row)``,
    and ``row``, the point's own columns, gains the distances of the law from
    TP(mu, sigma2): dloc, dtv, dk, dw, dloc2 (span 2) if ``columns`` holds it
    and, for a law of ``replicates`` draws, ``pmf_se_max``, the largest
    standard error of one of its masses.  Rows follow the order of ``columns``.
    """
    from .metrics import distance, distances
    from .tp import tp_dist, tp_params

    if replicates is not None and replicates < 2:
        raise InvalidParameter("replicates must be >= 2")
    table = RateTable(columns, metadata=metadata)
    for x in grid:
        law, mu, sigma2, row = point(x)
        target = tp_dist(tp_params(mu, sigma2))
        row.update(distances(law, target))
        if "dloc2" in columns:
            row["dloc2"] = distance(law, target, 2)
        if replicates is not None:
            row["pmf_se_max"] = float(np.sqrt((law.pmf * (1 - law.pmf)).max() / replicates))
        table.add(*(row[c] for c in columns))
        del law, target  # not alive while the next point builds its law
    return table
