"""Tabular experiment output with byte-reproducible serialization.

Floats are written with 17 significant digits so CSV round-trips exactly.
Metadata holds only configuration and results, never timings, so identical
configurations serialize byte-identically; wall time goes to stderr.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field


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
        payload = {
            "metadata": self._clean_meta(),
            "columns": {
                name: [row[i] for row in self.rows]
                for i, name in enumerate(self.columns)
            },
        }
        return json.dumps(payload, indent=2, sort_keys=True) + "\n"
