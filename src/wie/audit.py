"""Root-estimate audits over a grid x ladder, imported only by a bound-audit run."""

from __future__ import annotations

from typing import NamedTuple, Sequence

import numpy as np

from .lab import _check_ladder
from .spectral import inequality_report, root_data, root_margins
from .symbols import MultiplierSymbol

__all__ = ["AuditEntry", "BoundAuditResult", "bound_audit"]


class AuditEntry(NamedTuple):
    eps: float
    counts: dict
    total_violations: int

    def as_dict(self) -> dict:
        return {
            "eps": self.eps,
            "counts": {k: dict(v) for k, v in self.counts.items()},
            "total_violations": self.total_violations,
        }


class BoundAuditResult(NamedTuple):
    symbol_name: str
    lower_bound: float
    entries: tuple
    violating_triples: tuple

    @property
    def clean(self) -> bool:
        return all(e.total_violations == 0 for e in self.entries)

    def as_dict(self) -> dict:
        return {
            "symbol_name": self.symbol_name,
            "lower_bound": self.lower_bound,
            "clean": self.clean,
            "entries": [e.as_dict() for e in self.entries],
            "violating_triples": [list(t) for t in self.violating_triples],
        }


def bound_audit(
    symbol: MultiplierSymbol,
    ladder: Sequence[float],
    grid,
    tol: float = 1e-9,
    max_triples: int = 100,
) -> BoundAuditResult:
    """Grind the whole root-estimate bundle over grid x ladder.

    Violations are data, not errors: the result carries counts per
    inequality and eps, plus up to max_triples (frequency, eps, name)
    witnesses.  An eps outside the admissible range is a policy error and
    root_data raises before any audit happens.
    """
    ladder = _check_ladder(ladder)
    nodes = np.asarray(grid, dtype=float)
    vals = symbol(nodes)
    lower = min(0.0, float(np.min(vals)))
    entries = []
    triples = []
    for eps in ladder:
        rd = root_data(vals, eps, check=False)
        counts = inequality_report(rd, tol=tol)
        total = sum(v["violations"] for v in counts.values())
        if total:
            for name, margin in root_margins(rd).items():
                for idx in np.flatnonzero(np.asarray(margin) < -tol):
                    if len(triples) < max_triples:
                        triples.append((float(nodes[idx]), float(eps), name))
        entries.append(AuditEntry(eps=eps, counts=counts, total_violations=total))
    return BoundAuditResult(
        symbol_name=symbol.name,
        lower_bound=lower,
        entries=tuple(entries),
        violating_triples=tuple(triples),
    )
