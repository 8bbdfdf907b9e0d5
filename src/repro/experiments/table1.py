"""Experiment ``table1`` — backtested correctness fractions (§4.1, Table 1).

For every (AZ, instance type) combination, 300 random Spot requests with
durations uniform on (0, 12 h] are backtested under four bidding
strategies: DrAFTS (p = 0.99, c = 0.99), the On-demand price, a
segment-wise AR(1) quantile, and the empirical CDF quantile. The table
reports the share of combinations whose success fraction lands below the
target, at the target, and at a perfect 1.0.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.backtest.correctness import CorrectnessTable, correctness_table
from repro.backtest.engine import ComboResult
from repro.baselines import TABLE1_STRATEGIES
from repro.experiments.parallel import backtest_matrix
from repro.util.tables import format_table

__all__ = ["Table1Result", "run_table1"]


@dataclass(frozen=True)
class Table1Result:
    """Structured Table 1 output plus the raw per-combination results."""

    probability: float
    scale: str
    table: CorrectnessTable
    results: tuple[ComboResult, ...]

    def render(self) -> str:
        """The paper-shaped ASCII table."""
        header = [
            "Method",
            f"<{self.table.target:g}",
            f"{self.table.target:g}",
            "1",
        ]
        return format_table(
            header,
            self.table.as_rows(),
            title=(
                f"Table 1 (scale={self.scale}): backtested correctness "
                f"fractions, target p={self.probability}, "
                f"{len(self.results) // max(len(self.table.rows), 1)} combos"
            ),
        )


def run_table1(
    scale: str = "bench",
    probability: float = 0.99,
    strategies=TABLE1_STRATEGIES,
    workers: int = 0,
) -> Table1Result:
    """Run the Table 1 backtest at the given scale.

    ``workers >= 1`` fans the (combination x strategy) matrix out over
    worker processes — intended for ``--scale paper`` runs; ``workers=0``
    runs the same driver as one in-process chunk.
    """
    results = backtest_matrix(
        scale=scale,
        probability=probability,
        strategies=strategies,
        workers=workers,
    )
    return Table1Result(
        probability=probability,
        scale=scale,
        table=correctness_table(results, probability),
        results=tuple(results),
    )
