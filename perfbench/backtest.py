"""The ``backtest-table1`` workload: the sequential §4.1 Table 1 sweep.

One sweep is ``run_table1("bench", 0.99)``: 18 combinations x 150-day
traces x 100 requests x 4 strategies. The predictor cache and the AR(1)
prefit cache are cleared before every sweep, so each sweep pays its fits.
Each sweep's per-combination results must equal the reference recorded in
``table1_expected.json``; regenerate it (only when results are meant to
change) with ``python3 perfbench/backtest.py --write-expected``.
"""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
EXPECTED = os.path.join(HERE, "table1_expected.json")
SCALE = "bench"
PROBABILITY = 0.99

#: What a researcher's process does before the sweep can start.
SETUP_CODE = (
    "from repro.experiments.common import scaled_combos, scaled_universe\n"
    "from repro.experiments.table1 import run_table1\n"
    f"universe = scaled_universe({SCALE!r})\n"
    f"for combo in scaled_combos({SCALE!r}):\n"
    "    universe.trace(combo)\n"
)


def setup_seconds(src: str) -> float:
    """Wall time of one fresh process from exec to a sweep-ready state."""
    env = dict(os.environ, PYTHONPATH=src)
    started = time.perf_counter()
    subprocess.run([sys.executable, "-c", SETUP_CODE], env=env, check=True, timeout=170)
    return time.perf_counter() - started


def prepare() -> None:
    """Build the sweep's universe and traces in this process (unmeasured)."""
    from repro.experiments.common import scaled_combos, scaled_universe

    universe = scaled_universe(SCALE)
    for combo in scaled_combos(SCALE):
        universe.trace(combo)


def sweep():
    """One cold Table 1 sweep: (results, wall seconds)."""
    from repro.backtest import predcache
    from repro.baselines.ar1 import AR1Bid
    from repro.experiments.table1 import run_table1

    predcache.clear()
    AR1Bid.clear_prefit()
    started = time.perf_counter()
    result = run_table1(SCALE, PROBABILITY)
    return result, time.perf_counter() - started


def digest(result) -> list[list]:
    """Per-(combination, strategy) summary plus a hash of every outcome."""
    rows = []
    for combo in result.results:
        outcomes = repr(
            [(o.t_idx, o.start, o.duration, o.bid, o.survived) for o in combo.outcomes]
        )
        rows.append(
            [
                combo.combo_key,
                combo.strategy,
                combo.n,
                combo.successes,
                combo.no_bid,
                hashlib.sha256(outcomes.encode("utf-8")).hexdigest(),
            ]
        )
    return rows


def mismatches(result) -> list[str]:
    """Rows of ``result`` that differ from the recorded reference."""
    with open(EXPECTED, encoding="utf-8") as handle:
        expected = json.load(handle)["results"]
    got = digest(result)
    if len(got) != len(expected):
        return [f"{len(got)} result rows, reference has {len(expected)}"]
    return [
        f"{want[0]}/{want[1]}: got {row[2:5]}, want {want[2:5]}"
        for row, want in zip(got, expected)
        if row != want
    ]


def main() -> int:
    if sys.argv[1:] != ["--write-expected"]:
        print("usage: python3 perfbench/backtest.py --write-expected", file=sys.stderr)
        return 2
    sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
    prepare()
    result, _ = sweep()
    with open(EXPECTED, "w", encoding="utf-8") as handle:
        json.dump(
            {"scale": SCALE, "probability": PROBABILITY, "results": digest(result)},
            handle,
            indent=1,
        )
        handle.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
