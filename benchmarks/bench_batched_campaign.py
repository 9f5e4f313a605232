"""Ablation: fault-campaign throughput on the lockstep vector engine.

``run_campaign(batch_width=N)`` simulates N seeded SEU trials at once
— one shared program build, one vectorized hardware schedule, per-lane
CPUs — and is byte-identical to the scalar campaign (the ``batched``
test suite proves it; this bench re-checks the report hash on every
width).  Here we measure what that buys: campaign *points per second*
(classified trials / wall s) scalar vs batched at widths 8, 32, 128.

The workload is the CORDIC P=8 pipeline (24 iterations, 32 divisions,
the deepest Figure-5 partition), 128 trials of the standard SEU mix at
the EXPERIMENTS.md campaign settings.  The remaining gap to the ideal
N× is dominated by the per-lane instruction simulator — each lane's CPU
bursts through translated blocks between its FSL couplings, one lane
at a time — so the speedup measures how far the *hardware* side of
co-simulation vectorizes, plus what a batch's shared decodes and
translations save.

Results land in ``results/ablation_batched_campaign.txt`` and, as
machine-readable points/sec, ``results/ablation_batched_campaign.json``.
"""

from __future__ import annotations

import json
import time

from conftest import RESULTS_DIR, emit

from repro.cosim.report import format_table
from repro.faults import CampaignConfig, run_campaign

WIDTHS = (8, 32, 128)
TRIALS = 128


def _config() -> CampaignConfig:
    return CampaignConfig(
        app="cordic",
        design={"p": 8, "iters": 24, "ndata": 32, "fifo_depth": 16},
        trials=TRIALS,
        seed=2005,
        recovery="none",
        deadlock_window=2_048,
        max_cycles=2_000_000,
    )


def test_ablation_batched_campaign(once, batched_smoke):
    """Campaign points/sec: scalar engine vs lockstep widths 8/32/128."""

    def measure():
        t0 = time.perf_counter()
        scalar = run_campaign(_config())
        scalar_s = time.perf_counter() - t0
        ref = json.dumps(scalar.to_dict(), sort_keys=True)
        rows = [("scalar", scalar_s, TRIALS / scalar_s, 1.0, "ref")]
        for width in WIDTHS:
            t0 = time.perf_counter()
            batched = run_campaign(_config(), batch_width=width)
            wall = time.perf_counter() - t0
            identical = json.dumps(
                batched.to_dict(), sort_keys=True) == ref
            rows.append((f"batched w={width}", wall, TRIALS / wall,
                         scalar_s / wall, str(identical)))
        return rows

    rows = once(measure)
    by_name = {r[0]: r for r in rows}
    # equivalence first: a fast wrong answer is worthless
    assert all(r[4] in ("ref", "True") for r in rows), rows
    # regression floor, not the ceiling: width 32 must stay well clear
    # of break-even on this workload (measured ~2.5-3x on 4 cores)
    assert by_name["batched w=32"][3] > 1.5, rows

    emit(
        "ablation_batched_campaign",
        f"Ablation: batched fault campaign (CORDIC P=8, {TRIALS} SEU "
        f"trials, seed 2005)",
        format_table(
            ["engine", "wall s", "points/s", "speedup", "report identical"],
            [(name, f"{wall:.2f}", f"{pps:.1f}", f"{speed:.2f}x", same)
             for name, wall, pps, speed, same in rows],
        ),
    )
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / "ablation_batched_campaign.json").write_text(
        json.dumps(
            {
                "workload": {
                    "app": "cordic", "p": 8, "iters": 24, "ndata": 32,
                    "trials": TRIALS, "seed": 2005,
                },
                "rows": [
                    {
                        "engine": name,
                        "wall_seconds": wall,
                        "points_per_second": pps,
                        "speedup_vs_scalar": speed,
                        "report_identical": same in ("ref", "True"),
                    }
                    for name, wall, pps, speed, same in rows
                ],
            },
            indent=2,
        ) + "\n"
    )
