"""Golden-trace corpus with drift classification.

A golden file pins one scenario together with the full observation of
its per-cycle reference run.  ``check_golden`` re-runs the corpus and
sorts every deviation into one of two buckets:

``semantic-change``
    the stored trace no longer matches the live reference, but all
    live execution modes still agree with *each other* — the engine's
    semantics moved intentionally (new instruction timing, FIFO
    accounting fix, ...).  The fix is to re-bless the corpus
    (``mb32-conformance --corpus DIR --bless``) in the same change,
    which makes the semantic shift reviewable in the diff.

``silent-regression``
    the live execution modes disagree among themselves — one of the
    fast paths broke, regardless of what the stored trace says.  This
    is never fixable by re-blessing.

Golden files are plain sorted-key JSON so a regression diff is
reviewable line by line.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

from repro.conformance.oracle import (
    ALL_MODES,
    REFERENCE_MODE,
    Observation,
    check_scenario,
    first_divergence,
    observe,
)
from repro.conformance.scenario import Scenario, scenario_from_dict

GOLDEN_VERSION = 1


@dataclass
class DriftEntry:
    """Result of re-checking one golden file."""

    name: str
    kind: str  # ok | semantic-change | silent-regression | error
    message: str = ""
    path: str = ""          # first divergent observable (dotted path)
    stored: object = None
    live: object = None
    mode_divergences: dict = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return self.kind == "ok"

    def to_dict(self) -> dict:
        out = {"name": self.name, "kind": self.kind, "message": self.message}
        if self.path:
            out["path"] = self.path
            out["stored"] = self.stored
            out["live"] = self.live
        if self.mode_divergences:
            out["mode_divergences"] = self.mode_divergences
        return out


def golden_path(corpus_dir: str | Path, name: str) -> Path:
    return Path(corpus_dir) / f"{name}.json"


def write_golden(corpus_dir: str | Path, scenario: Scenario,
                 observation: Observation) -> Path:
    """Serialize one golden trace; returns the file written."""
    path = golden_path(corpus_dir, scenario.name)
    path.parent.mkdir(parents=True, exist_ok=True)
    payload = {
        "version": GOLDEN_VERSION,
        "scenario": scenario.to_dict(),
        "observation": observation.to_dict(),
    }
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    return path


def load_golden(path: str | Path) -> tuple[Scenario, dict]:
    """Load one golden file -> (scenario, stored observation dict)."""
    data = json.loads(Path(path).read_text())
    version = data.get("version")
    if version != GOLDEN_VERSION:
        raise ValueError(
            f"{path}: golden format version {version!r}, "
            f"expected {GOLDEN_VERSION}")
    return scenario_from_dict(data["scenario"]), data["observation"]


def bless_golden(corpus_dir: str | Path,
                 scenarios: list[Scenario]) -> list[Path]:
    """(Re)write golden traces for ``scenarios`` from fresh reference
    runs."""
    written = []
    for scenario in scenarios:
        observation = observe(scenario, REFERENCE_MODE)
        written.append(write_golden(corpus_dir, scenario, observation))
    return written


def corpus_files(corpus_dir: str | Path) -> list[Path]:
    return sorted(Path(corpus_dir).glob("*.json"))


def check_golden(corpus_dir: str | Path,
                 modes: tuple[str, ...] = ALL_MODES,
                 engine: str = "auto") -> list[DriftEntry]:
    """Re-run every golden scenario under ``engine`` (forwarded to every
    :func:`~repro.conformance.oracle.observe`, the subprocess mode
    included) and classify any drift."""
    entries: list[DriftEntry] = []
    for path in corpus_files(corpus_dir):
        try:
            scenario, stored = load_golden(path)
        except (ValueError, KeyError, json.JSONDecodeError) as exc:
            entries.append(DriftEntry(name=path.stem, kind="error",
                                      message=str(exc)))
            continue
        entries.append(_check_one(scenario, stored, modes, engine))
    return entries


def _check_one(scenario: Scenario, stored: dict,
               modes: tuple[str, ...], engine: str) -> DriftEntry:
    verdict = check_scenario(scenario, modes, engine=engine)
    if verdict.build_error:
        return DriftEntry(name=scenario.name, kind="error",
                          message=f"build failed: {verdict.build_error}")

    mode_divergences = dict(verdict.divergences)
    stored_surface = Observation.from_dict(stored).comparable()
    hit = first_divergence(stored_surface, verdict.reference.comparable())

    if mode_divergences:
        first_mode = sorted(mode_divergences)[0]
        div = mode_divergences[first_mode]
        return DriftEntry(
            name=scenario.name,
            kind="silent-regression",
            message=(f"execution modes disagree: {first_mode} diverges "
                     f"from {REFERENCE_MODE} at {div['path']} "
                     f"({div['reference']!r} -> {div['observed']!r}); "
                     "re-blessing cannot fix this"),
            path=div["path"],
            stored=div["reference"],
            live=div["observed"],
            mode_divergences=mode_divergences,
        )
    if hit is not None:
        path_, stored_value, live_value = hit
        return DriftEntry(
            name=scenario.name,
            kind="semantic-change",
            message=(f"stored trace differs from the live reference at "
                     f"{path_} ({stored_value!r} -> {live_value!r}) but all "
                     "live modes agree; if intentional, re-bless with "
                     "`mb32-conformance --corpus DIR --bless`"),
            path=path_,
            stored=stored_value,
            live=live_value,
        )
    return DriftEntry(name=scenario.name, kind="ok")
