"""Reproducer corpus: minimized fuzz findings as replayable regressions.

Each corpus entry is an ordinary MiniLang source file (``<name>.ml``)
with a JSON sidecar (``<name>.json``) recording how it was found: the
fuzz seed and iteration index, the entry arguments, and the labels of
the variants that diverged at the time. The tier-1 suite replays every
entry through the full differential matrix — every config on every
engine — and asserts **zero** divergences: an entry that diverges again
means a fixed bug has reappeared.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

from ..lang.compiler import compile_source
from .differential import DifferentialReport, run_differential


@dataclass(frozen=True)
class CorpusEntry:
    """One stored reproducer: source text plus its discovery metadata."""

    name: str
    source: str
    args: tuple = ()
    meta: dict = field(default_factory=dict)


def save_reproducer(
    directory: str | Path,
    source: str,
    *,
    seed: int,
    index: int,
    args: tuple = (),
    divergent: tuple[str, ...] = (),
) -> Path:
    """Write *source* and its sidecar under *directory*; return the .ml path."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    name = f"fuzz_s{seed}_i{index}"
    ml_path = directory / f"{name}.ml"
    ml_path.write_text(source, encoding="utf-8")
    sidecar = {
        "seed": seed,
        "index": index,
        "args": list(args),
        "divergent": list(divergent),
    }
    (directory / f"{name}.json").write_text(
        json.dumps(sidecar, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )
    return ml_path


def load_corpus(directory: str | Path) -> list[CorpusEntry]:
    """All corpus entries under *directory*, sorted by name.

    Missing sidecars are tolerated (hand-written entries default to no
    arguments), so dropping a bare ``.ml`` file into the corpus works.
    """
    directory = Path(directory)
    entries: list[CorpusEntry] = []
    if not directory.is_dir():
        return entries
    for ml_path in sorted(directory.glob("*.ml")):
        meta: dict = {}
        sidecar = ml_path.with_suffix(".json")
        if sidecar.exists():
            meta = json.loads(sidecar.read_text(encoding="utf-8"))
        entries.append(
            CorpusEntry(
                name=ml_path.stem,
                source=ml_path.read_text(encoding="utf-8"),
                args=tuple(meta.get("args", ())),
                meta=meta,
            )
        )
    return entries


def replay_corpus(
    directory: str | Path,
) -> list[tuple[CorpusEntry, DifferentialReport]]:
    """Re-run every corpus entry through the full differential matrix."""
    results = []
    for entry in load_corpus(directory):
        program = compile_source(entry.source, name=entry.name)
        results.append((entry, run_differential(program, entry.args)))
    return results
