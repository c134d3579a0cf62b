"""Content-addressed on-disk cache of :class:`RunResult`.

Every experiment point is addressed by a SHA-256 digest of the canonical
JSON encoding of ``(schema version, workload, policy, scheme, full
ExperimentConfig.to_key())``.  Changing *any* knob — δ, θ, the I/O-node
count, the workload scale, a policy parameter — or bumping
:data:`~repro.exec.serialize.SCHEMA_VERSION` changes the digest, so the
cache can only ever return a result computed under exactly the same
inputs; there is no staleness to invalidate.

Layout: ``<root>/<digest[:2]>/<digest>.json`` (fan-out keeps directories
small under full-sweep populations).  Writes are atomic (tempfile +
``os.replace``), which also makes concurrent writers racing on the same
digest harmless — both write identical bytes.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

from ..experiments.config import ExperimentConfig
from ..experiments.runner import RunResult
from .serialize import (
    SCHEMA_VERSION,
    canonical_dumps,
    run_result_from_dict,
    run_result_to_dict,
)

__all__ = ["point_digest", "CacheStats", "ResultCache"]


def point_digest(
    config: ExperimentConfig, workload: str, policy: str, scheme: bool
) -> str:
    """Stable content address of one experiment point."""
    payload = canonical_dumps(
        {
            "schema": SCHEMA_VERSION,
            "workload": workload,
            "policy": policy,
            "scheme": scheme,
            "config": {name: value for name, value in config.to_key()},
        }
    )
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


@dataclass
class CacheStats:
    """Hit/miss/store counters for one cache instance."""

    hits: int = 0
    misses: int = 0
    stores: int = 0
    invalid: int = 0  # unreadable/corrupt entries treated as misses
    orphans_swept: int = 0  # .tmp-* files left behind by crashed writers
    quarantined: int = 0  # corrupt entries renamed aside by lookup()

    def as_dict(self) -> dict[str, int]:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "stores": self.stores,
            "invalid": self.invalid,
            "orphans_swept": self.orphans_swept,
            "quarantined": self.quarantined,
        }


@dataclass
class ResultCache:
    """Content-addressed result store rooted at ``root``."""

    root: Path
    stats: CacheStats = field(default_factory=CacheStats)

    def __post_init__(self) -> None:
        self.root = Path(self.root)
        self.root.mkdir(parents=True, exist_ok=True)
        self.sweep_orphans()

    # ------------------------------------------------------------------
    def sweep_orphans(self) -> int:
        """Delete ``.tmp-*`` writer leftovers and ``.corrupt-*`` files.

        A writer that dies between ``mkstemp`` and ``os.replace`` leaves
        its tempfile behind, and :meth:`lookup` renames unreadable
        entries to ``.corrupt-*`` names; without a sweep either kind
        accumulates forever.  Racing a *live* writer is harmless: its
        ``os.replace`` then fails with ``FileNotFoundError`` and
        :meth:`store` retries with a fresh tempfile.
        """
        removed = 0
        for pattern in ("*/.tmp-*", "*/.corrupt-*"):
            for orphan in sorted(self.root.glob(pattern)):
                try:
                    orphan.unlink()
                except OSError:
                    continue  # a concurrent sweep got there first
                removed += 1
        self.stats.orphans_swept += removed
        return removed

    def path_for(self, digest: str) -> Path:
        return self.root / digest[:2] / f"{digest}.json"

    def lookup(
        self,
        config: ExperimentConfig,
        workload: str,
        policy: str,
        scheme: bool,
    ) -> Optional[RunResult]:
        """The cached result for this exact point, or None (counted)."""
        return self.read(point_digest(config, workload, policy, scheme))

    def read(self, digest: str) -> Optional[RunResult]:
        """The validated entry stored under ``digest``, or None (counted).

        The one way to read an entry: a file that is not a current-schema
        result document counts as invalid and a miss, exactly like an
        absent one, and is quarantined.
        """
        path = self.path_for(digest)
        try:
            with path.open("r", encoding="utf-8") as fh:
                doc = json.load(fh)
            if not isinstance(doc, dict):
                raise ValueError("cache entry is not a JSON object")
            result = run_result_from_dict(doc)
        except FileNotFoundError:
            self.stats.misses += 1
            return None
        except (ValueError, KeyError, TypeError, OSError):
            # Corrupt or foreign-schema entry: treat as a miss, and
            # quarantine the file so subsequent lookups are plain misses
            # instead of re-parsing (and re-counting) the same bad bytes.
            self.stats.invalid += 1
            self.stats.misses += 1
            self._quarantine(path)
            return None
        self.stats.hits += 1
        return result

    def _quarantine(self, path: Path) -> None:
        """Atomically rename a corrupt entry to a ``.corrupt-*`` dotfile.

        The dotfile is invisible to :meth:`_entries` and swept like a
        writer orphan, so the next :meth:`store` repopulates the slot
        cleanly.  The name carries the pid so two processes quarantining
        the same entry cannot collide; losing the rename race (another
        process already moved or replaced the file) is fine.
        """
        aside = path.with_name(f".corrupt-{os.getpid()}-{path.name}")
        try:
            os.replace(path, aside)
        except OSError:
            return  # raced: already quarantined, re-stored, or removed
        self.stats.quarantined += 1

    def store(
        self,
        config: ExperimentConfig,
        workload: str,
        policy: str,
        scheme: bool,
        result: RunResult,
    ) -> Path:
        """Atomically persist one result; returns its path."""
        path = self.path_for(point_digest(config, workload, policy, scheme))
        path.parent.mkdir(parents=True, exist_ok=True)
        payload = canonical_dumps(run_result_to_dict(result))
        # A concurrent cache's orphan sweep may unlink our live tempfile
        # between mkstemp and os.replace; each retry opens a fresh
        # tempfile, so losing the race N consecutive times requires N
        # independent sweeps landing inside N microsecond windows —
        # vanishingly unlikely long before the bound (the shared-root
        # hammer test showed two attempts genuinely are not enough).
        attempts = 8
        for attempt in range(attempts):
            fd, tmp = tempfile.mkstemp(
                dir=path.parent, prefix=".tmp-", suffix=".json"
            )
            try:
                with os.fdopen(fd, "w", encoding="utf-8") as fh:
                    fh.write(payload)
                os.replace(tmp, path)
            except FileNotFoundError:
                if attempt == attempts - 1:
                    raise
                continue
            except BaseException:
                try:
                    os.unlink(tmp)
                except OSError:
                    pass
                raise
            break
        self.stats.stores += 1
        return path

    # ------------------------------------------------------------------
    def _entries(self):
        # pathlib's glob matches dotfiles, so in-flight/orphaned
        # ``.tmp-*.json`` writer files and ``.corrupt-*`` quarantines
        # must be filtered out explicitly.
        return (
            p
            for p in sorted(self.root.glob("*/*.json"))
            if not p.name.startswith(".")
        )

    def __len__(self) -> int:
        return sum(1 for _ in self._entries())

    def clear(self) -> int:
        """Delete every cached entry (and sweep writer orphans); returns
        how many *entries* were removed.

        Safe against concurrent writers and sweepers on the same root
        (the shared-cache shape the scheduling server creates): an entry
        another process unlinked between the listing and our ``unlink``
        is simply skipped, and only successful unlinks are counted.
        """
        self.sweep_orphans()
        removed = 0
        for entry in self._entries():
            try:
                entry.unlink()
            except OSError:
                continue  # a concurrent clear/sweep removed it first
            removed += 1
        return removed
