"""Per-point result cache for the sweep executor.

Every grid point's row is cached under a digest of *everything that could
change it*: the experiment id, the point's key and params, the derived
seed, the scale, any ``--set`` config overrides, and a fingerprint of the
``repro`` source tree.  Re-running a sweep therefore skips completed points
instantly; editing any source file, changing the seed, or overriding any
config field invalidates exactly what it should.

Entries are small JSON files (one per point) under
``<cache_dir>/<experiment_id>/<digest>.json`` — inspectable with ``cat``
and safely shareable between processes: writes go through a same-directory
temp file + ``os.replace`` so concurrent workers never observe a torn
entry.

The executor bypasses the cache whenever an :mod:`repro.obs` capture is
installed — a trace of a run that didn't happen would be a lie.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
from pathlib import Path
from typing import Any, Dict, Mapping, Optional

#: Bump when the cache entry schema changes (invalidates old entries).
CACHE_SCHEMA = 1

_FINGERPRINT: Optional[str] = None


def code_fingerprint() -> str:
    """SHA-256 over the full ``repro`` package source (paths + contents).

    Any edit to any module invalidates every cached point — coarse, but a
    sweep point exercises most of the stack (sim kernel, network, engine,
    workload), so fine-grained dependency tracking would buy little and
    risk stale results.  Computed once per process.
    """
    global _FINGERPRINT
    if _FINGERPRINT is None:
        root = Path(__file__).resolve().parents[1]  # the repro package
        hasher = hashlib.sha256()
        for path in sorted(root.rglob("*.py")):
            hasher.update(str(path.relative_to(root)).encode("utf-8"))
            hasher.update(b"\0")
            hasher.update(path.read_bytes())
            hasher.update(b"\0")
        _FINGERPRINT = hasher.hexdigest()
    return _FINGERPRINT


def point_cache_key(
    experiment_id: str,
    point_key: str,
    params: Mapping[str, Any],
    seed: int,
    scale: float,
    overrides: Optional[Mapping[str, str]] = None,
    fingerprint: Optional[str] = None,
) -> str:
    """The content-address of one grid point's row."""
    payload = {
        "schema": CACHE_SCHEMA,
        "experiment": experiment_id,
        "point": point_key,
        "params": {str(k): v for k, v in params.items()},
        "seed": seed,
        "scale": scale,
        "overrides": dict(overrides) if overrides else {},
        "code": fingerprint if fingerprint is not None else code_fingerprint(),
    }
    canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


class ResultCache:
    """Digest-keyed store of point rows, one JSON file per entry."""

    def __init__(self, directory: os.PathLike) -> None:
        self.directory = Path(directory)
        self.hits = 0
        self.misses = 0

    def _path(self, experiment_id: str, key: str) -> Path:
        return self.directory / experiment_id / f"{key}.json"

    def get(self, experiment_id: str, key: str) -> Optional[Dict[str, Any]]:
        """The cached row for ``key``, or None (corrupt entries = miss).

        Corrupt means anything but a JSON object whose ``row`` is an object.
        """
        path = self._path(experiment_id, key)
        try:
            payload = json.loads(path.read_text(encoding="utf-8"))
        except (OSError, ValueError):
            payload = None
        row = payload.get("row") if isinstance(payload, dict) else None
        if not isinstance(row, dict):
            self.misses += 1
            return None
        self.hits += 1
        return row

    def put(
        self,
        experiment_id: str,
        key: str,
        row: Dict[str, Any],
        meta: Optional[Dict[str, Any]] = None,
    ) -> None:
        path = self._path(experiment_id, key)
        path.parent.mkdir(parents=True, exist_ok=True)
        payload = {"schema": CACHE_SCHEMA, "row": row}
        if meta:
            payload["meta"] = meta
        text = json.dumps(payload, sort_keys=True)
        fd, tmp = tempfile.mkstemp(dir=path.parent, suffix=".tmp")
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as handle:
                handle.write(text)
            os.replace(tmp, path)
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise

    @property
    def lookups(self) -> int:
        return self.hits + self.misses
