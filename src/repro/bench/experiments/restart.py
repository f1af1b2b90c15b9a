"""Restart benchmark — cold-start latency of the columnar archive (CLI: ``restart-bench``).

The operational half of the columnar-archive story: a serving process
that dies should come back in O(metadata), not O(data).  The legacy (v5)
``.npz`` archive forces a copy-load — every column is decompressed into
fresh heap pages and every grid is rebuilt from its sorted order — while
the columnar (v8) directory is attached with copy-on-write ``np.memmap``
and its structured section reattaches the saved clustered grids without
evaluating a single FD model, so the kernel page cache (still warm from
the previous incarnation, and shared with any sibling process) does the
rest.

The benchmark builds one sharded engine, saves it as a v8 directory and a
v5 ``.npz``, and derives a v7 directory from the v8 one
(:func:`write_legacy_archive`: the pre-v8 grid sections, a row
permutation over partition-ordered columns).  It times ``load_engine``
on each (minimum over ``repeats`` attempts, a fresh load per attempt)
and runs a probe workload through every loaded engine, verifying the
results element-for-element against the pre-save engine — so the v7
row exercises the legacy-grid conversion shim.  Rows report
``cold_start_s`` per format plus the v8-over-npz speedup; the first
post-load probe batch is timed separately so the lazily-paged mmap path
is visible rather than hidden.  The v8 manifest must hold no legacy
``row_order`` / ``sorted_keys`` array.

``smoke=True`` shrinks the build to CI scale and asserts that the v8
cold start beats the npz copy-load and that every loaded engine answers
the probes bit-identically — a restart regression fails the pipeline
next to the read-path and scale gates.
"""

from __future__ import annotations

import json
import shutil
import tempfile
import time
from pathlib import Path
from typing import Dict, List, Optional

import numpy as np

from repro.bench.experiments.datasets import airline_table, standard_workloads
from repro.bench.harness import count_mismatches
from repro.bench.reporting import ExperimentResult
from repro.core.config import COAXConfig, EngineConfig
from repro.core.engine import ShardedCOAX
from repro.io.persistence import MANIFEST_NAME, load_engine, save_index

__all__ = ["run", "write_legacy_archive"]

#: Array keys only the pre-v8 grid sections carry.
LEGACY_GRID_KEYS = ("row_order", "sorted_keys")


def write_legacy_archive(source: Path, target: Path, version: int) -> Path:
    """Copy the v8 directory archive ``source`` to ``target`` as v6 or v7.

    Every grid section is rewritten the way those formats stored it: the
    columns in the order of the partition ids the grid was built over,
    plus ``row_order`` (the clustered position's index into them) and
    ``sorted_keys`` (the clustered sort column).  The clustered
    ``row_ids`` array is dropped.  v6 also loses the engine's layout
    state, which v7 introduced.
    """
    if version not in (6, 7):
        raise ValueError(f"legacy directory layouts are v6 and v7, got {version!r}")
    shutil.copytree(source, target)
    manifest = json.loads((target / MANIFEST_NAME).read_text())
    meta = manifest["meta"]
    entries = manifest["arrays"]
    meta["format_version"] = version
    if version == 6:
        if isinstance(meta.get("engine"), dict):
            meta["engine"].pop("layout", None)
        entries = {key: entry for key, entry in entries.items() if not key.startswith("layout::")}

    def read(key: str) -> np.ndarray:
        entry = entries[key]
        return np.fromfile(target / entry["file"], dtype=np.dtype(entry["dtype"])).reshape(entry["shape"])

    def write(key: str, array: np.ndarray, file: str) -> None:
        entries[key] = {"file": file, "dtype": array.dtype.str, "shape": list(array.shape)}
        np.ascontiguousarray(array).tofile(target / file)

    sharded = "engine" in meta
    for shard_no, shard_meta in enumerate(meta["shards"] if sharded else [meta]):
        state = shard_meta.get("structured")
        if state is None:
            continue
        shard = f"shard{shard_no}::" if sharded else ""
        for grid, ids_key in (("primary", "inlier_ids"), ("outlier", "outlier_ids")):
            prefix = f"{shard}{grid}::"
            partition_ids = read(f"{shard}partition::{ids_key}")
            rank = np.zeros(int(partition_ids.max(initial=-1)) + 1, dtype=np.int64)
            rank[partition_ids] = np.arange(len(partition_ids), dtype=np.int64)
            ids_entry = entries.pop(prefix + "row_ids")
            row_order = rank[np.fromfile(target / ids_entry["file"], dtype=np.int64)]
            write(prefix + "row_order", row_order, ids_entry["file"])
            sort_key = prefix + "column::" + state[grid]["sort_dimension"]
            write(prefix + "sorted_keys", read(sort_key), f"{ids_entry['file']}.sorted_keys")
            for key in [key for key in entries if key.startswith(prefix + "column::")]:
                values = read(key)
                legacy = np.empty_like(values)
                legacy[row_order] = values
                write(key, legacy, entries[key]["file"])
    manifest["arrays"] = entries
    (target / MANIFEST_NAME).write_text(json.dumps(manifest))
    return target


def _tree_bytes(path: Path) -> int:
    """Total on-disk size of an archive (file or directory)."""
    if path.is_file():
        return path.stat().st_size
    return sum(item.stat().st_size for item in path.rglob("*") if item.is_file())


def run(
    n_rows: int = 1_000_000,
    n_shards: int = 8,
    n_queries: int = 64,
    seed: int = 23,
    executor: Optional[str] = None,
    smoke: bool = False,
    repeats: int = 3,
) -> ExperimentResult:
    """Run the restart benchmark and return its result table.

    ``executor`` overrides the scatter backend of every loaded engine
    (``load_engine``'s override path); ``None`` keeps whatever the
    archive remembers.  ``smoke`` shrinks everything to CI scale and
    asserts the v8 mmap cold start beats the legacy copy-load.
    """
    if smoke:
        n_rows = min(n_rows, 6_000)
        n_shards = min(n_shards, 2)
        n_queries = min(n_queries, 32)
        repeats = min(repeats, 2)

    table = airline_table(n_rows, seed=seed)
    engine = ShardedCOAX(
        table,
        config=EngineConfig(n_shards=n_shards, workers=n_shards, coax=COAXConfig()),
    )
    probes = list(standard_workloads(table, n_queries=n_queries, seed=seed + 3)["range"])
    expected = engine.batch_range_query(probes)
    engine.close()

    rows: List[Dict[str, object]] = []
    notes: List[str] = []
    workdir = Path(tempfile.mkdtemp(prefix="coax-restart-"))
    try:
        current = save_index(engine, workdir / "engine.coax")
        manifest = json.loads((current / MANIFEST_NAME).read_text())
        stale = [key for key in manifest["arrays"] if key.rsplit("::", 1)[-1] in LEGACY_GRID_KEYS]
        if stale:
            raise AssertionError(f"v8 archive still carries legacy grid arrays: {stale[:4]}")
        archives = {
            "v8-columnar": current,
            "v7-columnar": write_legacy_archive(current, workdir / "engine_v7.coax", 7),
            "v5-npz": save_index(engine, workdir / "engine.npz", layout="npz"),
        }
        cold_start: Dict[str, float] = {}
        for format_name, path in archives.items():
            best_load = float("inf")
            best_probe = float("inf")
            for _ in range(repeats):
                start = time.perf_counter()
                loaded = load_engine(path, executor=executor)
                load_seconds = time.perf_counter() - start
                start = time.perf_counter()
                got = loaded.batch_range_query(probes)
                probe_seconds = time.perf_counter() - start
                mismatched = count_mismatches(expected, got)
                if mismatched:
                    raise AssertionError(
                        f"{format_name} restart diverged from the pre-save engine "
                        f"on {mismatched}/{len(probes)} probe queries"
                    )
                loaded.close()
                best_load = min(best_load, load_seconds)
                best_probe = min(best_probe, probe_seconds)
            cold_start[format_name] = best_load
            rows.append(
                {
                    "dataset": "Airline",
                    "phase": "restart",
                    "format": format_name,
                    "n_rows": n_rows,
                    "shards": n_shards,
                    "executor": executor or "thread",
                    "archive_mb": round(_tree_bytes(path) / 1e6, 2),
                    "cold_start_s": round(best_load, 4),
                    "first_probe_batch_s": round(best_probe, 4),
                    "probe_queries": len(probes),
                    "mismatched_queries": 0,
                }
            )
        speedup = cold_start["v5-npz"] / max(cold_start["v8-columnar"], 1e-9)
        for row in rows:
            if row["format"] == "v8-columnar":
                row["speedup_vs_npz"] = round(speedup, 2)
        notes.append(
            "cold_start_s is the minimum load_engine wall time over "
            f"{repeats} fresh loads; every loaded engine verified "
            "element-for-element against the pre-save engine"
        )
        notes.append(
            f"v8 mmap cold start is {speedup:.1f}x faster than the v5 npz copy-load "
            f"at {n_rows:,} rows / {n_shards} shards"
        )
        if smoke and speedup <= 1.0:
            raise AssertionError(
                f"v8 mmap cold start ({cold_start['v8-columnar']:.4f}s) did not beat "
                f"the v5 npz copy-load ({cold_start['v5-npz']:.4f}s) in smoke mode"
            )
        if smoke:
            notes.append("smoke mode: asserted v8 cold start beats the npz copy-load")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    return ExperimentResult(
        experiment="restart",
        description="Restart — v8 mmap cold start vs legacy npz copy-load",
        rows=rows,
        notes=notes,
    )
