"""Content-addressed on-disk cache for experiment results.

The study harness replays the same ~290 configurations every time any
bench or CLI invocation asks for them.  The simulator is deterministic:
a :class:`~repro.core.experiment.ExperimentSpec` plus the cost-model
constants fully determine the :class:`~repro.engine.runtime.RunResult`.
This module exploits that by addressing results with a SHA-256 digest of

- every field of the spec (model, precision, device, batch, generation
  split, power mode, workload, run protocol, KV mode, runtime),
- every calibration constant in the effective
  :class:`~repro.engine.kernels.EngineCostParams` (including the quant
  kernel model),
- the selected runtime backend's configuration payload plus
  :data:`~repro.backends.registry.BACKEND_MODEL_VERSION`, and
- :data:`COST_MODEL_VERSION`, a manually-bumped tag for semantic changes
  that the constants alone cannot see.

Invalidation is therefore automatic: change a calibration constant, pass
different params, or bump the version tag, and every affected key
misses.  There is deliberately no TTL — entries are immutable facts
about one (spec, model-version) point.

Use :func:`set_default_cache` (or the ``REPRO_CACHE_DIR`` environment
variable) to make :func:`~repro.core.experiment.run_experiment` consult
a cache without plumbing it through every call site.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import pickle
import tempfile
import time
from pathlib import Path
from typing import Optional

from repro.backends.registry import BACKEND_MODEL_VERSION
from repro.engine.kernels import EngineCostParams
from repro.engine.runtime import RunResult

#: Bump when the *semantics* of the cost/power/memory model change in a
#: way the calibration constants do not capture (e.g. a new roofline
#: term).  Every bump invalidates all previously cached results.
COST_MODEL_VERSION = "2026.08-runtime-axis-1"

#: Environment variable that, when set, enables the process-default
#: cache at the given directory.
CACHE_DIR_ENV = "REPRO_CACHE_DIR"


def default_cache_dir() -> Path:
    """The cache root used when none is given explicitly."""
    env = os.environ.get(CACHE_DIR_ENV)
    if env:
        return Path(env).expanduser()
    xdg = os.environ.get("XDG_CACHE_HOME")
    base = Path(xdg).expanduser() if xdg else Path.home() / ".cache"
    return base / "repro-edge-llm"


def _canonical_params(params: EngineCostParams) -> dict:
    """EngineCostParams -> JSON-serialisable dict with stable keys."""
    d = dataclasses.asdict(params)
    quant = d.get("quant") or {}
    gpu_util = quant.get("gpu_util") or {}
    # Precision-enum keys -> their string values, sorted by json.dumps.
    quant["gpu_util"] = {getattr(k, "value", str(k)): v
                         for k, v in gpu_util.items()}
    d["quant"] = quant
    return d


def spec_fingerprint(spec, params: EngineCostParams,
                     version: str = COST_MODEL_VERSION) -> str:
    """SHA-256 content address of one (spec, constants, version) point."""
    from repro.core.experiment import backend_for_spec
    from repro.kvtier.policy import KV_TIER_VERSION

    payload = {
        "spec": {
            "model": spec.model,
            "precision": spec.precision.value,
            "device": spec.device,
            "batch_size": spec.batch_size,
            "input_tokens": spec.gen.input_tokens,
            "output_tokens": spec.gen.output_tokens,
            "power_mode": spec.power_mode,
            "workload": spec.workload,
            "n_runs": spec.n_runs,
            "warmup": spec.warmup,
            "kv_mode": spec.kv_mode,
            "runtime": getattr(spec, "runtime", "hf-transformers"),
        },
        "params": _canonical_params(params),
        "backend": backend_for_spec(spec).config_payload(),
        "backend_model_version": BACKEND_MODEL_VERSION,
        "cost_model_version": version,
        # KV lifecycle semantics (preemption, swap, prefix sharing) sit
        # under every serving result; bumping kvtier invalidates too.
        "kv_tier_version": KV_TIER_VERSION,
    }
    return payload_fingerprint(payload)


def payload_fingerprint(payload: dict) -> str:
    """SHA-256 of a canonical-JSON payload (shared key machinery).

    Everything content-addressed in this codebase — experiment results
    here, fault schedules in :mod:`repro.faults.schedule` — funnels
    through this one canonicalisation (sorted keys, no whitespace,
    ``str()`` for non-JSON leaves) so keys are comparable and collision
    semantics are uniform.
    """
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"),
                      default=str)
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def versioned_fingerprint(spec, **versions) -> str:
    """Content address of a frozen spec dataclass and its model versions.

    Every spec field (``dataclasses.asdict``) plus one top-level entry
    per ``name=version`` keyword; the sweep and plan specs pass the
    semantics-version constant their results depend on.
    """
    payload = dataclasses.asdict(spec)
    payload.update(versions)
    return payload_fingerprint(payload)


@dataclasses.dataclass
class CacheStats:
    """Hit/miss accounting for one :class:`ResultCache`."""

    hits: int = 0
    misses: int = 0
    puts: int = 0
    #: Misses resolved by waiting for another worker's in-flight compute
    #: (the single-flight claim protocol) instead of computing locally.
    dedup_waits: int = 0

    @property
    def lookups(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        return self.hits / self.lookups if self.lookups else 0.0

    def merge(self, other: "CacheStats") -> "CacheStats":
        """Fold another stats delta into this one (in place).

        The one aggregation protocol: worker processes ship their
        per-chunk deltas back and :func:`~repro.core.parallel.run_specs`
        and the benches fold them here — ``hit_rate``/``lookups`` stay
        consistent because they derive from the folded counters.
        """
        self.hits += other.hits
        self.misses += other.misses
        self.puts += other.puts
        self.dedup_waits += other.dedup_waits
        return self

    def snapshot(self) -> "CacheStats":
        """Copy (for before/after deltas around a chunk of work)."""
        return CacheStats(hits=self.hits, misses=self.misses,
                          puts=self.puts, dedup_waits=self.dedup_waits)

    def delta_since(self, before: "CacheStats") -> "CacheStats":
        """Counters accumulated since ``before`` (a :meth:`snapshot`)."""
        return CacheStats(
            hits=self.hits - before.hits,
            misses=self.misses - before.misses,
            puts=self.puts - before.puts,
            dedup_waits=self.dedup_waits - before.dedup_waits,
        )

    def as_row(self) -> dict:
        return {"hits": self.hits, "misses": self.misses, "puts": self.puts,
                "dedup_waits": self.dedup_waits,
                "hit_rate": round(self.hit_rate, 3)}


def _pid_alive(pid: int) -> bool:
    """Best-effort liveness probe (signal 0; EPERM still means alive)."""
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    except PermissionError:
        return True
    except (OverflowError, ValueError, OSError):
        return False
    return True


def _claim_is_stale(claim: Path, claim_stale_s: float) -> bool:
    """A claim is stale when its owner died or it outlived the deadline.

    Racy reads are fine: a claim that vanishes mid-probe is simply not
    stale (its owner finished), and tearing down a just-replaced claim
    at worst duplicates one compute against an atomic ``put``.
    """
    try:
        st = claim.stat()
    except OSError:
        return False
    if time.time() - st.st_mtime > claim_stale_s:
        return True
    try:
        pid = int(claim.read_text().strip() or "0")
    except (OSError, ValueError):
        # Claimed but pid not yet written (or unreadable): fresh mtime
        # says give the owner the benefit of the doubt.
        return False
    return bool(pid) and not _pid_alive(pid)


class ResultCache:
    """Content-addressed store of :class:`RunResult` pickles.

    Layout: ``<root>/<aa>/<sha256>.pkl`` (two-level fan-out keeps
    directories small for study-scale grids).  Writes are atomic
    (temp file + rename), so concurrent workers — the parallel study
    fan-out — can share one cache directory without locking: the worst
    case is two workers computing the same entry and one rename winning.
    """

    def __init__(self, root: Optional[Path | str] = None,
                 version: str = COST_MODEL_VERSION):
        self.root = Path(root) if root is not None else default_cache_dir()
        self.version = version
        self.stats = CacheStats()

    # -- keys --------------------------------------------------------------
    def key_for(self, spec, params: EngineCostParams) -> str:
        return spec_fingerprint(spec, params, self.version)

    def _path_for(self, key: str) -> Path:
        return self.root / key[:2] / f"{key}.pkl"

    # -- access ------------------------------------------------------------
    def _load(self, path: Path) -> Optional[RunResult]:
        """Read one entry; None when missing, torn, or incompatible."""
        try:
            with open(path, "rb") as fh:
                return pickle.load(fh)
        except (OSError, pickle.UnpicklingError, EOFError, AttributeError):
            return None

    def _store(self, path: Path, result: RunResult) -> None:
        """Atomic write (temp file + rename; last writer wins)."""
        path.parent.mkdir(parents=True, exist_ok=True)
        fd, tmp = tempfile.mkstemp(dir=path.parent, suffix=".tmp")
        try:
            with os.fdopen(fd, "wb") as fh:
                pickle.dump(result, fh, protocol=pickle.HIGHEST_PROTOCOL)
            os.replace(tmp, path)
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise
        self.stats.puts += 1

    def get(self, spec, params: EngineCostParams) -> Optional[RunResult]:
        """Cached result for (spec, params), or None on miss."""
        result = self._load(self._path_for(self.key_for(spec, params)))
        if result is None:
            self.stats.misses += 1
            return None
        self.stats.hits += 1
        return result

    def put(self, spec, params: EngineCostParams, result: RunResult) -> None:
        """Store one result (atomic; last writer wins)."""
        self._store(self._path_for(self.key_for(spec, params)), result)

    # -- single-flight ------------------------------------------------------
    def get_or_compute(self, spec, params: EngineCostParams, compute,
                       wait_timeout_s: float = 60.0,
                       claim_stale_s: float = 300.0) -> RunResult:
        """Return the cached result, computing it at most once fleet-wide.

        Under parallel cold runs, N workers hitting the same key would
        all compute it.  Instead, a miss first claims the key by
        creating ``<key>.claim`` with ``O_CREAT | O_EXCL`` (atomic on
        every POSIX filesystem): the winner runs ``compute()``, stores
        the result, and removes the claim; losers poll for the result
        file and count a ``dedup_waits`` when it lands.  Claims are
        advisory and crash-safe — a claim whose owner pid is dead (or
        older than ``claim_stale_s``) is torn down and taken over, and a
        waiter that exhausts ``wait_timeout_s`` computes anyway (the
        atomic ``put`` makes duplicated computes harmless, so this can
        only waste work, never corrupt the cache).
        """
        key = self.key_for(spec, params)
        path = self._path_for(key)
        result = self._load(path)
        if result is not None:
            self.stats.hits += 1
            return result
        self.stats.misses += 1

        claim = path.parent / f"{key}.claim"
        deadline = time.monotonic() + wait_timeout_s
        poll_s = 0.001
        while True:
            path.parent.mkdir(parents=True, exist_ok=True)
            try:
                fd = os.open(claim, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
            except FileExistsError:
                pass
            else:
                # We own the claim: compute exactly once, publish, release.
                try:
                    with os.fdopen(fd, "w") as fh:
                        fh.write(str(os.getpid()))
                    result = self._load(path)
                    if result is not None:
                        # The previous owner published between our miss
                        # and our claim.
                        return result
                    result = compute()
                    self._store(path, result)
                    return result
                finally:
                    try:
                        os.unlink(claim)
                    except OSError:
                        pass
            # Someone else is computing this key: wait for their result.
            time.sleep(poll_s)
            poll_s = min(poll_s * 2, 0.05)
            result = self._load(path)
            if result is not None:
                self.stats.dedup_waits += 1
                return result
            if _claim_is_stale(claim, claim_stale_s):
                try:
                    os.unlink(claim)
                except OSError:
                    pass
                continue  # retry the claim immediately
            if time.monotonic() >= deadline:
                # Give up on the owner (wedged, not dead): duplicate the
                # compute rather than stall the whole sweep.
                result = compute()
                self._store(path, result)
                return result

    # -- maintenance -------------------------------------------------------
    def __len__(self) -> int:
        return sum(1 for _ in self.root.glob("*/*.pkl")) if self.root.exists() else 0

    def clear(self) -> int:
        """Delete every entry; returns how many were removed."""
        n = 0
        if self.root.exists():
            for p in self.root.glob("*/*.pkl"):
                try:
                    p.unlink()
                    n += 1
                except OSError:
                    pass
        return n


# -- process-default cache --------------------------------------------------

_default_cache: Optional[ResultCache] = None
_default_resolved = False


def set_default_cache(cache: Optional[ResultCache]) -> None:
    """Install (or, with None, remove) the process-default cache."""
    global _default_cache, _default_resolved
    _default_cache = cache
    _default_resolved = True


def get_default_cache() -> Optional[ResultCache]:
    """The process-default cache.

    Resolution order: whatever :func:`set_default_cache` installed;
    otherwise a cache at ``$REPRO_CACHE_DIR`` if that variable is set;
    otherwise None (caching off).
    """
    global _default_cache, _default_resolved
    if not _default_resolved:
        if os.environ.get(CACHE_DIR_ENV):
            _default_cache = ResultCache()
        _default_resolved = True
    return _default_cache
