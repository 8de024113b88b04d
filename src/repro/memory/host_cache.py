"""The host-side shard store: where evicted shards live.

A :class:`HostShardCache` maps ``(model_id, shard_index)`` keys to the byte
payload of an evicted shard — its parameter arrays plus optimizer state, in
a stable order.  Payloads live in host DRAM by default; with a
``memory_limit_bytes`` and a ``spill_dir``, the oldest entries overflow to
``.npz`` archives on disk using the exact serialization that
:mod:`repro.training.checkpoint` uses for checkpoints, so a disk-tiered
shard and a checkpoint are the same format.
"""

from __future__ import annotations

import hashlib
import re
import threading
from collections import OrderedDict
from pathlib import Path
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.exceptions import ConfigurationError
from repro.training.checkpoint import load_array_bundle, save_array_bundle

ShardKey = Tuple[str, int]


def _entry_bytes(arrays: List[np.ndarray]) -> int:
    return sum(int(a.nbytes) for a in arrays)


def _file_stem(key: ShardKey) -> str:
    model_id, shard_index = key
    safe = re.sub(r"[^\w.-]", "_", model_id)
    # Sanitisation can collide ("m/1" and "m_1" both become "m_1"); a short
    # digest of the raw id keeps distinct models' archives distinct.
    digest = hashlib.sha1(model_id.encode()).hexdigest()[:8]
    return f"{safe}-{digest}__shard{shard_index}"


class HostShardCache:
    """Pinned host store for evicted shard payloads, with an optional disk tier.

    ``put`` stores *copies* of the given arrays (the device-side arrays stay
    mutable without corrupting the stash); ``get`` returns the payload and
    *keeps* it, so a shard whose bytes have not changed since can be evicted
    again without a copy; ``drop`` discards it.  When ``memory_limit_bytes``
    is set, entries overflow to ``spill_dir`` so host DRAM usage stays
    bounded, least recently stashed (or ``touch``-ed) first — the archives
    reuse :func:`repro.training.checkpoint.save_array_bundle`, i.e. the
    checkpoint ``.npz`` format.

    Example::

        cache = HostShardCache()
        cache.put(("mlp", 0), [weights, moments])
        restored = cache.get(("mlp", 0))

    Raises:
        ConfigurationError: if ``memory_limit_bytes`` is set without a
            ``spill_dir`` (nowhere to overflow), or a key is read that the
            cache does not hold.
    """

    def __init__(
        self,
        memory_limit_bytes: Optional[int] = None,
        spill_dir: Optional[str | Path] = None,
    ):
        if memory_limit_bytes is not None and memory_limit_bytes <= 0:
            raise ConfigurationError(
                f"memory_limit_bytes must be positive, got {memory_limit_bytes}"
            )
        if memory_limit_bytes is not None and spill_dir is None:
            raise ConfigurationError(
                "a memory-limited HostShardCache needs a spill_dir to overflow into"
            )
        self.memory_limit_bytes = memory_limit_bytes
        self.spill_dir = Path(spill_dir) if spill_dir is not None else None
        self._memory: "OrderedDict[ShardKey, List[np.ndarray]]" = OrderedDict()
        self._disk: Dict[ShardKey, Path] = {}
        self._lock = threading.RLock()

    # ------------------------------------------------------------------ #
    @property
    def bytes_in_memory(self) -> int:
        """Bytes of shard payload currently held in host DRAM."""
        with self._lock:
            return sum(_entry_bytes(arrays) for arrays in self._memory.values())

    def keys(self) -> List[ShardKey]:
        """Every key with a stashed payload (memory tier first, then disk)."""
        with self._lock:
            return list(self._memory) + list(self._disk)

    def holds(self, key: ShardKey) -> bool:
        """Whether a payload is stashed for ``key`` (either tier)."""
        with self._lock:
            return key in self._memory or key in self._disk

    def put(self, key: ShardKey, arrays: List[np.ndarray]) -> None:
        """Stash copies of ``arrays`` under ``key``, replacing any prior stash."""
        copies = [np.array(a, copy=True) for a in arrays]
        with self._lock:
            self._drop_locked(key)
            self._memory[key] = copies
            self._overflow_locked()

    def touch(self, key: ShardKey) -> None:
        """Count a DRAM payload as just stashed, so it overflows to disk last.

        For a shard evicted again without a copy: its payload is the one the
        next restore reads.
        """
        with self._lock:
            if key in self._memory:
                self._memory.move_to_end(key)

    def get(self, key: ShardKey) -> List[np.ndarray]:
        """The payload stashed under ``key``; the entry stays in the cache.

        A DRAM entry is returned as the cache's own arrays — read them, do
        not write them.
        """
        with self._lock:
            if key in self._memory:
                return self._memory[key]
            if key in self._disk:
                bundle = load_array_bundle(self._disk[key])
                return [bundle[name] for name in sorted(bundle)]
            raise ConfigurationError(f"host cache holds no payload for {key!r}")

    def drop(self, key: ShardKey) -> None:
        """Discard the payload stashed under ``key`` (a no-op if none is)."""
        with self._lock:
            self._drop_locked(key)

    def drop_model(self, model_id: str) -> None:
        """Discard every payload belonging to ``model_id`` (e.g. at teardown)."""
        with self._lock:
            for key in [k for k in self.keys() if k[0] == model_id]:
                self._drop_locked(key)

    # ------------------------------------------------------------------ #
    def _drop_locked(self, key: ShardKey) -> None:
        if key in self._memory:
            del self._memory[key]
        elif key in self._disk:
            self._disk.pop(key).unlink(missing_ok=True)

    def _overflow_locked(self) -> None:
        if self.memory_limit_bytes is None:
            return
        # Even the newest entry overflows when it alone exceeds the limit —
        # the DRAM bound must hold exactly in the over-memory scenarios the
        # subsystem exists for.
        while (
            self._memory
            and sum(_entry_bytes(a) for a in self._memory.values()) > self.memory_limit_bytes
        ):
            key, arrays = self._memory.popitem(last=False)
            self.spill_dir.mkdir(parents=True, exist_ok=True)
            path = save_array_bundle(
                self.spill_dir / _file_stem(key),
                {f"arr{i:04d}": a for i, a in enumerate(arrays)},
            )
            self._disk[key] = path

    def __repr__(self) -> str:
        with self._lock:
            return (
                f"HostShardCache({len(self._memory)} in memory, "
                f"{len(self._disk)} on disk)"
            )
