"""The model registry: versioned checkpoints as the training→serving bridge.

A :class:`ModelRegistry` is a directory of published model versions::

    <root>/<name>/v0001/model.npz
    <root>/<name>/v0002/model.npz
    ...

Each archive is an ordinary checkpoint written by
:func:`repro.training.checkpoint.save_checkpoint` (``param::`` parameter
arrays plus ``meta::`` metadata), so a published model and a mid-trial
checkpoint share one serialization.  Training
code publishes a trained model — or the checkpoint archive a pool child
already wrote for it, copied without its optimizer state — under a name;
serving code builds a model of the same architecture and loads the
published bytes back into it — bit-identical, which is what makes a
spilled or replicated deployment reproduce the training-time outputs
exactly.
"""

from __future__ import annotations

import os
import re
import shutil
import threading
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional, Union

import numpy as np

from repro.exceptions import CheckpointError, ConfigurationError
from repro.nn.module import Module
from repro.training.checkpoint import copy_checkpoint, load_checkpoint, save_checkpoint

#: directory name for version ``n`` (zero-padded so lexical sort == numeric)
_VERSION_DIR = "v{version:04d}"
_VERSION_RE = re.compile(r"^v(\d{4,})$")
_NAME_RE = re.compile(r"^[\w.-]+$")
#: archive file inside each version directory
_ARCHIVE = "model.npz"


@dataclass(frozen=True)
class ModelVersion:
    """One published model version: where it lives and what was recorded."""

    name: str
    version: int
    path: Path
    metadata: Dict[str, Any] = field(default_factory=dict)

    @property
    def archive(self) -> Path:
        """Path of the version's ``.npz`` checkpoint archive."""
        return self.path / _ARCHIVE


def _plain(value: np.ndarray) -> Any:
    """Unwrap 0-d / single-element metadata arrays back to python scalars."""
    array = np.asarray(value)
    if array.shape == () or array.size == 1:
        return array.reshape(()).item()
    return array


class ModelRegistry:
    """Publishes and loads versioned model checkpoints under one root.

    Publishing copies a model's parameters (plus caller metadata) into a new
    version directory; loading copies a chosen version — the latest by
    default — back into a caller-built model of the same architecture.
    The registry is thread-safe: concurrent trials under the worker-pool
    runtime can publish without clobbering each other's version numbers.

    It is also **process-safe and crash-safe**: a version directory is
    claimed with an atomic ``mkdir`` (auto-numbered publishes race forward
    past collisions), and the archive is written to a temporary file and
    ``os.replace``-d into place, so readers never observe a torn archive —
    a publisher killed mid-write leaves a version directory without an
    archive, which every lookup path ignores.  Registry objects pickle
    (they serialise as their root path), so a handle can be shipped to
    worker processes that publish or load against the same directory.

    Example::

        registry = ModelRegistry(tmp_path)
        published = registry.publish("mlp", trained_model, metadata={"loss": 0.3})
        restored = registry.load("mlp", fresh_model)          # latest version
        assert restored.version == published.version

    Raises:
        ConfigurationError: for invalid model names or version numbers.
        CheckpointError: for unknown names/versions, version collisions, or
            archives whose parameters do not match the target model.
    """

    def __init__(self, root: str | Path):
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        self._lock = threading.RLock()

    def __getstate__(self) -> Dict[str, Any]:
        """Pickle as the root path alone (locks are per-process)."""
        return {"root": str(self.root)}

    def __setstate__(self, state: Dict[str, Any]) -> None:
        """Rebuild against the same directory with a fresh in-process lock."""
        self.root = Path(state["root"])
        self.root.mkdir(parents=True, exist_ok=True)
        self._lock = threading.RLock()

    # ------------------------------------------------------------------ #
    # Publishing
    # ------------------------------------------------------------------ #
    def publish(
        self,
        name: str,
        source: Union[Module, str, os.PathLike],
        metadata: Optional[Dict[str, Any]] = None,
        version: Optional[int] = None,
    ) -> ModelVersion:
        """Publish a model's parameters as a new version of ``name``.

        ``source`` is the model itself, or the path of a checkpoint archive
        of it: the archive's ``param::``, ``rng::`` and ``meta::`` members
        are copied as they are (no model is built, no parameter decoded) and
        its ``opt::``/``sched::`` members are left behind
        (:func:`~repro.training.checkpoint.copy_checkpoint`).  Either way
        ``metadata`` is written over what the source records.

        ``version`` defaults to one past the latest published version (1 for
        a new name); passing an explicit number that already exists raises —
        published versions are immutable.  ``metadata`` values must be
        convertible by ``np.asarray`` (numbers, strings, small arrays).

        The version directory is claimed with an atomic ``mkdir`` (so
        concurrent publishers — threads *or* processes — cannot share a
        number; auto-numbered publishes retry past collisions), and the
        archive lands via write-to-temp + ``os.replace``: readers either
        see the complete archive or no archive at all.
        """
        self._check_name(name)
        if version is not None and version <= 0:
            raise ConfigurationError(f"version must be positive, got {version}")
        with self._lock:
            directory, version = self._claim_version_dir(name, version)
            staged = directory / (".staging-" + _ARCHIVE)
            try:
                if isinstance(source, (str, os.PathLike)):
                    copied = copy_checkpoint(source, staged, metadata)
                    payload = {key: _plain(value) for key, value in copied.items()}
                else:
                    payload = {"model_name": getattr(source, "model_name", type(source).__name__)}
                    payload.update(metadata or {})
                    staged = save_checkpoint(source, staged, metadata=payload)
            except BaseException:
                # Give the claimed number back: nothing was published under it.
                shutil.rmtree(directory, ignore_errors=True)
                raise
            os.replace(staged, directory / _ARCHIVE)
            return ModelVersion(
                name=name, version=version, path=directory, metadata=dict(payload)
            )

    def _claim_version_dir(self, name: str, version: Optional[int]):
        """Atomically create (and thereby own) the next version directory.

        ``mkdir`` is the cross-process mutex: whoever creates the directory
        owns the number.  Auto-numbered publishes advance past collisions —
        both live racers and torn directories a killed publisher left
        behind (a directory without an archive is invisible to
        :meth:`versions` but still occupies its number).
        """
        floor = 1
        for _ in range(10_000):
            if version is not None:
                chosen = version
            else:
                existing = self.versions(name)
                chosen = max((existing[-1] + 1) if existing else 1, floor)
            directory = self.root / name / _VERSION_DIR.format(version=chosen)
            try:
                directory.mkdir(parents=True)
                return directory, chosen
            except FileExistsError:
                if version is not None:
                    raise CheckpointError(
                        f"model {name!r} version {version} is already published; "
                        "published versions are immutable"
                    )
                floor = chosen + 1
        raise CheckpointError(  # pragma: no cover - requires 10k live racers
            f"could not allocate a version number for model {name!r}"
        )

    # ------------------------------------------------------------------ #
    # Lookup
    # ------------------------------------------------------------------ #
    def names(self) -> List[str]:
        """Every model name with at least one published version, sorted.

        Directories that are not valid model names (a pre-existing registry
        root may contain unrelated entries) are skipped, not rejected.
        """
        with self._lock:
            return sorted(
                entry.name
                for entry in self.root.iterdir()
                if entry.is_dir()
                and _NAME_RE.match(entry.name)
                and self.versions(entry.name)
            )

    def versions(self, name: str) -> List[int]:
        """Published version numbers of ``name``, ascending (empty if none)."""
        self._check_name(name)
        directory = self.root / name
        if not directory.is_dir():
            return []
        found = []
        for entry in directory.iterdir():
            match = _VERSION_RE.match(entry.name)
            if match and (entry / _ARCHIVE).exists():
                found.append(int(match.group(1)))
        return sorted(found)

    def latest_version(self, name: str) -> int:
        """The newest published version number of ``name``."""
        versions = self.versions(name)
        if not versions:
            raise CheckpointError(f"registry has no published model {name!r}")
        return versions[-1]

    def archive_path(self, name: str, version: Optional[int] = None) -> Path:
        """The ``.npz`` archive path of ``name``/``version`` (default latest).

        Published versions are immutable, so a path resolved once stays
        valid for as long as the version exists.
        """
        return self._resolve(name, version).archive

    def metadata(self, name: str, version: Optional[int] = None) -> Dict[str, Any]:
        """The metadata recorded when ``name``/``version`` was published.

        Reads only the ``meta::`` entries of the archive — parameters are
        not materialised, so this is cheap even for large models.
        """
        archive = self._resolve(name, version).archive
        metadata: Dict[str, Any] = {}
        with np.load(archive, allow_pickle=False) as handle:
            for key in handle.files:
                if key.startswith("meta::"):
                    metadata[key[len("meta::"):]] = _plain(handle[key])
        return metadata

    # ------------------------------------------------------------------ #
    # Loading
    # ------------------------------------------------------------------ #
    def load(
        self, name: str, model: Module, version: Optional[int] = None
    ) -> ModelVersion:
        """Copy a published version's parameters into ``model`` (bit-exact).

        ``version`` defaults to the latest.  The model must expose exactly
        the published parameter names and shapes (it is the caller's job to
        rebuild the right architecture — e.g. from the trial's recorded
        hyperparameters).
        """
        resolved = self._resolve(name, version)
        metadata = load_checkpoint(model, resolved.archive)
        return ModelVersion(
            name=resolved.name,
            version=resolved.version,
            path=resolved.path,
            metadata={key: _plain(value) for key, value in metadata.items()},
        )

    # ------------------------------------------------------------------ #
    def _resolve(self, name: str, version: Optional[int]) -> ModelVersion:
        with self._lock:
            if version is None:
                version = self.latest_version(name)
            directory = self.root / name / _VERSION_DIR.format(version=version)
            if not (directory / _ARCHIVE).exists():
                raise CheckpointError(
                    f"registry has no model {name!r} version {version}; "
                    f"published versions: {self.versions(name) or 'none'}"
                )
            return ModelVersion(name=name, version=int(version), path=directory)

    @staticmethod
    def _check_name(name: str) -> None:
        if not _NAME_RE.match(name or ""):
            raise ConfigurationError(
                f"invalid model name {name!r}; use letters, digits, '.', '_', '-'"
            )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"ModelRegistry(root={str(self.root)!r}, models={self.names()})"
