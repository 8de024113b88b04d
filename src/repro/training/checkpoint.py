"""Model checkpointing to ``.npz`` archives.

Archives are flat key/value stores of numpy arrays with a namespace prefix
per section: ``param::<name>`` for model parameters, ``opt::<...>`` for
optimizer state (step count and per-parameter moment arrays),
``sched::<key>`` for learning-rate-scheduler state, ``rng::<i>`` for the
dropout generators' states, and ``meta::<key>`` for caller metadata.  The
same serialization (via :func:`save_array_bundle` / :func:`load_array_bundle`)
backs the serving :class:`~repro.serving.ModelRegistry`, so a published
model version and a checkpoint are one format — which is why
:func:`copy_checkpoint` can publish a training snapshot by copying its
members instead of rebuilding the model.
"""

from __future__ import annotations

import io
import json
import zipfile
from pathlib import Path
from typing import Any, Dict, List, Optional

import numpy as np

from repro.exceptions import CheckpointError
from repro.nn.dropout import Dropout
from repro.nn.module import Module
from repro.optim.lr_scheduler import LRScheduler
from repro.optim.optimizer import Optimizer

#: archive key prefixes (one namespace per section)
PARAM_PREFIX = "param::"
OPT_PREFIX = "opt::"
SCHED_PREFIX = "sched::"
RNG_PREFIX = "rng::"
META_PREFIX = "meta::"


def save_array_bundle(
    path: str | Path, arrays: Dict[str, np.ndarray], compressed: bool = False
) -> Path:
    """Write a flat ``name -> array`` mapping to an ``.npz`` archive.

    This is the serialization primitive under :func:`save_checkpoint` (and
    so under the serving registry's published versions).  Returns the actual
    path written (numpy appends ``.npz`` when missing).
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    written = path if path.suffix == ".npz" else path.with_suffix(path.suffix + ".npz")
    save = np.savez_compressed if compressed else np.savez
    save(path, **{name: np.asarray(values) for name, values in arrays.items()})
    return written


def load_array_bundle(path: str | Path) -> Dict[str, np.ndarray]:
    """Read back a ``name -> array`` mapping written by :func:`save_array_bundle`."""
    path = Path(path)
    if not path.exists() and path.with_suffix(path.suffix + ".npz").exists():
        path = path.with_suffix(path.suffix + ".npz")
    if not path.exists():
        raise CheckpointError(f"archive {path} does not exist")
    with np.load(path, allow_pickle=False) as archive:
        return {key: archive[key] for key in archive.files}


def copy_checkpoint(
    source: str | Path, path: str | Path, metadata: Dict[str, Any] | None = None
) -> Dict[str, np.ndarray]:
    """Write ``source``'s model sections to ``path``, without decoding them.

    The ``param::``, ``rng::`` and ``meta::`` members are copied byte for
    byte, and ``metadata`` is written over the ``meta::`` keys it names.
    ``opt::`` and ``sched::`` are dropped, so the copy is what
    :func:`save_checkpoint` writes for the trained model alone.  Returns
    the copy's metadata (the only members this reads as arrays).

    Raises:
        CheckpointError: if ``source`` does not exist or holds no parameters.
    """
    source = Path(source)
    if not source.exists():
        raise CheckpointError(f"archive {source} does not exist")
    written = {f"{META_PREFIX}{key}.npy": np.asarray(value)
               for key, value in (metadata or {}).items()}
    kept = (PARAM_PREFIX, RNG_PREFIX, META_PREFIX)
    with zipfile.ZipFile(source) as reader:
        members = [info for info in reader.infolist()
                   if info.filename.startswith(kept) and info.filename not in written]
        if not any(info.filename.startswith(PARAM_PREFIX) for info in members):
            raise CheckpointError(f"checkpoint {source} contains no parameters")
        copied = {}
        # The layout np.savez writes (stored, zip64 headers), so the copy
        # is byte-for-byte the size of the archive save_checkpoint writes.
        with zipfile.ZipFile(path, "w", allowZip64=True) as writer:
            for info in members:
                data = reader.read(info)
                if info.filename.startswith(META_PREFIX):
                    copied[info.filename] = np.lib.format.read_array(io.BytesIO(data))
                with writer.open(info.filename, "w", force_zip64=True) as dst:
                    dst.write(data)
            for name, values in written.items():
                with writer.open(name, "w", force_zip64=True) as dst:
                    np.lib.format.write_array(dst, values, allow_pickle=False)
    copied.update(written)
    return {name[len(META_PREFIX):-len(".npy")]: values for name, values in copied.items()}


def _optimizer_param_names(model: Module, optimizer: Optimizer) -> Dict[int, str]:
    """Map ``id(param) -> qualified name`` for the optimizer's parameters.

    Every optimizer parameter must belong to the model, otherwise the saved
    state could not be re-attached on load.
    """
    by_id = {id(param): name for name, param in model.named_parameters()}
    names: Dict[int, str] = {}
    for param in optimizer.parameters:
        if id(param) not in by_id:
            raise CheckpointError(
                "optimizer holds a parameter that is not part of the model; "
                "cannot serialise its state under a stable name"
            )
        names[id(param)] = by_id[id(param)]
    return names


def _dropout_generators(model: Module) -> List[np.random.Generator]:
    """The distinct generators ``model``'s dropout layers draw from.

    Deduplicated by identity, in ``named_modules()`` order; layers drawing
    from the global generator own no state to capture (:func:`save_checkpoint`
    refuses a model with such a layer unless its ``p`` is 0).
    """
    generators: Dict[int, np.random.Generator] = {}
    for _, module in model.named_modules():
        if isinstance(module, Dropout) and module._rng is not None:
            generators.setdefault(id(module._rng), module._rng)
    return list(generators.values())


def save_checkpoint(
    model: Module,
    path: str | Path,
    metadata: Dict[str, object] | None = None,
    compressed: bool = False,
    optimizer: Optional[Optimizer] = None,
    scheduler: Optional[LRScheduler] = None,
) -> Path:
    """Write the model's parameters (and optional metadata) to ``path``.

    With ``compressed=True`` the archive is deflate-compressed
    (``np.savez_compressed``) — markedly smaller artifacts for the
    selection examples, at a modest CPU cost on save.
    ``load_checkpoint`` reads both formats transparently.

    With ``optimizer=...`` the archive additionally captures the full
    optimizer state under ``opt::`` keys — the step count, the learning
    rate, and every per-parameter state array (e.g. Adam's two moments) —
    so spill/restore and mid-trial resume round-trip the *complete*
    training state: training resumed from such a checkpoint is bit-identical
    to training that never stopped.  Every archive also records the state
    of each generator the model's dropout layers draw from (``rng::``), so
    the masks after a resume are the ones training would have drawn.

    With ``scheduler=...`` the learning-rate schedule's dynamic state
    (:meth:`~repro.optim.lr_scheduler.LRScheduler.state_dict`) is captured
    under ``sched::`` keys too, so warmup/decay schedules survive a
    mid-trial resume bit-identically — without it, a resumed run would
    restart the schedule at step 0 and silently diverge.

    Raises:
        CheckpointError: when a dropout layer with ``p > 0`` draws from the
            process-global generator (built without ``rng=``): its state is
            not the model's to capture, so a resume would draw other masks.
    """
    for name, module in model.named_modules():
        if isinstance(module, Dropout) and module.p > 0 and module._rng is None:
            raise CheckpointError(
                f"dropout layer {name!r} draws from the process-global generator, "
                "which a checkpoint cannot capture, so a resumed model would draw "
                "different masks; build it with Dropout(p, rng=generator)"
            )
    path = Path(path)
    state = model.state_dict()
    payload: Dict[str, np.ndarray] = {
        f"{PARAM_PREFIX}{name}": values for name, values in state.items()
    }
    if optimizer is not None:
        names = _optimizer_param_names(model, optimizer)
        payload[f"{OPT_PREFIX}step_count"] = np.asarray(optimizer.step_count)
        payload[f"{OPT_PREFIX}lr"] = np.asarray(optimizer.lr)
        for param in optimizer.parameters:
            per_param = optimizer.state.get(id(param), {})
            for key in sorted(per_param):
                payload[f"{OPT_PREFIX}{names[id(param)]}::{key}"] = per_param[key]
    if scheduler is not None:
        for key, value in scheduler.state_dict().items():
            payload[f"{SCHED_PREFIX}{key}"] = np.asarray(value)
    for index, generator in enumerate(_dropout_generators(model)):
        payload[f"{RNG_PREFIX}{index}"] = np.asarray(json.dumps(generator.bit_generator.state))
    if metadata:
        for key, value in metadata.items():
            payload[f"{META_PREFIX}{key}"] = np.asarray(value)
    return save_array_bundle(path, payload, compressed=compressed)


def load_checkpoint(
    model: Module,
    path: str | Path,
    optimizer: Optional[Optimizer] = None,
    scheduler: Optional[LRScheduler] = None,
) -> Dict[str, np.ndarray]:
    """Restore parameters saved by :func:`save_checkpoint`; returns metadata.

    With ``optimizer=...`` the optimizer's step count, learning rate, and
    per-parameter state arrays are restored as well; the archive must have
    been written with an optimizer (:class:`~repro.exceptions.CheckpointError`
    otherwise).  State arrays are matched to parameters by qualified name,
    so the optimizer must hold the model's parameters.

    With ``scheduler=...`` the learning-rate schedule's ``sched::`` state is
    restored the same way — the archive must have been written with a
    scheduler, and the caller must pass a freshly built schedule of the
    same shape (warmup/total steps are constructor arguments, like model
    architecture).

    Dropout generator states (``rng::``) are restored when the archive has
    them; an archive written before they were recorded loads as before.
    """
    archive = load_array_bundle(path)
    state = {}
    metadata = {}
    opt_entries: Dict[str, np.ndarray] = {}
    sched_entries: Dict[str, np.ndarray] = {}
    rng_entries: Dict[int, np.ndarray] = {}
    for key, values in archive.items():
        if key.startswith(PARAM_PREFIX):
            state[key[len(PARAM_PREFIX):]] = values
        elif key.startswith(META_PREFIX):
            metadata[key[len(META_PREFIX):]] = values
        elif key.startswith(SCHED_PREFIX):
            sched_entries[key[len(SCHED_PREFIX):]] = values
        elif key.startswith(OPT_PREFIX):
            opt_entries[key[len(OPT_PREFIX):]] = values
        elif key.startswith(RNG_PREFIX):
            rng_entries[int(key[len(RNG_PREFIX):])] = values
    if not state:
        raise CheckpointError(f"checkpoint {path} contains no parameters")
    # Validate the whole archive before mutating anything — a caller that
    # catches the CheckpointError must not be left with a torn restore
    # (checkpoint weights next to stale or cleared optimizer moments).
    apply_optimizer = None
    if optimizer is not None:
        if not opt_entries:
            raise CheckpointError(
                f"checkpoint {path} contains no optimizer state; save it with "
                "save_checkpoint(..., optimizer=optimizer)"
            )
        apply_optimizer = _resolve_optimizer_state(model, optimizer, opt_entries)
    if scheduler is not None and not sched_entries:
        raise CheckpointError(
            f"checkpoint {path} contains no scheduler state; save it with "
            "save_checkpoint(..., scheduler=scheduler)"
        )
    generators = _dropout_generators(model) if rng_entries else []
    if len(generators) != len(rng_entries):
        raise CheckpointError(
            f"checkpoint {path} holds {len(rng_entries)} dropout generator "
            f"states but the model's dropout layers draw from {len(generators)}"
        )
    model.load_state_dict(state)
    if apply_optimizer is not None:
        apply_optimizer()
    if scheduler is not None:
        scheduler.load_state_dict(
            {key: value.item() for key, value in sched_entries.items()}
        )
    for index, generator in enumerate(generators):
        generator.bit_generator.state = json.loads(rng_entries[index].item())
    return metadata


def _resolve_optimizer_state(
    model: Module, optimizer: Optimizer, entries: Dict[str, np.ndarray]
):
    """Validate ``opt::`` entries; return a zero-argument applier."""
    names = _optimizer_param_names(model, optimizer)
    by_name = {name: param for param, name in
               ((p, names[id(p)]) for p in optimizer.parameters)}
    if "step_count" not in entries or "lr" not in entries:
        raise CheckpointError(
            "optimizer section is incomplete (missing step_count/lr); the "
            "archive was not written by save_checkpoint(..., optimizer=...)"
        )
    step_count = int(entries["step_count"])
    lr = float(entries["lr"])
    resolved = []
    for key, values in entries.items():
        if key in ("step_count", "lr"):
            continue
        param_name, _, state_key = key.rpartition("::")
        if param_name not in by_name:
            raise CheckpointError(
                f"optimizer state {key!r} names parameter {param_name!r}, "
                "which the optimizer does not hold"
            )
        param = by_name[param_name]
        if state_key not in optimizer.state_keys:
            raise CheckpointError(
                f"optimizer state {key!r}: {type(optimizer).__name__} keeps no "
                f"{state_key!r} state"
            )
        if values.shape != param.data.shape:
            raise CheckpointError(
                f"optimizer state {key!r}: shape {values.shape} does not match "
                f"parameter shape {param.data.shape}"
            )
        resolved.append((param, state_key, values))

    def apply() -> None:
        # In place: the state arrays are views into the optimizer's flat
        # buffers.  A parameter without saved state starts from zero, as a
        # fresh optimizer would.
        optimizer.step_count = step_count
        optimizer.lr = lr
        optimizer.buffers.materialize()
        for group in optimizer.buffers.groups:
            for buffer in group.state.values():
                buffer.fill(0)
        for param, state_key, values in resolved:
            np.copyto(optimizer.state[id(param)][state_key], values)

    return apply
