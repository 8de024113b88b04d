"""Model checkpointing to ``.npz`` archives.

Archives are flat key/value stores of numpy arrays with a namespace prefix
per section: ``param::<name>`` for model parameters, ``opt::<...>`` for
optimizer state (step count and per-parameter moment arrays),
``sched::<key>`` for learning-rate-scheduler state, and ``meta::<key>`` for
caller metadata.  The same serialization (via :func:`save_array_bundle` /
:func:`load_array_bundle`) backs the host shard cache's disk tier in
:mod:`repro.memory` and the serving :class:`~repro.serving.ModelRegistry`,
so a spilled shard, a published model version, and a checkpoint are all
one format.
"""

from __future__ import annotations

from pathlib import Path
from typing import Dict, Optional

import numpy as np

from repro.exceptions import CheckpointError
from repro.nn.module import Module
from repro.optim.lr_scheduler import LRScheduler
from repro.optim.optimizer import Optimizer

#: archive key prefixes (one namespace per section)
PARAM_PREFIX = "param::"
OPT_PREFIX = "opt::"
SCHED_PREFIX = "sched::"
META_PREFIX = "meta::"


#: in-file data alignment of uncompressed archive members.  64-byte-aligned
#: mmap views take the same BLAS code paths as heap arrays, which is what
#: keeps mmap-served models bit-identical to eagerly loaded ones (misaligned
#: operands can select different GEMM kernels with different rounding).
_MMAP_ALIGN = 64


def save_array_bundle(
    path: str | Path, arrays: Dict[str, np.ndarray], compressed: bool = False
) -> Path:
    """Write a flat ``name -> array`` mapping to an ``.npz`` archive.

    This is the serialization primitive shared by :func:`save_checkpoint`
    and the disk tier of :class:`repro.memory.HostShardCache`.  Returns the
    actual path written (numpy appends ``.npz`` when missing).

    Uncompressed archives are written with every member's array data
    64-byte **aligned within the file** (zip extra-field padding), so
    :func:`load_array_bundle(..., mmap=True)` yields aligned views — a
    prerequisite for bit-exact zero-copy serving.  The result is a normal
    ``.npz``: ``np.load`` and ``zipfile`` read it unchanged.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    written = path if path.suffix == ".npz" else path.with_suffix(path.suffix + ".npz")
    if compressed:
        np.savez_compressed(
            path, **{name: np.asarray(values) for name, values in arrays.items()}
        )
        return written
    _write_aligned_npz(written, arrays)
    return written


def _write_aligned_npz(path: Path, arrays: Dict[str, np.ndarray]) -> None:
    """Write an uncompressed ``.npz`` with 64-byte-aligned member data.

    ``np.savez`` places members at arbitrary offsets; here each member's
    zip local header gets a padding extra field (well-formed TLV, id
    ``0x4141``) sized so the ``.npy`` stream starts on a
    :data:`_MMAP_ALIGN` boundary.  The npy format itself pads its header to
    a 64-multiple, so stream alignment == array-data alignment.
    """
    import io
    import struct
    import zipfile

    from numpy.lib import format as npy_format

    with zipfile.ZipFile(path, "w", zipfile.ZIP_STORED) as archive:
        for name, values in arrays.items():
            stream = io.BytesIO()
            npy_format.write_array(
                stream, np.asarray(values), allow_pickle=False
            )
            info = zipfile.ZipInfo(name + ".npy", date_time=(1980, 1, 1, 0, 0, 0))
            info.compress_type = zipfile.ZIP_STORED
            offset = archive.fp.tell()
            header = 30 + len(info.filename.encode("utf-8"))
            pad = -(offset + header) % _MMAP_ALIGN
            if pad:
                if pad < 4:  # a TLV extra block needs at least its 4-byte head
                    pad += _MMAP_ALIGN
                info.extra = struct.pack("<HH", 0x4141, pad - 4) + b"\x00" * (pad - 4)
            archive.writestr(info, stream.getvalue())


def load_array_bundle(path: str | Path, mmap: bool = False) -> Dict[str, np.ndarray]:
    """Read back a ``name -> array`` mapping written by :func:`save_array_bundle`.

    With ``mmap=True`` the members of an *uncompressed* archive are returned
    as read-only ``np.memmap`` views instead of heap copies: ``np.savez``
    stores members ``ZIP_STORED`` (byte-for-byte ``.npy`` files at fixed
    offsets), so each array can be mapped straight out of the archive.  The
    page cache then shares one physical copy of the bytes among every
    process that maps the same file — the zero-copy transport the process
    serving runtime is built on.  Compressed archives quietly fall back to
    an eager load (their bytes are not mappable).
    """
    path = Path(path)
    if not path.exists() and path.with_suffix(path.suffix + ".npz").exists():
        path = path.with_suffix(path.suffix + ".npz")
    if not path.exists():
        raise CheckpointError(f"archive {path} does not exist")
    if mmap:
        mapped = _mmap_npz(path)
        if mapped is not None:
            return mapped
    with np.load(path, allow_pickle=False) as archive:
        return {key: archive[key] for key in archive.files}


def _mmap_npz(path: Path) -> Optional[Dict[str, np.ndarray]]:
    """Map every member of an uncompressed ``.npz`` as a read-only view.

    Returns ``None`` when the archive cannot be mapped (compressed members,
    object dtypes, or an unexpected layout) — callers fall back to the
    eager loader.  Layout: each ``ZIP_STORED`` member is a verbatim ``.npy``
    stream, so the array bytes live at ``local header + npy header``; the
    zip local file header is 30 bytes plus name/extra fields.
    """
    import zipfile

    from numpy.lib import format as npy_format

    arrays: Dict[str, np.ndarray] = {}
    try:
        with zipfile.ZipFile(path) as archive:
            infos = archive.infolist()
            if any(info.compress_type != zipfile.ZIP_STORED for info in infos):
                return None
            with open(path, "rb") as stream:
                for info in infos:
                    stream.seek(info.header_offset)
                    header = stream.read(30)
                    if len(header) < 30 or header[:4] != b"PK\x03\x04":
                        return None
                    name_len = int.from_bytes(header[26:28], "little")
                    extra_len = int.from_bytes(header[28:30], "little")
                    stream.seek(info.header_offset + 30 + name_len + extra_len)
                    version = npy_format.read_magic(stream)
                    if version == (1, 0):
                        shape, fortran, dtype = npy_format.read_array_header_1_0(stream)
                    elif version == (2, 0):
                        shape, fortran, dtype = npy_format.read_array_header_2_0(stream)
                    else:
                        return None
                    if dtype.hasobject:
                        return None
                    key = info.filename
                    if key.endswith(".npy"):
                        key = key[: -len(".npy")]
                    if shape == ():
                        # 0-d arrays are cheaper copied than mapped.
                        offset = stream.tell()
                        arrays[key] = np.frombuffer(
                            stream.read(dtype.itemsize), dtype=dtype
                        ).reshape(())
                        continue
                    arrays[key] = np.memmap(
                        path,
                        dtype=dtype,
                        mode="r",
                        offset=stream.tell(),
                        shape=shape,
                        order="F" if fortran else "C",
                    )
    except (OSError, ValueError, zipfile.BadZipFile):
        return None
    return arrays


def map_checkpoint_parameters(
    model: Module, path: str | Path
) -> Dict[str, np.ndarray]:
    """Rebind ``model``'s parameters to read-only views of a checkpoint.

    Unlike :func:`load_checkpoint` — which *copies* every array into the
    model's existing buffers — this points each
    :class:`~repro.nn.parameter.Parameter` at a ``np.memmap`` view of the
    archive's bytes.  N processes mapping the same published version share
    one physical copy through the page cache: the zero-copy weight
    transport behind process-based serving replicas.

    The model is **inference-only** afterwards: its parameters are
    read-only (in-place writes raise) and must not be trained or published.
    The returned dict is the archive's ``meta::`` metadata.

    Raises:
        CheckpointError: when the archive's parameter names/shapes do not
            match the model, or it contains no parameters.
    """
    bundle = load_array_bundle(path, mmap=True)
    state = {
        key[len(PARAM_PREFIX):]: values
        for key, values in bundle.items()
        if key.startswith(PARAM_PREFIX)
    }
    metadata = {
        key[len(META_PREFIX):]: values
        for key, values in bundle.items()
        if key.startswith(META_PREFIX)
    }
    if not state:
        raise CheckpointError(f"checkpoint {path} contains no parameters")
    params = dict(model.named_parameters())
    missing = sorted(set(params) - set(state))
    unexpected = sorted(set(state) - set(params))
    if missing or unexpected:
        raise CheckpointError(
            f"checkpoint {path} does not match the model: "
            f"missing parameters {missing}, unexpected entries {unexpected}"
        )
    for name, values in state.items():
        param = params[name]
        if tuple(values.shape) != tuple(param.data.shape):
            raise CheckpointError(
                f"parameter {name!r}: checkpoint shape {tuple(values.shape)} "
                f"does not match model shape {tuple(param.data.shape)}"
            )
        if values.dtype != param.data.dtype:
            # A dtype mismatch cannot be served zero-copy; fall back to a
            # cast copy for this parameter only.
            values = values.astype(param.data.dtype)
        elif values.ctypes.data % _MMAP_ALIGN != 0:
            # A misaligned view (archive written by plain np.savez) can
            # steer BLAS onto a different kernel with different rounding;
            # copy rather than break bit-exactness.  Aligned-archive views
            # (our own writer) stay zero-copy.
            values = np.ascontiguousarray(values)
        param.data = values
    return metadata


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
    to training that never stopped.

    With ``scheduler=...`` the learning-rate schedule's dynamic state
    (:meth:`~repro.optim.lr_scheduler.LRScheduler.state_dict`) is captured
    under ``sched::`` keys too, so warmup/decay schedules survive a
    mid-trial resume bit-identically — without it, a resumed run would
    restart the schedule at step 0 and silently diverge.
    """
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
    """
    archive = load_array_bundle(path)
    state = {}
    metadata = {}
    opt_entries: Dict[str, np.ndarray] = {}
    sched_entries: Dict[str, np.ndarray] = {}
    for key, values in archive.items():
        if key.startswith(PARAM_PREFIX):
            state[key[len(PARAM_PREFIX):]] = values
        elif key.startswith(META_PREFIX):
            metadata[key[len(META_PREFIX):]] = values
        elif key.startswith(SCHED_PREFIX):
            sched_entries[key[len(SCHED_PREFIX):]] = values
        elif key.startswith(OPT_PREFIX):
            opt_entries[key[len(OPT_PREFIX):]] = values
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
    model.load_state_dict(state)
    if apply_optimizer is not None:
        apply_optimizer()
    if scheduler is not None:
        scheduler.load_state_dict(
            {key: value.item() for key, value in sched_entries.items()}
        )
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
        if values.shape != param.data.shape:
            raise CheckpointError(
                f"optimizer state {key!r}: shape {values.shape} does not match "
                f"parameter shape {param.data.shape}"
            )
        resolved.append((param, state_key, values))

    def apply() -> None:
        optimizer.step_count = step_count
        optimizer.lr = lr
        optimizer.state.clear()
        for param, state_key, values in resolved:
            optimizer.state.setdefault(id(param), {})[state_key] = values.copy()

    return apply
