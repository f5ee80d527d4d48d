"""Checkpoint save/load with deterministic round-tripping.

A checkpoint directory holds two files: ``manifest.json`` describing the
model configuration plus every parameter's name, shape, and byte offset,
and ``params.f32``, the raw little-endian float32 concatenation of the
parameters in manifest order.  The blob carries no header or timestamps,
so identical models serialize to identical bytes.

Every JSON file the program reads goes through :func:`_read_json` and
:func:`from_payload`, which type-checks it against a dataclass schema.
"""

from __future__ import annotations

import functools
import json
import math
import os
import tempfile
import types
import typing
from dataclasses import MISSING, dataclass, fields, is_dataclass
from datetime import datetime, timezone

import numpy as np

from .model import ExpertClassifier, Forecaster, ModelConfig
from .model import _as_number, _check_numbers, _hints
from .nn.layers import LayerParams, Take
from .nn.tensor import Tensor

__all__ = [
    "CheckpointError",
    "from_payload",
    "save",
    "load",
    "save_shape_banks",
    "load_shape_banks",
    "MANIFEST_NAME",
    "BLOB_NAME",
    "FORMAT_VERSION",
]

FORMAT_VERSION = 1
MANIFEST_NAME = "manifest.json"
BLOB_NAME = "params.f32"

_KINDS = ("forecaster", "expert_classifier", "shape_banks")


class CheckpointError(ValueError):
    """A checkpoint is missing, malformed, or inconsistent."""


_TYPE_NAMES = {int: "an integer", float: "a finite number", str: "a string"}


def from_payload(cls, payload, where: str, error: type[Exception]):
    """Build dataclass ``cls`` from decoded JSON, checking every field's type.

    Nested dataclasses, ``tuple[X, ...]`` fields (JSON lists) and ``X | None``
    fields are converted recursively, and numbers by the constructors' rule,
    :func:`~multifuture.model._as_number`.  Unknown keys, missing or wrongly
    typed fields and the dataclass's own ``ValueError`` raise ``error`` naming
    the field's path (``where`` is the path of ``payload``).
    """
    if not isinstance(payload, dict):
        raise error(f"{where} must be an object, got {payload!r}")
    schema = _schema(cls)
    unknown = ", ".join(map(repr, sorted(payload.keys() - schema.keys())))
    if unknown:
        raise error(f"{where} has unknown field {unknown}")
    values = {}
    for name, (tp, required) in schema.items():
        if name in payload:
            values[name] = _convert(tp, payload[name], where, name, error)
        elif required:
            raise error(f"{where} field {name!r} is missing")
    try:
        return cls(**values)
    except ValueError as exc:
        raise error(f"{where}: {exc}") from None


@functools.cache  # a manifest reads one schema per parameter entry
def _schema(cls) -> dict[str, tuple[object, bool]]:
    hints = _hints(cls)
    return {f.name: (hints[f.name], f.default is f.default_factory is MISSING)
            for f in fields(cls)}


def _convert(tp, value, where: str, name: str, error: type[Exception]):
    if tp in (int, float, str):  # the constructors' rule
        try:
            return _as_number(tp, name, value)
        except ValueError:
            pass
    elif is_dataclass(tp):
        return from_payload(tp, value, f"{where}.{name}", error)
    elif isinstance(tp, types.UnionType):  # X | None
        item = typing.get_args(tp)[0]
        return None if value is None else _convert(item, value, where, name, error)
    elif isinstance(value, list):  # tuple[X, ...]; the dataclass checks a length
        item = typing.get_args(tp)[0]
        return tuple(_convert(item, v, where, f"{name}[{i}]", error)
                     for i, v in enumerate(value))
    expected = _TYPE_NAMES.get(tp, "a list")
    raise error(f"{where} field {name!r} must be {expected}, got {value!r}")


def _read_json(path: str, error: type[Exception], missing: str):
    """The JSON value in file ``path``, or ``error(missing)`` if there is no
    such file.  A file it cannot read, bytes that are not UTF-8, text that is
    not JSON, nesting past the recursion limit and a key repeated in one
    object raise ``error`` naming ``path``."""
    try:
        with open(path, "rb") as fh:
            return json.loads(fh.read().decode("utf-8"), object_pairs_hook=_unique_keys)
    except FileNotFoundError:
        raise error(missing) from None
    except OSError as exc:  # a directory, or no permission to read
        raise error(f"cannot read {path}: {exc.strerror}") from None
    except (ValueError, RecursionError) as exc:
        raise error(f"{path} is not valid JSON: {exc}") from None


def _unique_keys(pairs: list[tuple[str, object]]) -> dict:
    record = dict(pairs)
    if len(record) < len(pairs):
        keys = [key for key, _ in pairs]
        raise ValueError(f"key {next(k for k in record if keys.count(k) > 1)!r} is repeated")
    return record


def _write_json(path: str, record) -> None:
    # default=vars writes a dataclass field by field: asdict's bytes, no deep copy
    _write_atomic(path, (json.dumps(record, default=vars, indent=2) + "\n").encode())


def _write_atomic(path: str, payload: bytes) -> None:
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-")
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(payload)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


@dataclass(frozen=True)
class _Entry:  # one manifest parameter: a float32 array at offset_bytes in the blob
    name: str
    shape: tuple[int, ...]
    offset_bytes: int

    def __post_init__(self):
        if any(s < 1 for s in self.shape):
            raise ValueError(f"parameter {self.name!r} has invalid shape {self.shape}")


@dataclass(frozen=True, kw_only=True)
class _Manifest:  # field order is manifest.json's key order
    format_version: int
    kind: str
    variant: str = ""
    config: ModelConfig
    training_seed: int | None = None
    created_utc: str = ""
    parameters: tuple[_Entry, ...]

    def __post_init__(self):
        _check_numbers(self)
        if self.kind not in _KINDS:
            raise ValueError(f"unknown checkpoint kind {self.kind!r}")
        if self.variant and self.variant != self.config.variant:
            raise ValueError(f"variant {self.variant!r} contradicts "
                             f"config.variant {self.config.variant!r}")


def _blob_bytes(array: np.ndarray) -> bytes:
    """``array``'s little-endian float32 bytes in C order.

    A conv weight is a transposed view of its stored ``(kernel, c_in,
    c_out)`` slice.  One ``ascontiguousarray`` of it would loop innermost
    over the short kernel axis; copying one kernel offset at a time takes
    about half as long.
    """
    if array.ndim != 3:
        return np.ascontiguousarray(array, dtype="<f4").tobytes()
    out = np.empty(array.shape, dtype="<f4")
    for k in range(array.shape[2]):
        out[:, :, k] = array[:, :, k]
    return out.tobytes()


def _write_checkpoint(directory, kind: str, config: ModelConfig,
                      tensors: list[tuple[str, Tensor]],
                      training_seed: int | None) -> None:
    chunks, entries, offset = [], [], 0
    for name, tensor in tensors:
        if tensor.data.dtype != np.float32:
            raise CheckpointError(
                f"parameter {name!r} is {tensor.data.dtype}, not float32")
        entries.append(_Entry(name, tensor.data.shape, offset))
        chunks.append(_blob_bytes(tensor.data))
        offset += len(chunks[-1])
    manifest = _Manifest(
        format_version=FORMAT_VERSION, kind=kind, variant=config.variant,
        config=config, training_seed=training_seed,
        created_utc=datetime.now(timezone.utc).isoformat(),
        parameters=tuple(entries))
    os.makedirs(directory, exist_ok=True)
    _write_json(os.path.join(directory, MANIFEST_NAME), manifest)
    _write_atomic(os.path.join(directory, BLOB_NAME), b"".join(chunks))


def save(model, directory, training_seed: int | None = None) -> None:
    """Write a float32 model checkpoint (manifest + parameter blob)."""
    kind = ("expert_classifier" if isinstance(model, ExpertClassifier)
            else "forecaster")
    _write_checkpoint(directory, kind, model.config, model.named_tensors(),
                      training_seed)


def save_shape_banks(model: Forecaster, directory) -> None:
    """Write only the shape-bank templates (user-suppliable banks)."""
    entries = model.shape_banks()
    if not entries:
        raise CheckpointError("model has no shape banks to save")
    _write_checkpoint(directory, "shape_banks", model.config, entries, None)


def _read_manifest(directory) -> _Manifest:
    path = os.path.join(directory, MANIFEST_NAME)
    manifest = _read_json(path, CheckpointError, f"no manifest at {path}")
    version = manifest.get("format_version") if isinstance(manifest, dict) else None
    if version != FORMAT_VERSION:
        raise CheckpointError(
            f"unsupported checkpoint format_version {version!r} "
            f"(expected {FORMAT_VERSION})")
    return from_payload(_Manifest, manifest, "manifest", CheckpointError)


def _read_entries(directory, entries: tuple[_Entry, ...]) -> dict[str, np.ndarray]:
    """Validate offsets, shapes and values against the blob and slice it up."""
    path = os.path.join(directory, BLOB_NAME)
    try:
        with open(path, "rb") as fh:
            blob = fh.read()
    except FileNotFoundError:
        raise CheckpointError(f"no parameter blob at {path}") from None
    expected_offset = 0
    arrays: dict[str, np.ndarray] = {}
    for entry in entries:
        if entry.name in arrays:
            raise CheckpointError(
                f"parameter {entry.name!r} is listed twice in the manifest")
        if entry.offset_bytes != expected_offset:
            raise CheckpointError(
                f"parameter {entry.name!r} offset {entry.offset_bytes} is not "
                f"contiguous (expected {expected_offset})")
        count = math.prod(entry.shape)
        nbytes = 4 * count
        if expected_offset + nbytes > len(blob):
            raise CheckpointError(
                f"blob truncated: expected at least {expected_offset + nbytes} "
                f"bytes, found {len(blob)}")
        array = np.frombuffer(
            blob, dtype="<f4", count=count, offset=expected_offset
        ).reshape(entry.shape)
        if not np.isfinite(array).all():
            raise CheckpointError(f"parameter {entry.name!r} holds non-finite values")
        arrays[entry.name] = array
        expected_offset += nbytes
    if expected_offset != len(blob):
        raise CheckpointError(
            f"blob has trailing bytes: expected {expected_offset}, "
            f"found {len(blob)}")
    return arrays


def _reader(arrays: dict[str, np.ndarray]) -> Take:
    """A ``take`` that pops each parameter the model asks for from ``arrays``,
    checking its name and shape first, so a config the blob does not hold
    fails before its architecture is built.  It hands over the blob's
    read-only arrays; the model's parameter table copies each one into its
    stored tensors.
    """
    def tensor(name: str, shape: tuple[int, ...]) -> Tensor:
        stored = arrays.pop(name, None)
        if stored is None:
            raise CheckpointError(f"checkpoint has no parameter {name!r}")
        if stored.shape != shape:
            raise CheckpointError(
                f"parameter {name!r} has shape {stored.shape}, expected {shape}")
        return Tensor(stored)

    def take(name: str, shape: tuple[int, ...], bias: bool = True) -> LayerParams:
        return LayerParams(name, tensor(f"{name}.weight", shape),
                           tensor(f"{name}.bias", shape[:1]) if bias else None)
    return take


def load(directory):
    """Build the checkpoint's model from its blob, drawing nothing at random;
    predictions are bit-identical."""
    manifest = _read_manifest(directory)
    if manifest.kind == "shape_banks":
        raise CheckpointError(
            "directory holds a shape-bank file; use load_shape_banks")
    arrays = _read_entries(directory, manifest.parameters)
    cls = ExpertClassifier if manifest.kind == "expert_classifier" else Forecaster
    model = cls(manifest.config, take=_reader(arrays))
    if arrays:  # what the architecture never asked for
        raise CheckpointError(f"parameter {next(iter(arrays))!r} is not part of "
                              f"the {manifest.config.variant} architecture")
    return model


def load_shape_banks(model: Forecaster, directory) -> Forecaster:
    """Replace the model's bank templates from a shape-bank checkpoint.

    Only the banks change, written in place into the decoders' stacked
    banks; every other parameter is left untouched.
    """
    manifest = _read_manifest(directory)
    if manifest.kind != "shape_banks":
        raise CheckpointError(
            f"expected a shape_banks checkpoint, found {manifest.kind!r}")
    arrays = _read_entries(directory, manifest.parameters)
    banks = dict(model.shape_banks())
    unknown = sorted(arrays.keys() - banks.keys())
    if unknown:
        raise CheckpointError(f"model has no shape bank named {unknown[0]!r}")
    # Every shape is checked before any bank changes, so a failed load
    # leaves the model as it was.
    for name, stored in arrays.items():
        if stored.shape != banks[name].data.shape:
            raise CheckpointError(
                f"parameter {name!r} has shape {stored.shape}, expected "
                f"{banks[name].data.shape}")
    for name, stored in arrays.items():
        banks[name].data[...] = stored
    return model
