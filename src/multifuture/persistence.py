"""Checkpoint save/load with deterministic round-tripping.

A checkpoint directory holds two files: ``manifest.json`` describing the
model configuration plus every parameter's name, shape, and byte offset,
and ``params.f32``, the raw little-endian float32 concatenation of the
parameters in manifest order.  The blob carries no header or timestamps,
so identical models serialize to identical bytes.
"""

from __future__ import annotations

import json
import os
import tempfile
from dataclasses import asdict
from datetime import datetime, timezone

import numpy as np

from .model import ExpertClassifier, Forecaster, ModelConfig

__all__ = [
    "CheckpointError",
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


def _named_arrays(model) -> list[tuple[str, np.ndarray]]:
    out = []
    for params in model.parameters():
        for name, tensor in params.named_tensors():
            out.append((name, tensor.data))
    return out


def _write_checkpoint(directory, kind: str, config: ModelConfig,
                      entries: list[tuple[str, np.ndarray]],
                      training_seed: int | None) -> None:
    os.makedirs(directory, exist_ok=True)
    blob = bytearray()
    manifest_params = []
    for name, array in entries:
        data = np.ascontiguousarray(array, dtype="<f4").tobytes()
        manifest_params.append({
            "name": name,
            "shape": list(array.shape),
            "offset_bytes": len(blob),
        })
        blob.extend(data)
    manifest = {
        "format_version": FORMAT_VERSION,
        "kind": kind,
        "variant": config.variant,
        "config": asdict(config),
        "training_seed": training_seed,
        "created_utc": datetime.now(timezone.utc).isoformat(),
        "parameters": manifest_params,
    }
    _write_atomic(os.path.join(directory, MANIFEST_NAME),
                  (json.dumps(manifest, indent=2) + "\n").encode())
    _write_atomic(os.path.join(directory, BLOB_NAME), bytes(blob))


def save(model, directory, training_seed: int | None = None) -> None:
    """Write a model checkpoint (manifest + parameter blob)."""
    kind = ("expert_classifier" if isinstance(model, ExpertClassifier)
            else "forecaster")
    _write_checkpoint(directory, kind, model.config, _named_arrays(model),
                      training_seed)


def save_shape_banks(model: Forecaster, directory) -> None:
    """Write only the shape-bank templates (user-suppliable banks)."""
    entries = [(f"{bank.name}.weight", bank.templates.data)
               for bank in model.shape_banks()]
    if not entries:
        raise CheckpointError("model has no shape banks to save")
    _write_checkpoint(directory, "shape_banks", model.config, entries, None)


def _read_manifest(directory) -> dict:
    path = os.path.join(directory, MANIFEST_NAME)
    try:
        with open(path) as fh:
            manifest = json.load(fh)
    except FileNotFoundError:
        raise CheckpointError(f"no manifest at {path}") from None
    except json.JSONDecodeError as exc:
        raise CheckpointError(f"corrupt manifest at {path}: {exc}") from None
    version = manifest.get("format_version")
    if version != FORMAT_VERSION:
        raise CheckpointError(
            f"unsupported checkpoint format_version {version!r} "
            f"(expected {FORMAT_VERSION})")
    if manifest.get("kind") not in _KINDS:
        raise CheckpointError(f"unknown checkpoint kind {manifest.get('kind')!r}")
    return manifest


def _read_entries(directory, manifest) -> dict[str, np.ndarray]:
    """Validate offsets/shapes against the blob and slice it up."""
    path = os.path.join(directory, BLOB_NAME)
    try:
        with open(path, "rb") as fh:
            blob = fh.read()
    except FileNotFoundError:
        raise CheckpointError(f"no parameter blob at {path}") from None
    entries = manifest.get("parameters")
    if not isinstance(entries, list):
        raise CheckpointError("manifest field 'parameters' is missing or not a list")
    expected_offset = 0
    arrays: dict[str, np.ndarray] = {}
    for k, entry in enumerate(entries):
        if not isinstance(entry, dict):
            raise CheckpointError(f"manifest parameters[{k}] is not an object")
        for key, kind in (("name", str), ("shape", list), ("offset_bytes", int)):
            if not isinstance(entry.get(key), kind):
                raise CheckpointError(
                    f"manifest parameters[{k}] field {key!r} is missing or "
                    f"not a {kind.__name__}")
        name, shape = entry["name"], tuple(entry["shape"])
        if any(not isinstance(s, int) or s < 1 for s in shape):
            raise CheckpointError(f"parameter {name!r} has invalid shape {shape}")
        if entry["offset_bytes"] != expected_offset:
            raise CheckpointError(
                f"parameter {name!r} offset {entry['offset_bytes']} is not "
                f"contiguous (expected {expected_offset})")
        count = int(np.prod(shape))
        nbytes = 4 * count
        if expected_offset + nbytes > len(blob):
            raise CheckpointError(
                f"blob truncated: expected at least {expected_offset + nbytes} "
                f"bytes, found {len(blob)}")
        arrays[name] = np.frombuffer(
            blob, dtype="<f4", count=count, offset=expected_offset
        ).reshape(shape)
        expected_offset += nbytes
    if expected_offset != len(blob):
        raise CheckpointError(
            f"blob has trailing bytes: expected {expected_offset}, "
            f"found {len(blob)}")
    return arrays


def _apply_entries(model, arrays: dict[str, np.ndarray]) -> None:
    expected = dict(_named_entries_for(model))
    if set(expected) != set(arrays):
        missing = sorted(set(expected) - set(arrays))
        extra = sorted(set(arrays) - set(expected))
        raise CheckpointError(
            f"parameter names do not match the architecture "
            f"(missing: {missing}, unexpected: {extra})")
    for name, tensor in expected.items():
        stored = arrays[name]
        if stored.shape != tensor.data.shape:
            raise CheckpointError(
                f"parameter {name!r} has shape {stored.shape}, expected "
                f"{tensor.data.shape}")
        tensor.data = stored.astype(tensor.data.dtype)


def _named_entries_for(model):
    for params in model.parameters():
        yield from params.named_tensors()


def _model_config(manifest) -> ModelConfig:
    """Build the ModelConfig a manifest records, naming any bad field."""
    fields = manifest.get("config")
    if not isinstance(fields, dict):
        raise CheckpointError("manifest field 'config' is missing or not an object")
    defaults = asdict(ModelConfig())
    for key, value in fields.items():
        if key not in defaults:
            raise CheckpointError(f"manifest config has unknown field {key!r}")
        if type(value) is not type(defaults[key]):
            raise CheckpointError(
                f"manifest config field {key!r} must be "
                f"{type(defaults[key]).__name__}, got {value!r}")
    try:
        return ModelConfig(**fields)
    except ValueError as exc:
        raise CheckpointError(f"manifest config is invalid: {exc}") from None


def load(directory):
    """Rebuild a model from a checkpoint; predictions are bit-identical."""
    manifest = _read_manifest(directory)
    if manifest["kind"] == "shape_banks":
        raise CheckpointError(
            "directory holds a shape-bank file; use load_shape_banks")
    config = _model_config(manifest)
    arrays = _read_entries(directory, manifest)
    if manifest["kind"] == "expert_classifier":
        model = ExpertClassifier(config, seed=0)
    else:
        model = Forecaster(config, seed=0)
    _apply_entries(model, arrays)
    return model


def load_shape_banks(model: Forecaster, directory) -> Forecaster:
    """Replace the model's bank templates from a shape-bank checkpoint.

    Only the banks change; every other parameter is left untouched.
    """
    manifest = _read_manifest(directory)
    if manifest["kind"] != "shape_banks":
        raise CheckpointError(
            f"expected a shape_banks checkpoint, found {manifest['kind']!r}")
    arrays = _read_entries(directory, manifest)
    banks = {f"{bank.name}.weight": bank for bank in model.shape_banks()}
    for name, stored in arrays.items():
        bank = banks.get(name)
        if bank is None:
            raise CheckpointError(f"model has no shape bank named {name!r}")
        if stored.shape != bank.templates.data.shape:
            raise CheckpointError(
                f"bank {name!r} has shape {stored.shape}, expected "
                f"{bank.templates.data.shape}")
        bank.templates.data = stored.astype(bank.templates.data.dtype)
    return model
