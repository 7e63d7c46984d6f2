"""Encoder checkpointing: frozen parameters in a single .npz container.

Layout: every weight array is stored as little-endian float64 under a
dotted path mirroring the params dataclass ("forward.w", "blocks.0.w_q"),
plus a "__meta__" entry holding a JSON document (kind, dims, scalar
hyperparameters, format version). Reload rebuilds the exact dataclass from
the stored bytes, so a round trip is bit-identical and never re-runs the
random draw.
"""

from __future__ import annotations

import dataclasses
import json
import typing

import numpy as np

from .encoders import KINDS, _frozen

__all__ = ["CheckpointError", "save_encoder", "load_encoder", "FORMAT_NAME", "FORMAT_VERSION"]

FORMAT_NAME = "randenc-encoder"
FORMAT_VERSION = 1

_META_KEY = "__meta__"


class CheckpointError(ValueError):
    """Unreadable, mismatched, or incomplete checkpoint file."""


def _collect(obj, prefix: str, scalars: dict, arrays: dict) -> None:
    for field in dataclasses.fields(obj):
        value = getattr(obj, field.name)
        key = prefix + field.name
        if isinstance(value, np.ndarray):
            arrays[key] = np.ascontiguousarray(value, dtype="<f8")
        elif dataclasses.is_dataclass(value):
            _collect(value, key + ".", scalars, arrays)
        elif isinstance(value, tuple):
            for i, item in enumerate(value):
                _collect(item, f"{key}.{i}.", scalars, arrays)
        elif isinstance(value, (bool, int, float, str)):
            scalars[key] = value
        else:
            raise CheckpointError(f"cannot serialize field {key!r} of type {type(value)!r}")


def save_encoder(path: str, params) -> None:
    """Write one encoder's frozen parameters to an .npz checkpoint."""
    kind = params.kind
    if kind not in KINDS:
        raise CheckpointError(f"unknown encoder kind {kind!r}")
    scalars: dict = {}
    arrays: dict = {}
    _collect(params, "", scalars, arrays)
    meta = {
        "format": FORMAT_NAME,
        "version": FORMAT_VERSION,
        "kind": kind,
        "fields": scalars,
    }
    arrays[_META_KEY] = np.array(json.dumps(meta, sort_keys=True))
    with open(path, "wb") as fh:
        np.savez(fh, **arrays)


def _rebuild(cls, prefix: str, scalars: dict, arrays: dict):
    hints = typing.get_type_hints(cls)
    kwargs = {}
    for field in dataclasses.fields(cls):
        key = prefix + field.name
        hint = hints[field.name]
        if hint is np.ndarray:
            if key not in arrays:
                raise CheckpointError(f"checkpoint is missing array {key!r}")
            kwargs[field.name] = _frozen(arrays[key])
        elif dataclasses.is_dataclass(hint):
            kwargs[field.name] = _rebuild(hint, key + ".", scalars, arrays)
        elif typing.get_origin(hint) is tuple:
            item_cls = typing.get_args(hint)[0]
            items = []
            while f"{key}.{len(items)}." + dataclasses.fields(item_cls)[0].name in arrays:
                items.append(_rebuild(item_cls, f"{key}.{len(items)}.", scalars, arrays))
            kwargs[field.name] = tuple(items)
        else:
            if key not in scalars:
                raise CheckpointError(f"checkpoint is missing field {key!r}")
            kwargs[field.name] = scalars[key]
    return cls(**kwargs)


def load_encoder(path: str):
    """Read a checkpoint back into its params dataclass, bit-exactly."""
    try:
        with np.load(path, allow_pickle=False) as data:
            if _META_KEY not in data:
                raise CheckpointError(f"{path}: not a randenc checkpoint (no metadata entry)")
            meta = json.loads(str(data[_META_KEY]))
            arrays = {k: data[k] for k in data.files if k != _META_KEY}
    except (OSError, ValueError) as exc:
        if isinstance(exc, CheckpointError):
            raise
        raise CheckpointError(f"{path}: cannot read checkpoint ({exc})") from None
    if meta.get("format") != FORMAT_NAME:
        raise CheckpointError(f"{path}: unexpected container format {meta.get('format')!r}")
    if meta.get("version") != FORMAT_VERSION:
        raise CheckpointError(f"{path}: unsupported checkpoint version {meta.get('version')!r}")
    kind = meta.get("kind")
    if kind not in KINDS:
        raise CheckpointError(f"{path}: unknown encoder kind {kind!r}")
    return _rebuild(KINDS[kind].params, "", meta["fields"], arrays)
