"""The one plan format behind :class:`FaultPlan` and :class:`ChaosPlan`.

A plan is a frozen dataclass whose fields are tuples of event
dataclasses (or one optional event), a ``seed`` and a cosmetic ``name``.
:class:`PlanCodec` derives everything about its serialized form from
those field declarations: the JSON layout, the ``format_version`` gate,
the dict/JSON/file round trip, and :meth:`~PlanCodec.plan_hash`, which
pins campaign journals and trial-cache keys. Adding a field to a plan or
an event changes the format in exactly one place: the dataclass.

The decoder is also the one check on plans arriving from outside the
program (a ``repro faults`` file, a ``repro serve`` submission): an
unknown key, a missing required key, a wrong type (a bool is not a
number, ``1.5`` is not a node) or a non-finite number raises
``ValueError`` naming the field, e.g. ``fault plan.node_crashes[0].at``.
A key whose field has a default may be left out.
"""

from __future__ import annotations

import dataclasses
import functools
import hashlib
import json
import math
import os
import sys
import types
import typing
from typing import Any, ClassVar, Iterator, TypeVar

__all__ = ["PlanCodec", "require_finite"]

P = TypeVar("P", bound="PlanCodec")

_EXPECTED = {
    bool: "a boolean",
    int: "an integer",
    float: "a finite number",
    str: "a string",
}


@functools.cache
def _field_types(cls: type) -> dict[str, Any]:
    """Field name -> resolved type, in declaration order."""
    hints = typing.get_type_hints(cls)
    return {f.name: hints[f.name] for f in dataclasses.fields(cls)}


def require_finite(event: Any) -> None:
    """Raise ``ValueError`` naming the first NaN or infinite field of
    ``event``. Event ``validate()``s call it before their range checks,
    which NaN passes because every comparison with it is false."""
    for name in _field_types(type(event)):
        value = getattr(event, name)
        if isinstance(value, float) and not math.isfinite(value):
            raise ValueError(
                f"{type(event).__name__}.{name} must be a finite number, got {value!r}"
            )


def _optional(tp: Any) -> Any:
    """``X`` for a declared ``X | None``, else ``None``."""
    if typing.get_origin(tp) in (typing.Union, types.UnionType):
        return next(arg for arg in typing.get_args(tp) if arg is not type(None))
    return None


def _encode(tp: Any, value: Any) -> Any:
    if value is None:
        return None
    tp = _optional(tp) or tp
    if typing.get_origin(tp) is tuple:
        item = typing.get_args(tp)[0]
        return [_encode(item, v) for v in value]
    if dataclasses.is_dataclass(tp):
        return {
            name: _encode(field_tp, getattr(value, name))
            for name, field_tp in _field_types(tp).items()
        }
    return tp(value)  # float(2) -> 2.0, so hand-built plans hash alike


def _decode(tp: Any, value: Any, where: str) -> Any:
    inner = _optional(tp)
    if inner is not None:
        return None if value is None else _decode(inner, value, where)
    if typing.get_origin(tp) is tuple:
        if not isinstance(value, list):
            raise ValueError(f"{where}: expected a list, got {value!r}")
        item = typing.get_args(tp)[0]
        return tuple(_decode(item, v, f"{where}[{i}]") for i, v in enumerate(value))
    if dataclasses.is_dataclass(tp):
        return tp(**_decode_fields(tp, value, where))
    if tp is float:
        # the bound is false for NaN, +-inf and ints beyond float range
        ok = type(value) in (int, float) and abs(value) <= sys.float_info.max
    else:
        ok = type(value) is tp  # so a bool is not an int
    if not ok:
        raise ValueError(f"{where}: expected {_EXPECTED[tp]}, got {value!r}")
    return tp(value)


def _decode_fields(cls: type, payload: Any, where: str) -> dict[str, Any]:
    if not isinstance(payload, dict):
        raise ValueError(f"{where}: expected an object, got {payload!r}")
    field_types = _field_types(cls)
    for key in payload:
        if key not in field_types:
            raise ValueError(
                f"{where}.{key}: unknown key (known: {', '.join(field_types)})"
            )
    for f in dataclasses.fields(cls):
        required = f.default is dataclasses.MISSING and f.default_factory is dataclasses.MISSING
        if required and f.name not in payload:
            raise ValueError(f"{where}.{f.name}: required key is missing")
    return {
        name: _decode(tp, payload[name], f"{where}.{name}")
        for name, tp in field_types.items()
        if name in payload
    }


class PlanCodec:
    """Base of the plan dataclasses: format, round trip, hash, counts.

    A subclass is a ``@dataclass(frozen=True)`` that sets :attr:`KIND`
    (the name its errors and descriptions use) and
    :attr:`FORMAT_VERSION`. Every event type has a ``validate()``; one
    that may schedule nothing reports its own ``n_events``.
    """

    KIND: ClassVar[str]
    FORMAT_VERSION: ClassVar[int]

    def __post_init__(self) -> None:
        # accept lists for ergonomic construction, store tuples (hashable,
        # frozen, picklable)
        for name, tp in _field_types(type(self)).items():
            value = getattr(self, name)
            if typing.get_origin(tp) is tuple and not isinstance(value, tuple):
                object.__setattr__(self, name, tuple(value))

    # ------------------------------------------------------------- queries
    def _events(self) -> Iterator[Any]:
        for name, tp in _field_types(type(self)).items():
            value = getattr(self, name)
            if isinstance(value, tuple):
                yield from value
            elif value is not None and _optional(tp) is not None:
                yield value

    @property
    def n_events(self) -> int:
        return sum(getattr(event, "n_events", 1) for event in self._events())

    @property
    def is_empty(self) -> bool:
        return self.n_events == 0

    def validate(self) -> None:
        """Raise ``ValueError`` on an invalid event; subclasses add the
        checks that span events."""
        for event in self._events():
            event.validate()

    # ------------------------------------------------------- serialization
    def to_dict(self) -> dict[str, Any]:
        return {"format_version": self.FORMAT_VERSION, **_encode(type(self), self)}

    @classmethod
    def from_dict(cls: type[P], payload: Any) -> P:
        if isinstance(payload, dict) and "format_version" in payload:
            version = payload["format_version"]
            if type(version) is not int or version != cls.FORMAT_VERSION:
                raise ValueError(
                    f"unsupported {cls.KIND} format_version {version!r} "
                    f"(this build reads {cls.FORMAT_VERSION})"
                )
            payload = {k: v for k, v in payload.items() if k != "format_version"}
        return cls(**_decode_fields(cls, payload, cls.KIND))

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True)

    @classmethod
    def from_json(cls: type[P], text: str) -> P:
        return cls.from_dict(json.loads(text))

    def save(self, path: str | os.PathLike) -> None:
        with open(os.fspath(path), "w", encoding="utf-8") as handle:
            handle.write(self.to_json())
            handle.write("\n")

    @classmethod
    def load(cls: type[P], path: str | os.PathLike) -> P:
        with open(os.fspath(path), encoding="utf-8") as handle:
            return cls.from_json(handle.read())

    def plan_hash(self) -> str:
        """Stable 12-hex digest of the plan's semantic content.

        Pins the campaign journal identity: resuming a fault campaign
        under a different plan must be rejected. The ``name`` field is
        cosmetic and excluded.
        """
        payload = self.to_dict()
        del payload["name"]
        canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
        return hashlib.sha1(canonical.encode()).hexdigest()[:12]
