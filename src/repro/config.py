"""Uniform config round-tripping: ``to_dict()`` / ``from_overrides()``.

Every harness-facing configuration dataclass (:class:`~repro.core.session
.PlanetConfig`, :class:`~repro.core.likelihood.LikelihoodConfig`,
:class:`~repro.cluster.ClusterConfig`) derives from :class:`Config`, which
provides the same three methods once:

* ``to_dict()`` — a JSON-encodable snapshot of every field (enums by value,
  nested config dataclasses recursed, opaque objects stringified);
* ``from_overrides(overrides, base=None)`` — build a config from string
  ``key=value`` pairs, e.g. from ``python -m repro run f9 --set
  admission_threshold=0.5``.  Dotted keys descend into nested configs
  (``likelihood.use_deadline=false``);
* ``with_overrides(overrides)`` — the instance-method form of the same.

All parsing and validation errors funnel through one exception type,
:class:`ConfigOverrideError`, whose message lists the valid field names —
one error path for every driver instead of 19 ad-hoc ones.  The module
imports nothing from ``repro``, so every layer's configs can derive from it.
"""

from __future__ import annotations

import dataclasses
import enum
import typing
from typing import Any, Dict, Mapping, Optional, Tuple, Type, Union


class ConfigOverrideError(ValueError):
    """A ``--set key=value`` override that cannot be applied."""


#: Override namespaces consumed outside the config dataclasses: the
#: checker campaign (``check.*``), the sharded scaleout driver
#: (``scale.*``), and the harness's backend selection
#: (``engine.backend``).  Config application must skip them and CLI
#: validation must let them through.
RESERVED_NAMESPACES = ("check.", "scale.", "engine.")


def strip_reserved(overrides: Mapping[str, str]) -> Dict[str, str]:
    """``overrides`` minus the :data:`RESERVED_NAMESPACES` keys."""
    return {
        key: value
        for key, value in overrides.items()
        if not key.startswith(RESERVED_NAMESPACES)
    }


_TRUE = frozenset({"1", "true", "yes", "on"})
_FALSE = frozenset({"0", "false", "no", "off"})
_NONE = frozenset({"none", "null", "nil", ""})


def parse_override_args(pairs) -> Dict[str, str]:
    """Parse repeated ``key=value`` CLI arguments into an override mapping."""
    overrides: Dict[str, str] = {}
    for pair in pairs or ():
        key, sep, value = pair.partition("=")
        if not sep or not key:
            raise ConfigOverrideError(
                f"override {pair!r} is not of the form key=value"
            )
        overrides[key.strip()] = value.strip()
    return overrides


def _unwrap_optional(field_type: Any) -> Tuple[Any, bool]:
    """``Optional[X]`` -> (X, True); anything else -> (type, False)."""
    origin = typing.get_origin(field_type)
    if origin is Union:
        args = [a for a in typing.get_args(field_type) if a is not type(None)]
        if len(args) == 1:
            return args[0], True
    return field_type, False


def _coerce(raw: str, field_type: Any, key: str) -> Any:
    field_type, optional = _unwrap_optional(field_type)
    lowered = raw.lower()
    if optional and lowered in _NONE:
        return None
    try:
        if isinstance(field_type, type) and issubclass(field_type, enum.Enum):
            for member in field_type:
                if lowered in (member.name.lower(), str(member.value).lower()):
                    return member
            valid = ", ".join(m.value for m in field_type)
            raise ConfigOverrideError(
                f"{key}: {raw!r} is not one of: {valid}"
            )
        if field_type is bool:
            if lowered in _TRUE:
                return True
            if lowered in _FALSE:
                return False
            raise ConfigOverrideError(f"{key}: {raw!r} is not a boolean")
        if field_type is int:
            return int(raw)
        if field_type is float:
            return float(raw)
        if field_type is str:
            return raw
    except ConfigOverrideError:
        raise
    except (TypeError, ValueError) as exc:
        raise ConfigOverrideError(f"{key}: cannot parse {raw!r}: {exc}") from exc
    raise ConfigOverrideError(
        f"{key}: field of type {field_type!r} cannot be set from the command line"
    )


def _field_types(cls: Type) -> Dict[str, Any]:
    # get_type_hints resolves the "from __future__ import annotations"
    # strings the config modules use.
    return typing.get_type_hints(cls)


def config_to_dict(config: Any) -> Dict[str, Any]:
    """JSON-encodable snapshot of a config dataclass (recursive)."""
    out: Dict[str, Any] = {}
    for field in dataclasses.fields(config):
        value = getattr(config, field.name)
        if dataclasses.is_dataclass(value) and not isinstance(value, type):
            out[field.name] = config_to_dict(value)
        elif isinstance(value, enum.Enum):
            out[field.name] = value.value
        elif isinstance(value, (str, int, float, bool)) or value is None:
            out[field.name] = value
        else:
            out[field.name] = str(value)
    return out


def config_from_overrides(base: Any, overrides: Optional[Mapping[str, str]]) -> Any:
    """A copy of ``base`` with string ``overrides`` applied and validated.

    Keys name dataclass fields; dotted keys (``likelihood.use_deadline``)
    descend into nested config dataclasses.  Unknown keys raise
    :class:`ConfigOverrideError` listing the valid names, and so does a
    value the config's own range checks (``__post_init__``) refuse.
    """
    if not overrides:
        return base
    # Group by head so nested configs are rebuilt once each.
    direct: Dict[str, str] = {}
    nested: Dict[str, Dict[str, str]] = {}
    for key, raw in overrides.items():
        head, dot, rest = key.partition(".")
        if dot:
            nested.setdefault(head, {})[rest] = raw
        else:
            direct[key] = raw

    types = _field_types(type(base))
    fields = {field.name: field for field in dataclasses.fields(base)}
    changes: Dict[str, Any] = {}

    def unknown(key: str) -> ConfigOverrideError:
        valid = ", ".join(sorted(fields))
        return ConfigOverrideError(
            f"unknown field {key!r} for {type(base).__name__}; valid fields: {valid}"
        )

    for key, raw in direct.items():
        if key not in fields:
            raise unknown(key)
        current = getattr(base, key)
        if dataclasses.is_dataclass(current) and not isinstance(current, type):
            raise ConfigOverrideError(
                f"{key} is a nested config; set a field inside it, e.g. "
                f"{key}.<field>=<value>"
            )
        changes[key] = _coerce(raw, types[key], key)
    for head, sub in nested.items():
        if head not in fields:
            raise unknown(head)
        current = getattr(base, head)
        if not (dataclasses.is_dataclass(current) and not isinstance(current, type)):
            raise ConfigOverrideError(f"{head} is not a nested config")
        changes[head] = config_from_overrides(current, sub)
    try:
        return dataclasses.replace(base, **changes)
    except ValueError as exc:  # a range rule in the config's __post_init__
        raise ConfigOverrideError(str(exc)) from exc


class Config:
    """Base of the config dataclasses: the uniform config API, once."""

    def to_dict(self) -> Dict[str, Any]:
        """JSON-encodable snapshot of every field (nested configs recursed)."""
        return config_to_dict(self)

    @classmethod
    def from_overrides(cls, overrides, base=None):
        """Build a config from string ``key=value`` overrides (CLI ``--set``)."""
        return config_from_overrides(base if base is not None else cls(), overrides)

    def with_overrides(self, overrides):
        """A copy of this config with string overrides applied."""
        return config_from_overrides(self, overrides)
