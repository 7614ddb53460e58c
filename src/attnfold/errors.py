"""Exception types shared across the package, and the schema checks that raise one."""

from typing import get_origin


class ShapeError(ValueError):
    """Operand shapes are incompatible; message names the offending axes."""


class InvariantError(ValueError):
    """A value-level invariant was violated (non-finite data, negative variance, ...)."""


class GraphError(ValueError):
    """A model graph is malformed or an input does not fit it."""


class StateError(RuntimeError):
    """An operation was called in the wrong lifecycle state."""


class FusionError(RuntimeError):
    """A slot cannot be folded into any upstream layer."""


class FormatError(ValueError):
    """A serialized artifact (checkpoint, dataset file, config) is malformed."""


class ConfigError(ValueError):
    """A run configuration is invalid or contains unknown keys."""


def require_keys(d, keys: tuple[str, ...], what: str) -> None:
    """Raise FormatError unless `d` is a dict holding every key in `keys`."""
    if not isinstance(d, dict):
        raise FormatError(f"{what} must be a JSON object, got {type(d).__name__}")
    missing = [k for k in keys if k not in d]
    if missing:
        raise FormatError(f"{what} is missing key {missing[0]!r}")


_JSON_NAMES = {dict: "object", list: "array", str: "string", int: "integer",
               float: "number"}


def require_types(d: dict, types: dict[str, type], what: str) -> None:
    """Raise FormatError unless each key in `types` holds a value of that type.

    `list[t]` asks for an array whose entries are all of type t (named
    `key[i]`); `float` also accepts an integer. JSON `true`/`false` load as
    bools, which Python counts as ints; an int or float key rejects them.
    """
    for key, kind in types.items():
        value = d[key]
        item = kind.__args__[0] if get_origin(kind) is list else None
        json_type = list if item else kind
        if (not isinstance(value, (int, float) if json_type is float else json_type)
                or (json_type in (int, float) and isinstance(value, bool))):
            raise FormatError(f"{what} key {key!r} must be a JSON {_JSON_NAMES[json_type]}, "
                              f"got {type(value).__name__}")
        if item:
            items = {f"{key}[{i}]": v for i, v in enumerate(value)}
            require_types(items, dict.fromkeys(items, item), what)
