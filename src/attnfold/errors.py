"""Exception types shared across the package, and the schema check that raises one."""


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
