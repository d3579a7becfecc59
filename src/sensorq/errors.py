"""Exception types shared across the package, the one rule every config
field is checked with, require(predicate, message), and the one reader,
from_json, that turns a JSON config section into its dataclass."""

import dataclasses
import types
import typing

_BIG = 1.7976931348623157e308  # sys.float_info.max


class ConfigError(Exception):
    """Invalid or inconsistent configuration (bad file, bad parameter set)."""


class TrainingDiverged(ConfigError):
    """Training produced a non-finite gradient; usually a step size or
    reward scale the configuration sets too large."""


class CheckFailure(Exception):
    """An experiment was run with --check and a directional assertion failed."""


def require(ok: bool, message: str) -> None:
    if not ok:
        raise ConfigError(message)


def is_int(x, lo: int) -> bool:
    """An int >= lo that is not a bool (so JSON true and 2.5 fail)."""
    return isinstance(x, int) and not isinstance(x, bool) and x >= lo


def is_real(x, lo: float = -_BIG, hi: float = _BIG) -> bool:
    """A finite int or float in [lo, hi] that is not a bool: NaN fails every
    comparison, and the bounds never reach past the float range."""
    return isinstance(x, (int, float)) and not isinstance(x, bool) and lo <= x <= hi


def require_keys(raw, known, section: str) -> dict:
    """raw, once it is known to be a JSON object whose keys all lie in known."""
    require(isinstance(raw, dict), f"config section {section} must be a JSON object")
    for key in raw:
        require(key in known, f"unknown {section} config key {key!r}")
    return raw


def from_json(cls, raw, section: str):
    """raw read as cls, a config dataclass or one of its field types. A
    dataclass comes from a JSON object whose keys all name fields, each
    value read by its field's type hint (a nested one named section.key in
    messages); a float from a real number (so 12 and 12.0 give one config
    and one config_sha256); X | None passes None; dict values, list items
    and tuple items are read by their own types, a fixed-length tuple only
    from a list of that length. Any other value comes back unchanged, for
    validate() to name. Nothing is validated here."""
    origin, args = typing.get_origin(cls), typing.get_args(cls)
    if dataclasses.is_dataclass(cls):
        hints = typing.get_type_hints(cls)
        require_keys(raw, hints, section)
        return cls(**{k: from_json(hints[k], v, f"{section}.{k}") for k, v in raw.items()})
    if cls is float:
        return float(raw) if is_real(raw) else raw
    if origin in (typing.Union, types.UnionType):  # X | None
        return None if raw is None else from_json(args[0], raw, section)
    if origin is dict and isinstance(raw, dict):
        return {k: from_json(args[1], v, section) for k, v in raw.items()}
    if origin is list and isinstance(raw, list):
        return [from_json(args[0], v, section) for v in raw]
    if origin is tuple and isinstance(raw, list):
        if args[-1] is Ellipsis:
            return tuple(from_json(args[0], v, section) for v in raw)
        if len(raw) == len(args):
            return tuple(from_json(a, v, section) for a, v in zip(args, raw))
    return raw
