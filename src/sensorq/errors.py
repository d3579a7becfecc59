"""Exception types shared across the package, and the one rule every
config field is checked with: require(predicate, message)."""

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


def as_float(x):
    """float(x) for a real number (fixing its repr); anything else unchanged."""
    return float(x) if is_real(x) else x


def require_keys(raw, known, section: str) -> dict:
    """raw, once it is known to be a JSON object whose keys all lie in known."""
    require(isinstance(raw, dict), f"config section {section} must be a JSON object")
    for key in raw:
        require(key in known, f"unknown {section} config key {key!r}")
    return raw


def dataclass_kwargs(raw, cls, section: str) -> dict:
    """The JSON object raw as keyword arguments of the dataclass cls: every
    key must name a field, and each float field's number becomes a float,
    so that 12 and 12.0 give one config (and one config_sha256)."""
    fields = cls.__dataclass_fields__
    require_keys(raw, fields, section)
    return {k: as_float(v) if fields[k].type == "float" else v for k, v in raw.items()}
