"""Exception types shared across the package."""


class ConfigError(Exception):
    """Invalid or inconsistent configuration (bad file, bad parameter set)."""


class TrainingDiverged(ConfigError):
    """Training produced a non-finite gradient; usually a step size or
    reward scale the configuration sets too large."""


class CheckFailure(Exception):
    """An experiment was run with --check and a directional assertion failed."""
