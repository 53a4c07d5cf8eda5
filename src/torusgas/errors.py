"""Error types shared across the package.

The CLI maps ConfigError to exit code 2 and InvariantViolation to exit
code 1; everything else is a plain bug.
"""


class ConfigError(ValueError):
    """Bad user input: malformed config, invalid kernel, wrong grid shapes."""


class InvariantViolation(RuntimeError):
    """A runtime check that should hold by construction failed."""


def require(mapping, key: str, where: str):
    """mapping[key] from parsed user input, as a ConfigError when absent."""
    if not isinstance(mapping, dict):
        raise ConfigError(f"{where} must be an object")
    if key not in mapping:
        raise ConfigError(f"missing key {key!r} in {where}")
    return mapping[key]


def as_number(kind, value, key: str):
    """kind(value), with kind int or float, from parsed user input; a value
    that does not convert is a ConfigError naming `key`."""
    try:
        return kind(value)
    except (TypeError, ValueError, OverflowError):
        noun = "an integer" if kind is int else "a number"
        raise ConfigError(f"{key} must be {noun}, got {value!r}") from None
