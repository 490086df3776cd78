"""Exception hierarchy shared across the package, and the checks of config
fields, retained fractions and JSON files that raise it.

Every error carries an ``exit_code`` so the CLI can map failures to stable
process exit statuses.
"""

import json
import math
import sys
from pathlib import Path


class SmoeaError(Exception):
    exit_code = 7


class ArgumentError(SmoeaError):
    """Invalid argument value (bad fraction, bad config field)."""
    exit_code = 2


class ShapeError(SmoeaError):
    """Tensor shapes do not compose."""
    exit_code = 7


class GeometryError(SmoeaError):
    """Layer geometry is invalid (non-integer output size, odd pool input)."""
    exit_code = 7


class LabelError(SmoeaError):
    """Class label outside the valid range."""
    exit_code = 7


class MaskError(SmoeaError):
    """Filter mask is malformed or infeasible (wrong length, all zeros)."""
    exit_code = 7


class UnknownLayerError(SmoeaError):
    """Conv ordinal does not name a layer of the network."""
    exit_code = 5


class ModelFormatError(SmoeaError):
    """Model directory is corrupt (bad manifest, truncated blob)."""
    exit_code = 4


class DataFormatError(SmoeaError):
    """Dataset file is corrupt (bad framing, bad label byte)."""
    exit_code = 3


class DataError(SmoeaError):
    """Dataset is unusable (empty split)."""
    exit_code = 3


class PlanError(SmoeaError):
    """Group plan does not fit the network."""
    exit_code = 6


class NonFiniteError(SmoeaError):
    """A value that must be finite is NaN or infinite (a fine-tune's loss
    diverged, or a model's weights give non-finite evaluation terms)."""
    exit_code = 7


class EvolutionError(SmoeaError):
    """Evolution cannot proceed (infeasible bounds, degenerate elites, empty front)."""
    exit_code = 7


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


# what a field must be, as the message says it -> test of one value;
# booleans never count as numbers, and NaN, +-inf and integers beyond the
# float range are not numbers (math.isfinite raises on such an integer)
FIELD_KINDS = {
    "an integer": _is_int,
    "a number": lambda v: (_is_int(v) and abs(v) <= sys.float_info.max)
    or (isinstance(v, float) and math.isfinite(v)),
    "a list of integers": lambda v: isinstance(v, (list, tuple))
    and all(_is_int(x) for x in v),
    "a string or null": lambda v: v is None or isinstance(v, str),
}


def check_fields(
    fields: dict,
    kind: str,
    names,
    low=None,
    error: type[SmoeaError] = ArgumentError,
    section: str = "",
) -> None:
    """Raise `error` for the first of `names` whose value in `fields` is not
    `kind` (a key of FIELD_KINDS) or, where `low` is given, is below `low`
    (for a list, holds an entry below it). The message names the field as
    `section.name` where a config section is given."""
    for name in names:
        value = fields[name]
        ok = FIELD_KINDS[kind](value)
        if ok and low is not None:
            entries = value if isinstance(value, (list, tuple)) else [value]
            ok = all(v >= low for v in entries)
        if not ok:
            bound = "" if low is None else f" >= {low}"
            where = f"{section}.{name}" if section else name
            raise error(f"{where} must be {kind}{bound}, got {value!r}")


def check_fraction(name: str, value: float) -> None:
    """A retained fraction must lie in (0, 1]."""
    if not 0 < value <= 1:
        raise ArgumentError(f"{name} must be in (0, 1], got {value}")


def read_json_object(path: str | Path, error: type[SmoeaError], what: str) -> dict:
    """The JSON object in the file at `path`, decoded as UTF-8. A file that
    cannot be read, is not UTF-8 or not JSON, or holds no object raises
    `error`, whose message names the file as `what`."""
    try:
        value = json.loads(Path(path).read_bytes().decode("utf-8"))
    except (OSError, ValueError) as e:  # ValueError: not UTF-8 or not JSON
        raise error(f"cannot read {what} {path}: {e}") from e
    if not isinstance(value, dict):
        raise error(f"{what} {path} must be a JSON object")
    return value
