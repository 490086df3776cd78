"""Exception hierarchy shared across the package, and the checks of config
and manifest fields and of JSON files that raise it.

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


def _is_number(value) -> bool:
    # NaN, +-inf and integers beyond the float range are not numbers
    # (math.isfinite raises on such an integer)
    return (_is_int(value) and abs(value) <= sys.float_info.max) or (
        isinstance(value, float) and math.isfinite(value)
    )


def _is_int_list(value) -> bool:
    return isinstance(value, (list, tuple)) and all(_is_int(x) for x in value)


# what a field must be, as the message says it -> test of one value;
# booleans never count as numbers
FIELD_KINDS = {
    "an integer": _is_int,
    "a number": _is_number,
    "a number > 0": lambda v: _is_number(v) and v > 0,
    "a number in [0, 1]": lambda v: _is_number(v) and 0 <= v <= 1,
    "a number in [0, 1)": lambda v: _is_number(v) and 0 <= v < 1,
    "a number in (0, 1)": lambda v: _is_number(v) and 0 < v < 1,
    "a number in (0, 1]": lambda v: _is_number(v) and 0 < v <= 1,
    "a list of integers": _is_int_list,
    "a list of 3 integers": lambda v: _is_int_list(v) and len(v) == 3,
    "a strictly increasing list of integers": lambda v: _is_int_list(v)
    and all(a < b for a, b in zip(v, v[1:])),
    "a list": lambda v: isinstance(v, list),
    "an object": lambda v: isinstance(v, dict),
    "a string or null": lambda v: v is None or isinstance(v, str),
    "a non-empty string": lambda v: isinstance(v, str) and v != "",
}


def check_fields(
    fields: dict,
    kind,
    names,
    low=None,
    below=None,
    error: type[SmoeaError] = ArgumentError,
    section: str = "",
    when: str = "",
) -> None:
    """Raise `error` for the first of `names` whose value in `fields` (None
    where it is missing) is not `kind`, a key of FIELD_KINDS or a tuple of
    the allowed values, or whose number, or any list entry, is below `low`
    or not below `below`. A bound is a number or the name of another field
    of `fields`, whose value it takes; `when` names another field's value
    that sets the rule. This is the one place that words a rejected field:
    `<section>.<name> must be <rule>, got <value!r>`."""
    where = f"{section}." if section else ""
    rule = kind if isinstance(kind, str) else " or ".join(map(repr, kind))
    tests = []
    for op, bound in ((">=", low), ("<", below)):
        if isinstance(bound, str):  # another field: the rule names it and its value
            rule += f" {op} {where}{bound} ({fields[bound]!r})"
            tests.append((op, fields[bound]))
        elif bound is not None:
            rule += f" {op} {bound}"
            tests.append((op, bound))
    if when:
        rule += f" when {when}"
    for name in names:
        value = fields.get(name)
        ok = value in kind if isinstance(kind, tuple) else FIELD_KINDS[kind](value)
        entries = value if isinstance(value, (list, tuple)) else [value]
        if not ok or not all(
            v >= b if op == ">=" else v < b for op, b in tests for v in entries
        ):
            raise error(f"{where}{name} must be {rule}, got {value!r}")


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
