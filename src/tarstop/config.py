"""Key/value config files and MethodParams resolution.

Precedence: built-in defaults < config file < command-line flags.
"""

from __future__ import annotations

from pathlib import Path
from typing import get_type_hints

from tarstop.core import MethodParams
from tarstop.errors import ValidationError


def parse_config(path: str | Path) -> dict[str, float | int]:
    """Parse ``key = value`` lines; '#' starts a comment, blanks ignored."""
    # Each parameter's type, int or float, converts its value.
    types = get_type_hints(MethodParams)
    values: dict[str, float | int] = {}
    # UTF-8 whatever the locale; a byte that is not UTF-8 reads as a lone
    # surrogate, which no key or value accepts.
    text = Path(path).read_text(encoding="utf-8", errors="surrogateescape")
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValidationError(f"{path}:{line_no}: expected 'key = value'")
        key, _, value = line.partition("=")
        key = key.strip()
        if key not in types:
            raise ValidationError(f"{path}:{line_no}: unknown parameter {key!r}")
        try:
            values[key] = types[key](value)
        except ValueError as exc:
            raise ValidationError(f"{path}:{line_no}: {exc}") from exc
    return values


def resolve_params(config_path: str | Path | None = None, **flags) -> MethodParams:
    """Merge defaults, config-file values, and non-None flag overrides."""
    merged: dict[str, float | int] = {}
    if config_path is not None:
        merged.update(parse_config(config_path))
    merged.update({k: v for k, v in flags.items() if v is not None})
    return MethodParams(**merged)
