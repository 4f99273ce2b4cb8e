"""The stopping methods' parameters, and the config files that set them.

Each MethodParams field is its parameter's one declaration: its name, type,
default and, in its metadata, its option's flag, range and --help doc.
Precedence: defaults < config file < command-line flags.
"""

import math
import operator
from dataclasses import dataclass, field, fields
from pathlib import Path

from tarstop.errors import ValidationError

_COMPARE = {"<": operator.lt, "<=": operator.le, ">": operator.gt, ">=": operator.ge}


def in_range(value: float, bounds: str) -> bool:
    """Whether value lies in bounds, a range written as --help shows it: 0<x<=1, x>=1.

    Each bound is a comparison, which is False for NaN: NaN lies in no range.
    """
    left, _, right = bounds.partition("x")
    lo, hi = left.rstrip("<="), right.lstrip("<>=")
    return (not lo or _COMPARE[left[len(lo) :]](float(lo), value)) and (
        not hi or _COMPARE[right[: -len(hi)]](value, float(hi))
    )


def _param(default: float, flag: str, bounds: str, doc: str):
    return field(default=default, metadata={"flag": flag, "bounds": bounds, "doc": doc})


@dataclass(frozen=True)
class MethodParams:
    """Tunable parameters shared by the stopping methods.

    Defaults follow the evaluated configuration.  A value outside its
    field's bounds, or a beta_frac above alpha_frac, is a ValidationError.
    """

    target_recall: float = _param(0.7, "--recall", "0<x<=1", "Minimum recall to reach.")
    confidence: float = _param(0.95, "--confidence", "0<x<1", "Probability of reaching the recall.")
    alpha_frac: float = _param(0.3, "--alpha", "0<x<=1", "Initial sample's share of the topic.")
    beta_frac: float = _param(0.05, "--beta", "0<x<=1", "Batch's share of the topic; <= --alpha.")
    gamma: int = _param(20, "--gamma", "x>=1", "Relevant documents the initial sample needs.")
    delta: float = _param(0.7, "--delta", "0<x<=1", "Fit-accuracy multiplier.")
    epsilon: int = _param(150, "--epsilon", "x>=0", "Knee method's slope-ratio parameter.")
    target_count: int = _param(10, "--target-count", "x>=1", "Relevant documents in a target set.")

    def __post_init__(self):
        for f in fields(self):
            value, bounds = getattr(self, f.name), f.metadata["bounds"]
            if not in_range(value, bounds):
                raise ValidationError(f"{f.name} = {value} is not in the range {bounds}")
        if self.beta_frac > self.alpha_frac:
            raise ValidationError(
                f"beta_frac (--beta) = {self.beta_frac} exceeds "
                f"alpha_frac (--alpha) = {self.alpha_frac}"
            )

    def batch_width(self, n: int) -> int:
        """Ranks per batch on a topic of n documents."""
        return max(1, math.ceil(self.beta_frac * n))


def parse_config(path: str | Path) -> dict[str, float | int]:
    """Parse ``key = value`` lines; '#' starts a comment, blanks ignored."""
    # Each parameter's type, int or float, converts its value.
    types = {f.name: f.type for f in fields(MethodParams)}
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
