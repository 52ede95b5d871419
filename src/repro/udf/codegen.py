"""Description → Python code generation for the Python operator.

In the paper, "the Python operator takes a description as input, which is
translated to code using GPT-4" (Figure 4).  Offline, the code generator is
a recipe library: the natural-language description is matched against known
transformation intents (extract the century/year/decade from a date, string
manipulations, simple arithmetic) and real Python *source code* is emitted,
then validated and compiled by the sandbox (:mod:`repro.udf.sandbox`) before
running over the data.  Generation is a pure function of the description,
so its result is memoised per description.
"""

from __future__ import annotations

import functools
import re
from dataclasses import dataclass

from repro.errors import CodeGenerationError
from repro.udf.sandbox import COMPILED_UDF_CACHE_SIZE, compile_udf


@dataclass(frozen=True)
class GeneratedUDF:
    """The outcome of code generation: source plus compiled callable."""

    description: str
    source: str

    def compile(self):
        return compile_udf(self.source)


_RECIPES: list[tuple[re.Pattern[str], str]] = [
    (re.compile(r"\bcentur", re.IGNORECASE), '''\
def transform(value):
    """Extract the century from a date string like '1889-01-15'."""
    year = int(str(value).strip()[:4])
    return (year - 1) // 100 + 1
'''),
    (re.compile(r"\bdecade", re.IGNORECASE), '''\
def transform(value):
    """Extract the decade from a date string like '1889-01-15'."""
    year = int(str(value).strip()[:4])
    return year // 10 * 10
'''),
    (re.compile(r"\byear", re.IGNORECASE), '''\
def transform(value):
    """Extract the year from a date string like '1889-01-15'."""
    return int(str(value).strip()[:4])
'''),
    (re.compile(r"\b(upper ?case|capital letters)", re.IGNORECASE), '''\
def transform(value):
    """Convert to uppercase."""
    return str(value).upper()
'''),
    (re.compile(r"\b(lower ?case)", re.IGNORECASE), '''\
def transform(value):
    """Convert to lowercase."""
    return str(value).lower()
'''),
    (re.compile(r"\b(length|number of characters)", re.IGNORECASE), '''\
def transform(value):
    """Length of the string representation."""
    return len(str(value))
'''),
    (re.compile(r"\bfirst word\b", re.IGNORECASE), '''\
def transform(value):
    """First whitespace-separated word."""
    parts = str(value).split()
    return parts[0] if parts else ""
'''),
    (re.compile(r"\blast word\b", re.IGNORECASE), '''\
def transform(value):
    """Last whitespace-separated word."""
    parts = str(value).split()
    return parts[-1] if parts else ""
'''),
    (re.compile(r"(extract|first|the) number\b", re.IGNORECASE), '''\
def transform(value):
    """First integer appearing in the string, or None."""
    digits = ""
    for ch in str(value):
        if ch.isdigit():
            digits = digits + ch
        elif digits:
            break
    return int(digits) if digits else None
'''),
]

_DIVIDE_RE = re.compile(r"divid\w*\s+(?:\w+\s+)*?by\s+(-?\d+(?:\.\d+)?)",
                        re.IGNORECASE)
_MULTIPLY_RE = re.compile(r"multipl\w*\s+(?:\w+\s+)*?by\s+(-?\d+(?:\.\d+)?)",
                          re.IGNORECASE)
_ADD_RE = re.compile(r"\badd(?:ing)?\s+(-?\d+(?:\.\d+)?)\b", re.IGNORECASE)


@functools.lru_cache(maxsize=COMPILED_UDF_CACHE_SIZE)
def generate_udf(description: str) -> GeneratedUDF:
    """Generate Python source implementing *description*.

    Raises :class:`CodeGenerationError` when no recipe matches — CAESURA's
    error handler will see this failure and can re-plan (a failure is
    never memoised).
    """
    stripped = description.strip()
    if not stripped:
        raise CodeGenerationError("empty UDF description")

    match = _DIVIDE_RE.search(stripped)
    if match and "centur" not in stripped.lower():
        return GeneratedUDF(stripped, f'''\
def transform(value):
    """Divide the numeric value by {match.group(1)}."""
    return float(value) / {match.group(1)}
''')
    match = _MULTIPLY_RE.search(stripped)
    if match:
        return GeneratedUDF(stripped, f'''\
def transform(value):
    """Multiply the numeric value by {match.group(1)}."""
    return float(value) * {match.group(1)}
''')
    match = _ADD_RE.search(stripped)
    if match:
        return GeneratedUDF(stripped, f'''\
def transform(value):
    """Add {match.group(1)} to the numeric value."""
    return float(value) + {match.group(1)}
''')

    for pattern, source in _RECIPES:
        if pattern.search(stripped):
            return GeneratedUDF(stripped, source)
    raise CodeGenerationError(
        f"no code-generation recipe matches description {stripped!r}")
