"""The rules every text input (frames, speech tokens, control records) is
read by: one UTF-8 line reader, one JSON wrapper, one rule for the
numerals of the plain-text formats, one finite-number check and the speech
vocabulary's limits. Kept apart from `generation` so that
commands which read frames never import the generation harness."""

from __future__ import annotations

import json
import math

from .errors import InvalidInput

DEFAULT_SPEECH_VOCAB = 4096
MAX_SPEECH_VOCAB = 2**53  # the float64 `framewise` context holds every token exactly


def _lines(path):
    """(lineno, text) of each non-blank line of a UTF-8 file, stripped and
    numbered from 1 as text mode splits lines (at \\n, \\r\\n and a lone
    \\r); callers format `path:lineno` only when they raise.

    One pass: a byte that is not UTF-8 decodes to a lone surrogate, which no
    valid UTF-8 decodes to, so a line is refused where it fails to encode
    back, and the first bad line is the one reported."""
    with open(path, "r", encoding="utf-8", errors="surrogateescape") as fh:
        for lineno, line in enumerate(fh, start=1):
            text = line.strip()
            if not text:
                continue
            if not text.isascii():
                try:
                    text.encode("utf-8")
                except UnicodeEncodeError:
                    raise InvalidInput(f"{path}:{lineno}: not UTF-8 text") from None
            yield lineno, text


def _json_line(path, lineno: int, text: str):
    """One line's JSON value, or `InvalidInput` naming `path:lineno`."""
    try:
        return json.loads(text)
    # ValueError also covers an integer past Python's digit limit;
    # RecursionError, arrays or objects nested too deep to parse
    except (ValueError, RecursionError) as exc:
        raise InvalidInput(f"{path}:{lineno}: invalid JSON: {exc}") from None


def _numerals(text: str) -> str:
    """`text`, for `int()` or `float()` to parse, or ValueError when it is
    not ASCII or holds a `_`: both parsers also read `_` digit separators
    and every Unicode decimal digit, which no text format here allows."""
    if not text.isascii() or "_" in text:
        raise ValueError(text)
    return text


_JSON_NUMBERS = frozenset((int, float))


def _finite_floats(values) -> list[float] | None:
    """A JSON list's numbers as floats, or None unless it is a list of finite
    ints and floats. A bool is no number here, though Python makes it an int;
    an integer too large for a float (JSON allows one) counts as not finite."""
    if not isinstance(values, list) or not set(map(type, values)) <= _JSON_NUMBERS:
        return None
    try:
        floats = [float(v) for v in values]
    except OverflowError:
        return None
    return floats if all(map(math.isfinite, floats)) else None
