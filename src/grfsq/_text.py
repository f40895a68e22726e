"""The rules every text input (frames, speech tokens, control records) is
read by: one UTF-8 line reader, one JSON wrapper, one finite-number check
and the speech vocabulary's limits. Kept apart from `generation` so that
commands which read frames never import the generation harness."""

from __future__ import annotations

import json
import math

from .errors import InvalidInput

DEFAULT_SPEECH_VOCAB = 4096
MAX_SPEECH_VOCAB = 2**53  # the float64 `framewise` context holds every token exactly


def _lines(path):
    """(lineno, text) of each non-blank line of a UTF-8 file, stripped and
    numbered from 1; callers format `path:lineno` only when they raise."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            for lineno, line in enumerate(fh, start=1):
                text = line.strip()
                if text:
                    yield lineno, text
        except UnicodeDecodeError:
            raise InvalidInput(f"{path}:{_undecodable_line(path)}: not UTF-8 text") from None


def _undecodable_line(path) -> int:
    """The number of the first line holding a byte that is not UTF-8, with
    lines split as text mode splits them (at \\n, \\r\\n and a lone \\r).
    Text mode decodes in chunks, so only this second, binary pass can tell."""
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        data.decode("utf-8")
    except UnicodeDecodeError as exc:
        data = data[: exc.start]
    head = data.decode("utf-8")
    return head.replace("\r\n", "\n").replace("\r", "\n").count("\n") + 1


def _json_line(path, lineno: int, text: str):
    """One line's JSON value, or `InvalidInput` naming `path:lineno`."""
    try:
        return json.loads(text)
    # ValueError also covers an integer past Python's digit limit;
    # RecursionError, arrays or objects nested too deep to parse
    except (ValueError, RecursionError) as exc:
        raise InvalidInput(f"{path}:{lineno}: invalid JSON: {exc}") from None


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
