"""The one reader that turns a line-based input into numbered text lines,
and the one reader of versioned JSON-lines files built on it."""

import json
from typing import Iterable, Iterator


def read_lines(raw: Iterable[bytes], source, error: type[Exception]) -> Iterator[tuple[int, str]]:
    """(line number from 1, text) of each line of ``raw``, byte lines that
    end at b"\\n" only (an open binary file, ``io.BytesIO``), less that
    "\\n" and one final "\\r". A byte that is not UTF-8 raises ``error``
    naming ``source`` and the line."""
    for lineno, line in enumerate(raw, 1):
        try:
            text = line.decode("utf-8")
        except UnicodeDecodeError as exc:
            byte = line[exc.start]
            raise error(f"{source}: line {lineno}: byte {byte:#04x} is not UTF-8") from None
        yield lineno, text.removesuffix("\n").removesuffix("\r")


def read_records(
    raw: Iterable[bytes], source, error: type[Exception], header: dict, what: str
) -> Iterator[tuple[int, object]]:
    """(line number, decoded JSON value) of each record line of the
    ``what`` file ``source``, read by ``read_lines``: a first line that
    decodes to ``header``, then one record a line; blank lines are skipped.
    An empty file raises ``error`` naming ``source``; another header or a
    line that is not JSON raises one naming ``source`` and the line."""
    lines = read_lines(raw, source, error)
    _, first = next(lines, (1, None))
    if first is None:
        raise error(f"{source}: empty {what} file")
    try:
        found = json.loads(first)
    except (ValueError, RecursionError):
        found = None
    if found != header:
        raise error(f"{source}: line 1: unrecognized {what} file header")
    for lineno, line in lines:
        if not line:
            continue
        try:
            record = json.loads(line)
        except (ValueError, RecursionError) as exc:
            raise error(f"{source}: line {lineno}: bad {what} record: {exc!r}") from exc
        yield lineno, record
