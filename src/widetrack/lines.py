"""The one reader that turns a line-based input into numbered text lines."""

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
