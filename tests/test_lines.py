"""``read_lines``, the one reader that turns a line-based input into
numbered text lines."""

import io

import pytest
from hypothesis import given, settings, strategies as st

from widetrack.lines import read_lines


class Refused(ValueError):
    """A reader's own exception class."""


def lines_of(data, source="f.txt"):
    return list(read_lines(io.BytesIO(data), source, Refused))


def test_lines_end_at_newline_only_and_drop_one_final_cr():
    data = "a\r\n\nb\x0cc d\x85e\rf\r\r\ng\r".encode()
    assert lines_of(data) == [
        (1, "a"), (2, ""), (3, "b\x0cc d\x85e\rf\r"), (4, "g"),
    ]


def test_no_line_after_a_final_newline():
    assert lines_of(b"") == []
    assert lines_of(b"\n") == [(1, "")]
    assert lines_of(b"a\nb") == lines_of(b"a\nb\n") == [(1, "a"), (2, "b")]


@pytest.mark.parametrize(
    "data, lineno, byte",
    [
        (b"\xff", 1, 0xFF),
        (b"ok\n\nbad \xfe\n", 3, 0xFE),
        ("ok \n".encode() + b"cut \xe2\x80\n", 2, 0xE2),  # a cut character
        (b"a\r\nb\r\n\xc0\xafc\r\n", 3, 0xC0),  # an overlong "/"
    ],
)
def test_byte_that_is_not_utf8_raises_the_callers_class_naming_file_and_line(data, lineno, byte):
    with pytest.raises(Refused) as err:
        lines_of(data, "dir/f.txt")
    assert str(err.value) == f"dir/f.txt: line {lineno}: byte {byte:#04x} is not UTF-8"


def test_lines_before_a_bad_byte_are_yielded_first():
    lines = read_lines(io.BytesIO(b"a\nb\n\xff\n"), "f", Refused)
    assert next(lines) == (1, "a") and next(lines) == (2, "b")
    with pytest.raises(Refused, match="^f: line 3: "):
        next(lines)


@settings(max_examples=300, deadline=None)
@given(
    st.lists(st.text(st.characters(blacklist_characters="\n", blacklist_categories=("Cs",)))),
    st.booleans(),
)
def test_reads_as_a_split_at_newline_less_one_final_cr(texts, final_newline):
    """The reference is the split the table and config readers made before
    ``read_lines``; a CRLF file reads as its LF twin."""
    read = {}
    for end in ("\n", "\r\n"):
        data = end.join(texts) + (end if final_newline else "")
        chunks = data.split("\n")
        if chunks[-1] == "":
            chunks.pop()
        read[end] = lines_of(data.encode())
        assert read[end] == [(n, c.removesuffix("\r")) for n, c in enumerate(chunks, 1)]
    if not any(t.endswith("\r") for t in texts):
        assert read["\r\n"] == read["\n"]
