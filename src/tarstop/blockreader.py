"""The block reader: a chunk of run or qrels lines read with numpy.

A chunk is the bytes of whole lines, each ended by ``\\n`` (the last line
of a file may have no end).  ``read_block`` takes a chunk only when it can
prove it simple: printable ASCII with space, tab and newline as the only
whitespace, and on every non-blank line the format's number of fields (6
for a run, 4 for qrels).  A run's ranks must be 1 to 16 digits from 1 up,
and its scores at most 16 characters of the form ``-?digits.digits``,
where either side of the point may be empty and the point may be left
out.  A qrels label must be ``-?digits`` in at most 16 characters.  A
minus is a sign only as a number's first character: the number is read
one character shorter and negated, and a minus anywhere else is no digit.
For any other chunk it returns None, and ``ingest`` reads the chunk with
its per-line reader, which gives the same rows.

It finds the tokens with numpy and reads 8 bytes of a token at a time, as
64-bit words read at any byte offset of the chunk: left-aligned at a
token's start for ids and topics (read big-endian), and right-aligned at
its end for numbers (read little-endian, so that the token's last
character is the top byte).
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

# The block reader reads numbers of at most 16 characters.  A score with a
# point then has at most 15 digits, so its mantissa and the power of ten
# it is divided by are exact floats and the quotient is float()'s
# correctly rounded value; without a point it divides by 1.
_MAX_NUMBER = 16
_POW10 = 10 ** np.arange(_MAX_NUMBER + 1, dtype=np.int64)

# Masks of a 64-bit word's top k bytes, for k = 0..8.
_TOP_BYTES = np.array(
    [0, *(((1 << 8 * k) - 1) << (64 - 8 * k) for k in range(1, 9))], dtype=np.uint64
)
# 0x01 in every byte: times a word of 0/1 bytes, its top byte is their sum.
_EACH = np.uint64(0x0101010101010101)
_LOW7 = np.uint64(0x7F7F7F7F7F7F7F7F)
_HIGH1 = np.uint64(0x8080808080808080)
_ZEROS = np.uint64(0x3030303030303030)  # eight '0' characters
# (shift, scale, lanes) of the three steps that join eight digits into one
# number: 2-digit numbers in 16-bit lanes, then 4-digit ones in 32-bit
# lanes, then the 8-digit one.
_JOIN_DIGITS = [
    (np.uint64(8 * w), np.uint64(10**w), np.uint64(lanes))
    for w, lanes in ((1, 0x00FF00FF00FF00FF), (2, 0x0000FFFF0000FFFF), (4, 0xFFFFFFFF))
]
# Byte i holds i + 1: times a word whose one 0x01 byte is byte b, its top
# byte is 8 - b.
_BYTE_INDEX = np.uint64(0x0807060504030201)


class Rows(NamedTuple):
    """The rows of one chunk of run or qrels lines, as both readers hand them on."""

    topics: list[str]  # the topic of each stretch of rows with one topic
    topic_ends: list[int]  # the row after each such stretch
    # Each row's doc id as 64-bit words: its UTF-8 bytes, read big-endian
    # and NUL-padded, so that words order as the ids do (an id holds no
    # NUL: the per-line reader refuses one, and a simple chunk has none).
    id_words: np.ndarray
    # A run's ranks (int64) and scores (float64); the qrels' labels (int64).
    values: tuple[np.ndarray, ...]
    run_tag: str | None  # a run's first row's; None for qrels
    newlines: int  # the line ends in the chunk


def _top_bytes(count: np.ndarray) -> np.ndarray:
    """Masks of each word's top ``count`` bytes, clipped to 0..8."""
    return _TOP_BYTES[np.minimum(np.maximum(count, 0), 8)]


def _left_words(
    words: np.ndarray, starts: np.ndarray, lengths: np.ndarray
) -> np.ndarray:
    """Tokens as rows of words read big-endian, NUL-padded."""
    count = -(-int(lengths.max()) // 8)
    columns = [
        words[starts + 8 * i].byteswap() & _top_bytes(lengths - 8 * i)
        for i in range(count)
    ]
    return np.stack(columns, axis=1)


def _right_words(
    words: np.ndarray, ends: np.ndarray, lengths: np.ndarray
) -> list[np.ndarray]:
    """Tokens as words read little-endian, last word first, padded with '0's."""
    columns = []
    for i in range(-(-int(lengths.max()) // 8)):
        keep = _top_bytes(lengths - 8 * i)
        columns.append(words[ends - 8 * (i + 1)] & keep | _ZEROS & ~keep)
    return columns


def _digit_value(word: np.ndarray) -> np.ndarray | None:
    """Eight digit characters, the first in the low byte, as an integer, or None."""
    if np.any(((word + np.uint64(0x4646464646464646)) | (word - _ZEROS)) & _HIGH1):
        return None
    # Join neighbouring digits into 2-, 4- and then 8-digit numbers.
    value = word - _ZEROS
    for shift, scale, lanes in _JOIN_DIGITS:
        value = (value * scale + (value >> shift)) & lanes
    return value


def _digits(columns: list[np.ndarray]) -> np.ndarray | None:
    """The digits of right-aligned words as one integer (int64), or None."""
    number = np.zeros(len(columns[0]), dtype=np.int64)
    for i, word in enumerate(columns):
        value = _digit_value(word)
        if value is None:
            return None
        number += value.astype(np.int64) * _POW10[8 * i]
    return number


def _take_byte(columns: list[np.ndarray], byte: int) -> tuple[np.ndarray, np.ndarray]:
    """Replace the characters ``byte`` in right-aligned words with '0'.

    It serves a number's point, the one character other than a digit that
    a number may hold past its first.  Returns how many there were in each
    token, and for a token with one, how many characters follow it.
    """
    count = np.zeros(len(columns[0]), dtype=np.int64)
    after = np.zeros(len(columns[0]), dtype=np.int64)
    for i, word in enumerate(columns):
        other = word ^ _EACH * np.uint64(byte)
        # 0x01 in each byte equal to ``byte``, 0 elsewhere.
        found = ~((other & _LOW7) + _LOW7 | other | _LOW7) >> np.uint64(7)
        word ^= found * np.uint64(byte ^ 0x30)
        count += ((found * _EACH) >> np.uint64(56)).astype(np.int64)
        top = ((found * _BYTE_INDEX) >> np.uint64(56)).astype(np.int64)
        after += np.where(top > 0, 8 * i + top - 1, 0)
    return count, after


def _number(
    words: np.ndarray, ends: np.ndarray, lengths: np.ndarray, point: bool
) -> np.ndarray | None:
    """Tokens ``D*.?D*`` with at least one digit (float64), or None.

    Without ``point``, tokens ``D+`` (int64).
    """
    if lengths.min() < 1:
        return None
    columns = _right_words(words, ends, lengths)
    points, frac = _take_byte(columns, ord(".")) if point else (0, 0)
    if np.max(points) > 1 or np.any(lengths - points < 1):
        return None
    whole = _digits(columns)
    if whole is None or not point:
        return whole
    # Split the digits around the point.
    high, low = np.divmod(whole, _POW10[frac + 1])
    mantissa = np.where(points > 0, high * _POW10[frac] + low, whole)
    return mantissa / _POW10[frac]


def _values(
    words: np.ndarray, starts: np.ndarray, ends: np.ndarray, point: bool, signs: bool
) -> np.ndarray | None:
    """``_number``s, each perhaps led by a minus when ``signs`` is set, or None."""
    lengths = ends - starts
    if not signs:
        return _number(words, ends, lengths, point)
    # A token's first byte, the low one of the word read at its start, may
    # be a minus, its sign; a minus anywhere else is no digit.
    negative = (words[starts] & np.uint64(0xFF)) == ord("-")
    number = _number(words, ends, lengths - negative, point)
    if number is not None:
        np.negative(number, out=number, where=negative)
    return number


def _tokens(chunk: bytes, fields: int):
    """The bytes and words of a simple chunk, and its tokens' starts and ends.

    Starts and ends are rows of ``fields``, one row a line, or the result
    is None when the chunk is not simple.  The chunk is padded with spaces
    as long as its longest line and 16 more, so that every word read around
    a token lies inside it; starts and ends count in the padded bytes.
    """
    data = np.frombuffer(chunk, dtype=np.uint8)
    newlines = np.flatnonzero(data == 10)
    # Printable ASCII, tab and newline only.
    if not len(data) or data.max() > 126:
        return None
    if np.count_nonzero(data < 32) != len(newlines) + np.count_nonzero(data == 9):
        return None
    pad = int(np.diff(newlines, prepend=-1, append=len(chunk)).max()) + 16
    raw = b" " * pad + chunk + b" " * pad
    word = np.frombuffer(raw, dtype=np.uint8) > 32
    edges = np.flatnonzero(word[1:] ^ word[:-1])
    del word
    edges += 1
    if not len(edges) or len(edges) % (2 * fields):
        return None
    starts, ends = edges[::2].reshape(-1, fields), edges[1::2].reshape(-1, fields)
    # Each row of tokens ends by the end of the line it starts on, and the
    # next row starts after it.  Without blank lines, row i is on line i.
    ends_at = np.append(newlines + pad, len(raw))
    line = np.arange(len(starts))
    if len(starts) - len(newlines) not in (0, 1):
        line = np.searchsorted(ends_at, starts[:, 0])
    if np.any(ends[:, -1] > ends_at[line]) or np.any(starts[1:, 0] <= ends_at[line[:-1]]):
        return None
    words = np.ndarray((len(raw) - 7,), dtype="<u8", buffer=raw, strides=(1,))
    return raw, words, starts, ends, len(newlines)


def read_block(chunk: bytes, fields: int) -> Rows | None:
    """A chunk's rows, ``fields`` 6 for a run and 4 for qrels; None unless simple."""
    tokens = _tokens(chunk, fields)
    if tokens is None:
        return None
    raw, words, starts, ends, newlines = tokens
    sizes = ends - starts
    if sizes[:, 3:5].max() > _MAX_NUMBER:  # ranks and scores, or labels
        return None
    signs = b"-" in chunk  # else no token is looked at for a minus
    if fields == 6:
        ranks = _number(words, ends[:, 3], sizes[:, 3], False)
        if ranks is None or ranks.min() < 1:
            return None
        scores = _values(words, starts[:, 4], ends[:, 4], True, signs)
        values = None if scores is None else (ranks, scores)
    else:
        labels = _values(words, starts[:, 3], ends[:, 3], False, signs)
        values = None if labels is None else (labels,)
    if values is None:
        return None
    topic = _left_words(words, starts[:, 0], sizes[:, 0])
    changes = np.flatnonzero(np.any(topic[1:] != topic[:-1], axis=1)) + 1
    firsts = [0, *changes.tolist()]
    return Rows(
        topics=[raw[starts[row, 0] : ends[row, 0]].decode() for row in firsts],
        topic_ends=[*firsts[1:], len(starts)],
        id_words=_left_words(words, starts[:, 2], sizes[:, 2]),
        values=values,
        run_tag=raw[starts[0, 5] : ends[0, 5]].decode() if fields == 6 else None,
        newlines=newlines,
    )
