"""The block reader of run files: a block of lines read with numpy.

``read_block`` takes a block only when it can prove the block simple:
printable ASCII with space, tab and newline as the only whitespace, six
fields on every non-blank line, ranks of 1 to 16 digits from 1 up, and
scores of at most 16 characters of the form ``-?digits.digits``, where
either side of the point may be empty and the point may be left out.  For
any other block it returns None, and ``ingest.parse_run`` reads the block
with its per-line reader, which gives the same rows.

It finds the tokens with numpy and reads 8 bytes of a token at a time, as
64-bit words read at any byte offset of the block: left-aligned at a
token's start for ids and topics (read big-endian), and right-aligned at
its end for numbers (read little-endian, so that the token's last
character is the top byte).
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

# The bytes of a simple block: printable ASCII, tab and newline.
_SIMPLE_BYTES = bytes(range(0x20, 0x7F)) + b"\t\n"

# The block reader reads ranks and scores of at most 16 characters.  A
# score with a point then has at most 15 digits, so its mantissa and the
# power of ten it is divided by are exact floats and the quotient is
# float()'s correctly rounded value; without a point it divides by 1.
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
    """The rows of one block of run lines, as both readers hand them on."""

    topics: list[str]  # the topic of each stretch of rows with one topic
    topic_ends: list[int]  # the row after each such stretch
    # Each row's doc id as 64-bit words: its UTF-8 bytes, read big-endian
    # and NUL-padded, so that words order as the ids do (the per-line
    # reader first escapes NUL and 01, which a simple block never holds).
    id_words: np.ndarray
    ranks: np.ndarray  # int64
    scores: np.ndarray  # float64
    run_tag: str  # the first row's


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


def _number(columns: list[np.ndarray]) -> np.ndarray | None:
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

    Returns how many there were in each token, and for a token with one,
    how many characters follow it.
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


def _ranks(
    words: np.ndarray, ends: np.ndarray, lengths: np.ndarray
) -> np.ndarray | None:
    """Digit-only ranks from 1 up, or None."""
    ranks = _number(_right_words(words, ends, lengths))
    return None if ranks is None or ranks.min() < 1 else ranks


def _scores(
    words: np.ndarray, ends: np.ndarray, lengths: np.ndarray
) -> np.ndarray | None:
    """Scores ``-?D*.?D*`` with at least one digit, or None."""
    columns = _right_words(words, ends, lengths)
    points, frac = _take_byte(columns, ord("."))
    minus, after = _take_byte(columns, ord("-"))
    negative = minus > 0
    if (
        points.max() > 1
        or np.any(minus[negative] > 1)
        or np.any(after[negative] != lengths[negative] - 1)  # a leading minus only
        or np.any(lengths - points - minus < 1)
    ):
        return None
    # The digits, with the point read as a 0: split around it.
    whole = _number(columns)
    if whole is None:
        return None
    high, low = np.divmod(whole, _POW10[frac + 1])
    mantissa = np.where(points > 0, high * _POW10[frac] + low, whole)
    scores = mantissa / _POW10[frac]
    np.negative(scores, out=scores, where=negative)
    return scores


def read_block(block: list[str]) -> Rows | None:
    """A block's rows, or None unless the block is simple."""
    lengths = np.fromiter(map(len, block), dtype=np.intp, count=len(block))
    # Whitespace padding, so that every token has whitespace on both sides
    # and every word read around a token lies inside the text.
    pad = " " * (int(lengths.max()) + 16)
    text = "\n".join([pad, *block, pad])
    if not text.isascii():
        return None
    raw = text.encode()
    del text
    if raw.translate(None, _SIMPLE_BYTES):
        return None
    word = np.frombuffer(raw, dtype=np.uint8) > 32
    edges = np.flatnonzero(word[1:] ^ word[:-1])
    del word
    edges += 1
    starts, ends = edges[::2], edges[1::2]
    # Tokens on each line, which starts after the padding and the lines before.
    before = np.searchsorted(starts, len(pad) + np.cumsum(lengths + 1) - lengths)
    counts = np.diff(before, append=len(starts))
    if not len(starts) or counts.max() > 6:
        return None
    if 6 * np.count_nonzero(counts) != len(starts):
        return None
    starts, ends = starts.reshape(-1, 6), ends.reshape(-1, 6)
    sizes = ends - starts
    if sizes[:, 3:5].max() > _MAX_NUMBER:
        return None
    words = np.ndarray((len(raw) - 7,), dtype="<u8", buffer=raw, strides=(1,))
    ranks = _ranks(words, ends[:, 3], sizes[:, 3])
    scores = None if ranks is None else _scores(words, ends[:, 4], sizes[:, 4])
    if scores is None:
        return None
    topic = _left_words(words, starts[:, 0], sizes[:, 0])
    changes = np.flatnonzero(np.any(topic[1:] != topic[:-1], axis=1)) + 1
    firsts = [0, *changes.tolist()]
    return Rows(
        topics=[raw[starts[row, 0] : ends[row, 0]].decode() for row in firsts],
        topic_ends=[*firsts[1:], len(ranks)],
        id_words=_left_words(words, starts[:, 2], sizes[:, 2]),
        ranks=ranks,
        scores=scores,
        run_tag=raw[starts[0, 5] : ends[0, 5]].decode(),
    )
