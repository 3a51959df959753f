"""Binary and text characteristic-string formats."""

import functools
import tracemalloc

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracles
from magkit import formats
from magkit.bitstring import encode_uvarint
from magkit.core import CompanionTuple, SimpleMag, edge_from_rank, edge_rank
from magkit.errors import (
    BadMagicError,
    DuplicateEdgeError,
    MagError,
    ParseError,
    PaddingError,
    TrailingDataError,
    TruncatedError,
)
from magkit.formats import read_magt, read_mcs, write_magt, write_mcs
from magkit.randgen import GenSpec, generate


def random_mag(sizes, seed, p=(1, 2)):
    return generate(GenSpec(CompanionTuple(sizes), p[0], p[1], seed))


def test_mcs_empty_bytes():
    g = SimpleMag(CompanionTuple((2, 1)))
    assert write_mcs(g) == b"MCS1" + bytes([2, 2, 1, 0])


def test_mcs_single_edge_byte():
    g = SimpleMag.from_edges(CompanionTuple((2, 1)), [((0, 0), (1, 0))])
    data = write_mcs(g)
    assert data[-1] == 0b1000_0000


def test_mcs_roundtrip_random():
    for seed in range(5):
        g = random_mag((8, 4), seed)
        assert read_mcs(write_mcs(g)) == g


def test_mcs_deterministic():
    g = random_mag((5, 3), 11)
    assert write_mcs(g) == write_mcs(g.copy())


def test_mcs_read_then_write_identity():
    for seed in range(3):
        data = write_mcs(random_mag((6, 5), seed))
        assert write_mcs(read_mcs(data)) == data


def test_mcs_codec_copies_the_payload_once():
    # (128, 64): the payload is (8192^2 - 8192) / 16 bytes, 4.0 MiB, so
    # 4.5 MiB allows one copy of it.
    g = random_mag((128, 64), 7)
    data = write_mcs(g)
    for call in (lambda: read_mcs(data), lambda: write_mcs(g)):
        tracemalloc.start()
        try:
            call()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 4.5 * 2**20, f"peak {peak / 2**20:.2f} MiB"


def test_mcs_bad_magic():
    with pytest.raises(BadMagicError):
        read_mcs(b"XXXX" + bytes([1, 2]))


def test_mcs_truncated_and_trailing():
    data = write_mcs(random_mag((4, 2), 3))
    with pytest.raises(TruncatedError):
        read_mcs(data[:-1])
    with pytest.raises(TrailingDataError):
        read_mcs(data + b"\x00")


def test_mcs_noncanonical_padding():
    g = SimpleMag(CompanionTuple((3,)))  # M = 3, 5 padding bits
    data = bytearray(write_mcs(g))
    data[-1] |= 0x01
    with pytest.raises(PaddingError):
        read_mcs(bytes(data))


def test_magt_empty():
    g = SimpleMag(CompanionTuple((3, 2)))
    assert write_magt(g) == "mag 2 3 2\n"
    assert read_magt("mag 2 3 2\n") == g


def test_magt_edge_line():
    g = SimpleMag.from_edges(CompanionTuple((3, 2)), [((0, 0), (1, 0))])
    assert write_magt(g) == "mag 2 3 2\ne 0 0 1 0\n"


def test_magt_roundtrip_random():
    for seed in range(4):
        g = random_mag((6, 3), seed)
        assert read_magt(write_magt(g)) == g


def test_magt_comments_blanks_and_order():
    text = """
# a comment
mag 2 3 2  # trailing comment

e 0 1 1 0   # larger-index endpoint listed first; reader normalizes
e 0 0 1 0
"""
    g = read_magt(text)
    assert g.edge_count() == 2
    assert g.has_edge((0, 0), (1, 0))
    assert g.has_edge((1, 0), (0, 1))


def test_magt_parse_errors_carry_line_numbers():
    with pytest.raises(ParseError) as info:
        read_magt("mag 2 3 2\ne 0 0\n")
    assert info.value.line == 2
    with pytest.raises(ParseError) as info:
        read_magt("mag 2 3 2\ne 0 0 x 0\n")
    assert info.value.line == 2
    with pytest.raises(ParseError):
        read_magt("mag 2 3\n")
    with pytest.raises(ParseError):
        read_magt("e 0 0 1 0\n")
    with pytest.raises(ParseError) as info:
        read_magt("mag 2 3 2\ne 0 0 5 0\n")  # coordinate out of range
    assert info.value.line == 2


def test_magt_duplicate_edge():
    text = "mag 2 3 2\ne 0 0 1 0\ne 1 0 0 0\n"
    with pytest.raises(DuplicateEdgeError) as info:
        read_magt(text)
    assert info.value.line == 3


def fuzz_corpus(alphabet="mage 0123456789#\n\t-x", seed=31337, count=500):
    """Random character mutations of one small .magt text."""
    import random

    rng = random.Random(seed)
    base = write_magt(random_mag((5, 3), 2))
    for _ in range(count):
        chars = list(base)
        for _ in range(rng.randint(1, 6)):
            pos = rng.randrange(len(chars))
            chars[pos] = rng.choice(alphabet)
        yield "".join(chars)


def test_magt_fuzz_never_crashes():
    for text in fuzz_corpus():
        try:
            read_magt(text)
        except MagError:
            pass


def test_cross_format_bit_membership():
    # bit j of the serialized payload equals membership of edge_from_rank(j)
    g = random_mag((4, 3), 17)
    data = write_mcs(g)
    header_len = 4 + len(encode_uvarint(2)) + len(encode_uvarint(4)) + len(encode_uvarint(3))
    payload = data[header_len:]
    text_edges = set()
    for line in write_magt(g).splitlines()[1:]:
        coords = tuple(int(t) for t in line.split()[1:])
        text_edges.add((coords[:2], coords[2:]))
    for j in range(g.shape.possible_edges):
        bit = bool(payload[j // 8] & (0x80 >> (j % 8)))
        assert bit == (edge_from_rank(g.shape, j) in text_edges)


# The array codec against the per-edge oracle.


def outcome(read, text):
    """What a reader makes of text: the MAG's bytes, or the error raised."""
    try:
        return "ok", write_mcs(read(text))
    except MagError as exc:
        return type(exc), str(exc), getattr(exc, "line", None)


@st.composite
def magt_cases(draw):
    order = draw(st.integers(1, 5))
    p = draw(st.sampled_from([(0, 1), (1, 8), (1, 2), (1, 1)]))
    if order == 1 and draw(st.booleans()):  # 1- to 4-digit coordinates on one line
        sizes = [draw(st.integers(1001, 1100))]
        p = (p[0], p[1] * 256)  # at most a few thousand edges, so the oracle stays quick
    else:
        sizes = [draw(st.integers(1, (60, 6, 6, 3, 2)[order - 1])) for _ in range(order)]
        if draw(st.booleans()):  # coordinates of several digits, zeros inside
            sizes[-1] = draw(st.sampled_from([10, 11, 100, 101][: 2 if order > 3 else 4]))
            sizes[:-1] = [min(n, 2) for n in sizes[:-1]]
    return generate(GenSpec(CompanionTuple(sizes), p[0], p[1], draw(st.integers(0, 2**32))))


@settings(max_examples=50, deadline=None)
@given(magt_cases())
@example(SimpleMag(CompanionTuple((1,))))
@example(SimpleMag(CompanionTuple((5, 3))))
@example(random_mag((2,) * 5, 0, p=(1, 1)))
def test_write_magt_matches_oracle(g):
    text = write_magt(g)
    assert text == oracles.write_magt(g)
    assert list(g.edges()) == oracles.edges(g)
    assert read_magt(text) == g


@pytest.mark.parametrize("chunk", [None, 1, 40])
def test_read_magt_matches_oracle_on_fuzz_corpus(chunk, monkeypatch):
    if chunk:  # many chunks per text, cut at every line or every few
        monkeypatch.setattr(formats, "_TEXT_CHUNK", chunk)
    for text in fuzz_corpus():
        assert outcome(read_magt, text) == outcome(oracles.read_magt, text)
    # other line breaks, integer spellings and non-ASCII whitespace
    for text in fuzz_corpus("mage 0123456789#\n\r\x0c+_\xa0\u0663-x", seed=5, count=1000):
        assert outcome(read_magt, text) == outcome(oracles.read_magt, text)


@functools.cache
def chunk_texts():
    """Texts of about 8,000 edge lines, read in several chunks: name ->
    (text, whether it is valid)."""
    g = random_mag((8, 8, 4), 3, p=(1, 4))
    g.bits.set(edge_rank(g.shape, (1, 0, 0), (3, 0, 0)), False)
    text = write_magt(g)
    lines = text.splitlines(keepends=True)
    late = len(lines) - 5
    u = lines[late].split()[1:]
    mirrored = "e " + " ".join(u[3:] + u[:3]) + "\n"
    mid = text.count("\n", 0, 3 * formats._TEXT_CHUNK // 2)  # inside the second chunk
    crlf = [line.replace("\n", "\r\n") for line in lines]
    return {
        "plain": (text, True),
        "no final line break": (text.rstrip("\n"), True),
        "CRLF and comments": ("".join(
            line.rstrip("\n") + (" # c\r\n" if i % 3 else "\r\n")
            + "# only a comment\r\n" * (i % 7 == 0)
            for i, line in enumerate(lines)), True),
        "CR only": (text.replace("\n", "\r"), True),
        "CR only and comments": (text.replace("\n", " # c\r"), True),
        "comment lines after CR": (text.replace("\n", "\r# c\n") + "e 0 0 0 8 0 0\n", False),
        "other line breaks": (
            text.replace("\n", "\x0c", 3).replace("\n", "\u2028", 3), True),
        "non-ASCII comments and spaces": ("".join(
            line.replace(" ", "\xa0", 1).rstrip("\n") + " # caf\xe9\n" for line in lines),
            True),
        "header after a chunk of comments": ("# pad\n" * 8000 + "\n \n" + text, True),
        "integer spellings in a later chunk": (text + "e +1 0_0 00 \u0663 0 -0\n", True),
        "coordinate past 18 digits": (text + "e 1 0 0 0000000000000000003 0 0\n", True),
        "comments only": ("# nothing\n" * 12000, False),
        "duplicate across chunks": ("".join(lines[:late] + [lines[2]] + lines[late:]), False),
        "mirrored duplicate across chunks": (
            "".join(lines[:20] + [mirrored] + lines[20:]), False),
        "bad token in a later chunk": ("".join(
            lines[:late] + [lines[late].replace(" ", " x", 1)] + lines[late + 1:]), False),
        "first of two errors": ("".join(
            lines[:late] + ["e 0 0 0 0 0 0\n"] + lines[late:-1] + ["e 1\n"]), False),
        "range error in a later chunk": (text + "e 0 0 0 8 0 0\n", False),
        "range error inside a chunk before the last": (
            "".join(lines[:mid] + ["e 0 0 0 8 0 0\n"] + lines[mid:]), False),
        "duplicate inside one chunk": (
            "".join(lines[:mid] + [lines[mid - 1]] + lines[mid:]), False),
        "blank line in a later chunk": ("".join(lines[:mid] + ["\n"] + lines[mid:]), True),
        "CRLF and a range error in a later chunk": (
            text.replace("\n", "\r\n") + "e 0 0 0 8 0 0\r\n", False),
        "CRLF": ("".join(crlf), True),
        "CRLF and a range error inside a chunk before the last": (
            "".join(crlf[:mid] + ["e 0 0 0 8 0 0\r\n"] + crlf[mid:]), False),
        "CRLF and a duplicate inside one chunk": (
            "".join(crlf[:mid] + [crlf[mid - 1]] + crlf[mid:]), False),
        "CRLF and a bad token in a later chunk": ("".join(
            crlf[:late] + [crlf[late].replace(" ", " x", 1)] + crlf[late + 1:]), False),
        "CRLF and a lone CR in a later chunk": (
            "".join(crlf[:late] + [lines[late].replace("\n", "\r")] + crlf[late + 1:]), True),
        "huge coordinate": (text + "e 0 0 0 99999999999999999999 0 0\n", False),
        "negative coordinate": (text + "e 0 0 0 -1 0 0\n", False),
        "second header": ("".join(lines[:late] + ["mag 3 8 8 4\n"] + lines[late:]), False),
        "joined lines": (text.replace("\n", " ", 3), False),
    }


@pytest.mark.parametrize("name", list(chunk_texts()))
def test_read_magt_matches_oracle_across_chunks(name):
    text, valid = chunk_texts()[name]
    assert len(text) > 3 * formats._TEXT_CHUNK
    result = outcome(read_magt, text)
    assert result == outcome(oracles.read_magt, text)
    assert (result[0] == "ok") == valid


def test_line_breaks_are_those_of_splitlines():
    breaks = [chr(c) for c in range(0x110000) if len(f"a{chr(c)}b".splitlines()) == 2]
    assert sorted(breaks) == sorted(formats._LINE_BREAKS)


@pytest.mark.parametrize("name", [
    "plain", "no final line break", "CRLF and comments", "CR only", "CR only and comments",
    "other line breaks", "non-ASCII comments and spaces", "header after a chunk of comments",
    "blank line in a later chunk", "CRLF", "CRLF and a lone CR in a later chunk"])
def test_lenient_text_is_read_in_bulk(name, monkeypatch):
    def one_by_one(*args):
        raise AssertionError("a chunk was read line by line")

    monkeypatch.setattr(formats, "_add_lines_one_by_one", one_by_one)
    text, _ = chunk_texts()[name]
    assert outcome(read_magt, text) == outcome(oracles.read_magt, text)


def test_chunks_end_at_every_line_break():
    def peak(text):
        tracemalloc.start()
        try:
            read_magt(text)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    text, _ = chunk_texts()["plain"]
    canonical = peak(text)
    for line_break in "\r", "\u2028", "\x85":
        # the line path holds each chunk's lines and tokens; canonical chunks hold neither
        assert canonical < peak(text.replace("\n", line_break)) < 2 * canonical


def test_canonical_chunks_are_never_split(monkeypatch):
    split = []

    class Chunk(str):
        def splitlines(self, *args):
            split.append(self)
            return super().splitlines(*args)

    text_chunks = formats._text_chunks
    monkeypatch.setattr(formats, "_text_chunks", lambda text: map(Chunk, text_chunks(text)))
    text, _ = chunk_texts()["plain"]
    for name in "plain", "CRLF":  # as written, and as a Windows editor saves it
        split.clear()
        assert write_magt(read_magt(chunk_texts()[name][0])) == text
        assert [chunk.split(maxsplit=1)[0] for chunk in split] == ["mag"]
