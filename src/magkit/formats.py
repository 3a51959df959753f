"""Characteristic-string file codecs.

Binary (.mcs):  magic "MCS1", varint p, varints n_1..n_p, then the packed
characteristic string (MSB-first, zero padding). Equal MAGs serialize to
identical bytes and the reader rejects every non-canonical stream, so byte
equality is MAG equality.

Text (.magt):   header line "mag p n_1 ... n_p", one line per present edge
"e a_1 ... a_p b_1 ... b_p" with the smaller-vertex-index endpoint first and
lines sorted by edge rank. "#" starts a comment; blank lines are ignored on
read. Writing is canonical, reading is lenient about edge order.

Both directions go through the array kernel of magkit.core, a block of
edges or a chunk of text at a time. The writer decodes each vertex once per
call into its text " c_1 ... c_p" and gathers two per edge line. The reader
checks each chunk after the header against write_magt's line form, with "\n"
or "\r\n" line ends, with one regex and parses it with one np.fromstring,
splitting nothing. Any other chunk is split into lines and tokens, which are
joined back into that form and tried the same way. A chunk still outside it
(integer spellings such as "+1" or "0_0", runs of more than 18 digits, any
syntax error) or with a bad edge is read line by line instead: valid lines
set their edges, and the first bad line raises its error.
"""

from __future__ import annotations

import re

import numpy as np

from .bitstring import BitString, decode_uvarint, encode_uvarint
from .core import (
    CompanionTuple,
    SimpleMag,
    coords_from_indices,
    edge_from_rank,
    edge_rank,
    indices_from_coords,
    pairs_from_ranks,
    ranks_from_pairs,
)
from .errors import BadMagicError, DuplicateEdgeError, MagError, ParseError

MCS_MAGIC = b"MCS1"


def write_mcs(g: SimpleMag) -> bytes:
    varints = map(encode_uvarint, (g.shape.order, *g.shape.sizes))
    return b"".join([MCS_MAGIC, *varints, g.bits.payload])


def read_mcs(data: bytes) -> SimpleMag:
    if data[:4] != MCS_MAGIC:
        raise BadMagicError(f"expected magic {MCS_MAGIC!r}")
    pos = 4
    order, pos = decode_uvarint(data, pos)
    sizes = []
    for _ in range(order):
        n, pos = decode_uvarint(data, pos)
        sizes.append(n)
    shape = CompanionTuple(sizes)
    return SimpleMag(shape, BitString.read(data, pos, shape.possible_edges))


def write_magt(g: SimpleMag) -> str:
    shape = g.shape
    parts = ["mag " + " ".join(str(n) for n in (shape.order, *shape.sizes)) + "\n"]
    # Row i is vertex i's text " c_1 ... c_p" as bytes, NUL-padded to one
    # width; the NULs are dropped from each block's lines at the end.
    tokens = np.array([f" {c}".encode() for c in range(max(shape.sizes))])
    text = tokens[coords_from_indices(shape, np.arange(shape.vertex_count))].view(np.uint8)
    for ranks in g.rank_blocks():
        pairs = np.stack(pairs_from_ranks(shape.vertex_count, ranks), axis=1)
        lines = np.empty((ranks.size, 2 * text.shape[1] + 2), dtype=np.uint8)
        lines[:, 0], lines[:, -1] = ord("e"), ord("\n")
        lines[:, 1:-1] = text[pairs].reshape(ranks.size, -1)
        parts.append(lines[lines != 0].tobytes().decode("ascii"))
    return "".join(parts)


# What str.splitlines breaks lines on: a comment ends at the first of these.
_LINE_BREAKS = "\n\r\v\f\x1c\x1d\x1e\x85\u2028\u2029"
_COMMENT = re.compile(f"#[^{_LINE_BREAKS}]*")
_BREAK = re.compile(f"\r\n|[{_LINE_BREAKS}]")
# Characters per chunk the reader splits into lines at once (about 2,000
# edge lines of order 3). Its per-line Python objects cost far more memory
# than the text they come from, so chunks stay small.
_TEXT_CHUNK = 1 << 15


def _text_chunks(text: str):
    """Consecutive pieces of text, each but the last ending in a line
    break, so that their lines are the lines of text."""
    start = 0
    while start < len(text):
        cut = _BREAK.search(text, start + _TEXT_CHUNK)
        stop = len(text) if cut is None else cut.end()
        yield text[start:stop]
        start = stop


def _ints(tokens: list[str], lineno: int) -> list[int]:
    try:
        return [int(t) for t in tokens]
    except ValueError:
        raise ParseError("expected integers", line=lineno) from None


def _header(tokens: list[str], lineno: int) -> SimpleMag:
    if tokens[0] != "mag":
        raise ParseError(f"expected 'mag' header, got {tokens[0]!r}", line=lineno)
    fields = _ints(tokens[1:], lineno)
    if not fields:
        raise ParseError("header is missing the order", line=lineno)
    order, sizes = fields[0], fields[1:]
    if len(sizes) != order:
        raise ParseError(
            f"header declares order {order} but lists {len(sizes)} sizes",
            line=lineno,
        )
    try:
        return SimpleMag(CompanionTuple(sizes))
    except MagError as exc:
        raise ParseError(str(exc), line=lineno) from exc


def _add_edges_in_bulk(g: SimpleMag, text: str) -> bool:
    """Set the edges of text in write_magt's line form in g; False, with g
    unchanged, when the text is not all in that form or does not name new
    edges."""
    p = g.shape.order
    # at most 18 digits, so that every value fits an int64
    if re.sub(f"e(?: [0-9]{{1,18}}){{{2 * p}}}(?:\r?\n|\\Z)", "", text):
        return False
    values = np.fromstring(text.replace("e", ""), dtype=np.int64, sep=" ").reshape(-1, 2, p)
    if (values >= np.array(g.shape.sizes)).any():
        return False
    idx = indices_from_coords(g.shape, values)
    a, b = idx.min(axis=1), idx.max(axis=1)
    if (a == b).any():
        return False
    ranks = np.sort(ranks_from_pairs(g.shape.vertex_count, a, b))
    if (ranks[1:] == ranks[:-1]).any() or g.bits.take(ranks).any():
        return False
    g.bits.set_many(ranks)
    return True


def _add_lines_one_by_one(g: SimpleMag, lines: list[list[str]], first_lineno: int):
    """Set the edges of tokenized lines in g in file order, raising the
    error of the first bad line."""
    p = g.shape.order
    for lineno, tokens in enumerate(lines, start=first_lineno):
        if not tokens:
            continue
        if tokens[0] != "e":
            raise ParseError(f"expected 'e' line, got {tokens[0]!r}", line=lineno)
        coords = _ints(tokens[1:], lineno)
        if len(coords) != 2 * p:
            raise ParseError(
                f"edge line has {len(coords)} coordinates, expected {2 * p}",
                line=lineno,
            )
        try:
            rank = edge_rank(g.shape, coords[:p], coords[p:])
        except MagError as exc:
            raise ParseError(str(exc), line=lineno) from exc
        if g.bits.get(rank):
            u, v = edge_from_rank(g.shape, rank)
            raise DuplicateEdgeError(f"edge {u} -- {v} repeated", line=lineno)
        g.bits.set(rank)


def read_magt(text: str) -> SimpleMag:
    g = None
    lineno = 1  # number of the first line of the current chunk
    for chunk in _text_chunks(text):
        if g is not None and _add_edges_in_bulk(g, chunk):
            lineno += chunk.count("\n")
            continue
        if "#" in chunk:
            # a space, not nothing, so that "\r#...\n" stays two line breaks
            chunk = _COMMENT.sub(" ", chunk)
        lines = list(map(str.split, chunk.splitlines()))
        if g is None and any(lines):
            first = next(i for i, tokens in enumerate(lines) if tokens)
            g = _header(lines[first], lineno + first)
            lines[first] = []  # parsed, the header line reads as blank below
        if g is not None and not _add_edges_in_bulk(
            g, "\n".join(map(" ".join, filter(None, lines)))
        ):
            _add_lines_one_by_one(g, lines, lineno)
        lineno += len(lines)
    if g is None:
        raise ParseError("no 'mag' header found")
    return g
