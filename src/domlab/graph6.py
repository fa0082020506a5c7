"""graph6 encoding and decoding (short form, order <= 62) plus .g6 file IO.

Layout: one byte ``63 + n`` for the order, then the upper triangle of the
adjacency matrix in column-major order (bits x(0,1), x(0,2), x(1,2),
x(0,3), ...), packed big-endian into 6-bit groups, zero padded, each group
stored as ``63 + value``.  Files are newline-separated graph6 lines; an
optional ``>>graph6<<`` header is tolerated.
"""

from __future__ import annotations

import os
import uuid
from pathlib import Path
from typing import Iterable

from .graphs import MAX_ORDER, Graph

HEADER = ">>graph6<<"


class Graph6Error(ValueError):
    """Raised for malformed graph6 input."""


def parse_graph6(text: str) -> Graph:
    """Decode one graph6 line (optionally prefixed by the format header)."""
    line = text.strip()
    if line.startswith(HEADER):
        line = line[len(HEADER):]
    if not line:
        raise Graph6Error("empty graph6 line")
    for ch in line:
        if not 63 <= ord(ch) <= 126:
            raise Graph6Error(f"character {ch!r} outside graph6 range 63..126")
    if ord(line[0]) == 126:
        raise Graph6Error(f"order > {MAX_ORDER} (long-form graph6 not supported)")
    n = ord(line[0]) - 63
    if n < 1:
        raise Graph6Error("graph6 order must be at least 1")
    nbits = n * (n - 1) // 2
    nchars = (nbits + 5) // 6
    body = line[1:]
    if len(body) < nchars:
        raise Graph6Error("truncated edge-bit section")
    if len(body) > nchars:
        raise Graph6Error("trailing characters after edge-bit section")
    bits = 0
    for ch in body:
        bits = bits << 6 | (ord(ch) - 63)
    pad = nchars * 6 - nbits
    if bits & ((1 << pad) - 1):
        raise Graph6Error("nonzero padding in edge-bit section")
    bits >>= pad
    adj = [0] * n
    k = nbits - 1
    for j in range(1, n):
        for i in range(j):
            if bits >> k & 1:
                adj[i] |= 1 << j
                adj[j] |= 1 << i
            k -= 1
    return Graph._raw(n, tuple(adj))


def to_graph6(g: Graph) -> str:
    """Encode a graph as one graph6 line (no header, no newline)."""
    out = [chr(63 + g.n)]
    bits = 0
    nbits = 0
    for j in range(1, g.n):
        col = g.adj[j]
        for i in range(j):
            bits = bits << 1 | (col >> i & 1)
            nbits += 1
            if nbits == 6:
                out.append(chr(63 + bits))
                bits = nbits = 0
    if nbits:
        out.append(chr(63 + (bits << (6 - nbits))))
    return "".join(out)


def load_graph6_file(path: str | Path) -> list[Graph]:
    """Read every graph from a newline-separated .g6 file."""
    graphs = []
    with open(path, "r", encoding="ascii") as fh:
        for raw in fh:
            line = raw.strip()
            if not line or line == HEADER:
                continue
            graphs.append(parse_graph6(line))
    return graphs


def save_graph6_file(path: str | Path, graphs: Iterable[Graph]) -> None:
    """Write graphs to a .g6 file atomically (write temp, then rename), with
    the mode ``open`` would give it under the umask (not mkstemp's 0600)."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(f".{path.name}.{uuid.uuid4().hex}.tmp")
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with os.fdopen(fd, "w", encoding="ascii") as fh:
            for g in graphs:
                fh.write(to_graph6(g))
                fh.write("\n")
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise
