"""Binary wire format: primitives for serializing vectors, permutations
and protocol messages, with byte-exact size accounting.

The communication-cost numbers of Tables 3–9 are byte counts of these
encodings, so the encoding is deliberately explicit and stable (little-
endian, length-prefixed), never ``pickle``.

The search protocol lives here too, behind one table
(:mod:`repro.wire.search`): per search — k-NN, range, transformed range
— the RPC method name of its single, batch and scatter form and its one
request codec. **A single query is a batch of one**: its request is the
batch request's one row as an array and reads back as a one-row matrix,
its response reads back as one list using every row of the table
(:func:`repro.wire.scatter.read_candidate_lists`), and client, server,
router and index each run the batch code on it.
"""

from repro.wire.encoding import Reader, Writer
from repro.wire.frames import FrameAssembler, FrameHeader

__all__ = ["FrameAssembler", "FrameHeader", "Reader", "Writer"]
