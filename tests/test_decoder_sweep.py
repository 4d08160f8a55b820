"""A seeded mutation sweep over the decoders of untrusted bytes.

Deterministic stages in the style of AFL's: truncations, single bit flips,
"interesting" byte values and 4-byte windows set to boundary words, over a
real file footer and the RESULT, GRAPH and RUN_DONE frames of a small
document. Every mutant must decode, or raise the decoder's own typed
error: FormatError from `decode_footer`, ProtoError from `proto.decode`.
"""

from __future__ import annotations

import json
import random
import struct

import pytest

from colflow.colstore import FormatError, write_dataset
from colflow.colstore.format import TAIL_SIZE, decode_footer
from colflow.engine import run_local
from colflow.graph import build, load_spec
from colflow.metrics import JobRecord
from colflow.proto import Graph, ProtoError, Result, RunDone, decode, encode
from conftest import STANDARD_SCHEMA, standard_columns

SEED = 20231
TRUNCATIONS = 400
SPOTS = 256  # evenly spaced byte positions for bit flips and byte values
BYTE_VALUES = (0x00, 0x01, 0x7F, 0x80, 0xFF)
WINDOWS = 200  # seeded positions of a 4-byte window
WORDS = (0, 2**31, 2**32 - 1)


def mutants(data: bytes, rng: random.Random):
    """(what was done, mutated bytes) for every deterministic stage over data."""
    n = len(data)
    for k in sorted({n * i // TRUNCATIONS for i in range(TRUNCATIONS)}):
        yield f"truncated to {k} bytes", data[:k]
    for pos in sorted({n * i // SPOTS for i in range(SPOTS)}):
        for bit in range(8):
            m = bytearray(data)
            m[pos] ^= 1 << bit
            yield f"bit {bit} of byte {pos} flipped", bytes(m)
        for value in BYTE_VALUES:
            m = bytearray(data)
            m[pos] = value
            yield f"byte {pos} set to {value:#x}", bytes(m)
    for _ in range(WINDOWS):
        pos = rng.randrange(n - 3)
        for word in WORDS:
            m = bytearray(data)
            m[pos : pos + 4] = struct.pack("<I", word)
            yield f"bytes {pos}-{pos + 3} set to {word:#x}", bytes(m)


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    """name -> (bytes, decoder, its typed error)."""
    path = tmp_path_factory.mktemp("sweep") / "small.col"
    write_dataset(str(path), STANDARD_SCHEMA, standard_columns(60, seed=9), cluster_size=16)
    raw = path.read_bytes()
    (footer_offset,) = struct.unpack_from("<Q", raw, len(raw) - TAIL_SIZE)
    document = json.dumps({"dataset": [str(path)], "stages": [
        {"op": "vary", "column": "event_weight", "kind": "weight", "tags": ["w_up"], "exprs": ["event_weight * 1.1"]},
        {"op": "vary", "column": "MET_pt", "kind": "topology", "tags": ["met_up"], "exprs": ["MET_pt + 15.0"]},
        {"op": "define", "name": "lead_pt", "expr": "nJet > 0 ? Jet_pt[0] : 0.0"},
        {"op": "filter", "expr": "lead_pt > 25.0"},
        {"op": "histo1d", "name": "h_met", "column": "MET_pt", "weight": "event_weight",
         "nbins": 6, "xmin": 0.0, "xmax": 120.0},
        {"op": "sum", "name": "s_met", "column": "MET_pt"},
        {"op": "count", "name": "n"},
    ]})
    partial = run_local(build(load_spec(document), STANDARD_SCHEMA), [str(path)], factor=1)
    record = JobRecord(0, "w0", partial.events, 0.5, 0.25, partial.bytes_read, partial.chunk_bytes)
    return {
        "footer": (raw[footer_offset : len(raw) - TAIL_SIZE], decode_footer, FormatError),
        "GRAPH": (encode(Graph(1, document, STANDARD_SCHEMA)), decode, ProtoError),
        "RESULT": (encode(Result(0, 0.5, partial, run=1)), decode, ProtoError),
        "RUN_DONE": (encode(RunDone("run-1", 1.5, partial, (record,), planning_bytes=4096)), decode, ProtoError),
    }


@pytest.mark.parametrize("name", ["footer", "GRAPH", "RESULT", "RUN_DONE"])
def test_every_mutant_decodes_or_raises_the_typed_error(inputs, name):
    data, decoder, error = inputs[name]
    decoder(data)  # the unmutated input decodes
    count = 0
    for what, mutant in mutants(data, random.Random(f"{SEED}-{name}")):
        count += 1
        try:
            decoder(mutant)
        except error:
            pass
        except Exception as e:
            pytest.fail(f"{name}, {what}: {type(e).__name__}: {e}")
    assert count > 3000
