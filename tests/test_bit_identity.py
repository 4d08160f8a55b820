"""The benchmark's two documents give the same bits as the per-event engine.

The digests below were taken from the per-event row engine that the batch
evaluator replaced, over the same generated file: one file of 5000 events
in 2000-entry clusters (so the last cluster is short), datagen seed 301.
A PartialResult is hashed in the version-6 RESULT layout, rebuilt from
its per-universe read-outs, with its timing and byte counters zeroed and
its snapshot list emptied (those hold wall time and temporary paths); the
skim's part file is hashed as written. The layout is rebuilt here so that
a change of the wire layout leaves the pinned digests valid.
"""

import hashlib
import os
import struct

import pytest

from colflow import datagen
from colflow.bench import default_post_document, default_pre_document
from colflow.colstore import open_dataset
from colflow.engine import SINGLE_PASS, EntryRange, run_multi_pass, run_range
from colflow.graph import build, load_spec, schema_types
from colflow.hist import Histo1D, ResultKind
from colflow.wire import pack_str

POST = "fe91c6eaf0166fd0"  # single pass and multi pass alike
POST_TRIMMED = "29a14222f162c829"  # entries [700, 4300): both ends inside a cluster
SKIM_RESULT = "4097a4d22ed6df73"
SKIM_PART = "0f274a1644921b25"


@pytest.fixture(scope="module")
def events_file(tmp_path_factory):
    out = tmp_path_factory.mktemp("bits")
    config = datagen.GenConfig(n_files=1, events_per_file=5000, cluster_size=2000, seed=301)
    manifest = datagen.load_manifest(datagen.generate(config, str(out)))
    return datagen.manifest_files(manifest)[0]


def graph_of(document, path):
    with open_dataset(path) as h:
        return build(load_spec(document), schema_types(h))


def version6_layout(partial) -> bytes:
    """The counters, the snapshot list, then per universe each result by name."""
    out = [
        struct.pack("<QdQQQI", partial.events, partial.t_loop, partial.bytes_read, partial.chunk_bytes,
                    partial.mem_peak, len(partial.snapshots)),
        *map(pack_str, partial.snapshots),
        struct.pack("<I", len(partial.universes)),
    ]
    for label, results in partial.universes.items():
        out.append(pack_str(label) + struct.pack("<I", len(results)))
        for name, r in results.items():
            out.append(pack_str(name))
            if isinstance(r, Histo1D):
                out.append(struct.pack("<BIddQ", 1, r.nbins, r.xmin, r.xmax, r.entries))
                out.append(r.sumw.astype("<f8").tobytes() + r.sumw2.astype("<f8").tobytes())
            else:
                out.append(struct.pack("<Bd", {ResultKind.COUNT: 2, ResultKind.SUM: 3}[r.kind], r.value))
    return b"".join(out)


def digest(partial) -> str:
    partial.t_loop = 0.0
    partial.bytes_read = partial.chunk_bytes = partial.mem_peak = 0
    partial.snapshots = []
    return hashlib.sha256(version6_layout(partial)).hexdigest()[:16]


def test_post_document_single_and_multi_pass(events_file):
    graph = graph_of(default_post_document([events_file]), events_file)
    assert len(graph.universes()) == 31
    whole = EntryRange(events_file, 0, 5000)
    assert digest(run_range(graph, whole, SINGLE_PASS)) == POST
    assert digest(run_multi_pass(graph, whole)) == POST
    assert digest(run_range(graph, EntryRange(events_file, 700, 4300), SINGLE_PASS)) == POST_TRIMMED


def test_skim_document_and_part_file(events_file, tmp_path):
    prefix = str(tmp_path / "skim")
    graph = graph_of(default_pre_document([events_file], prefix), events_file)
    partial = run_range(graph, EntryRange(events_file, 0, 5000), SINGLE_PASS, range_id="0")
    assert partial.snapshots == [f"{prefix}.part0.col"]
    with open(partial.snapshots[0], "rb") as f:
        part = hashlib.sha256(f.read()).hexdigest()[:16]
    assert os.path.getsize(partial.snapshots[0]) > 0
    assert digest(partial) == SKIM_RESULT
    assert part == SKIM_PART
