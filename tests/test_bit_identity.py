"""The benchmark's two documents give the same bits as the per-event engine.

The digests below were taken from the per-event row engine that the batch
evaluator replaced, over the same generated file: one file of 5000 events
in 2000-entry clusters (so the last cluster is short), datagen seed 301.
A packed PartialResult is hashed with its timing and byte counters zeroed
and its snapshot list emptied (those hold wall time and temporary paths);
the skim's part file is hashed as written.
"""

import hashlib
import os

import pytest

from colflow import datagen
from colflow.bench import default_post_document, default_pre_document
from colflow.colstore import open_dataset
from colflow.engine import SINGLE_PASS, EntryRange, run_multi_pass, run_range
from colflow.graph import build, load_spec, schema_types
from colflow.proto import pack_partial

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


def digest(partial) -> str:
    partial.t_loop = 0.0
    partial.bytes_read = partial.chunk_bytes = partial.mem_peak = 0
    partial.snapshots = []
    return hashlib.sha256(pack_partial(partial)).hexdigest()[:16]


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
