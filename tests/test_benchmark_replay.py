"""Smoke test of the benchmark's traced replay against the current program.

The replay (benchmark/replay.py) imports and patches engine names
(`run_range`, `run_multi_pass`, `open_dataset`, ...) and calls the planner
and the legacy job plan directly; this runs it in process over a small
local dataset, so a renamed or re-shaped entry point fails here first.
The harness and the numpy reference are imported too (neither does work
at import), so a name they import from colflow that is renamed or removed
fails here as well.
"""

from __future__ import annotations

import json
import os
import sys

sys.path.append(os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "benchmark"))

import harness  # noqa: E402, F401
import reference  # noqa: E402, F401
import replay  # noqa: E402

from colflow.colstore import open_dataset  # noqa: E402
from colflow.engine import run_local  # noqa: E402
from colflow.graph import build, load_spec, schema_types  # noqa: E402


def post_document(files):
    """Two topology and two weight variations, small-integer weights."""
    stages = [
        {"op": "vary", "column": "Jet_pt", "kind": "topology",
         "tags": ["jes_up", "jes_down"], "exprs": ["Jet_pt * 1.05", "Jet_pt * 0.95"]},
        {"op": "define", "name": "w", "expr": "nJet + 1"},
        {"op": "vary", "column": "w", "kind": "weight",
         "tags": ["w_up", "w_down"], "exprs": ["w * 2", "w * 3"]},
        {"op": "define", "name": "ht", "expr": "sum(Jet_pt)"},
        {"op": "filter", "expr": "nJet >= 1"},
        {"op": "histo1d", "name": "h_ht", "column": "ht", "weight": "w",
         "nbins": 25, "xmin": 0.0, "xmax": 800.0},
        {"op": "count", "name": "n"},
    ]
    return json.dumps({"dataset": files, "stages": stages})


def test_replay_matches_run_local(make_dataset, tmp_path):
    files = [make_dataset(n=150, seed=s, name=f"f{s}.col") for s in (1, 2)]
    document = post_document(files)
    with open_dataset(files[0]) as h:
        graph = build(load_spec(document), schema_types(h))
    want = run_local(graph, files)
    assert want.events == 300

    for legacy in (False, True):
        tracer = replay.Tracer(True)
        with tracer.installed():
            merged, _ = replay.replay(tracer, legacy, document, 1, 3, str(tmp_path / "jobs"))
        for u in graph.universes():
            assert merged.universes[u] == want.universes[u], (legacy, u)
        passes = 1 + len(graph.topology_tags()) if legacy else 1
        assert tracer.counts["event_visits"] == passes * want.events, legacy
        assert {s["name"] for s in tracer.spans} >= {"engine.run_range", "colstore.open"}
