"""The benchmark's inputs: dataset make-up and the two pipeline documents.

Both documents are generated from the tables below, and the numpy
reference (reference.py) reads the same tables, so the program and the
reference agree on what is asked without either reading the other's code.
"""

from __future__ import annotations

import json

# Dataset make-up. One seed (the --seed argument) drives datagen; the
# raw files are 10k-entry clusters, so planning has 20 clusters to split.
N_FILES = 4
EVENTS_PER_FILE = 50_000
CLUSTER_SIZE = 10_000

# Facility: one worker with one slot, and the partition factor of every
# new-mode run. On a 2-vCPU host a second worker would share the CPUs with
# the data server, the scheduler and this client, and each run would wait
# on the slower of two contended workers: run-to-run spread, not the program.
N_WORKERS = 1
SLOTS = 1
FACTOR = 3

# --- skim: the preselection that makes the postselection input ---------------

SKIM_MET_MIN = 96.0  # MET_pt > 96.0 keeps roughly 5% of generated events
SKIM_NJET_MIN = 2  # nJet >= 2
SKIM_COLUMNS = ("event_weight", "MET_pt", "nJet", "Jet_pt")
SKIM_HIST = ("h_met_skim", "MET_pt", 50, 0.0, 500.0)  # name, column, nbins, lo, hi
SKIM_COUNT = "n_selected"

# --- post: 8 topology + 22 weight variations, 31 universes --------------------

# (tag, column, operator, operand): the varied column is `column op operand`
TOPOLOGY = (
    ("jes_up", "Jet_pt", "*", 1.05),
    ("jes_down", "Jet_pt", "*", 0.95),
    ("jer_up", "Jet_pt", "*", 1.02),
    ("jer_down", "Jet_pt", "*", 0.98),
    ("met_jes_up", "MET_pt", "*", 1.03),
    ("met_jes_down", "MET_pt", "*", 0.97),
    ("met_unclust_up", "MET_pt", "+", 5.0),
    ("met_unclust_down", "MET_pt", "-", 5.0),
)
# (tag, factor): the event weight of universe `tag` is event_weight * factor
WEIGHTS = tuple(
    (f"w{k}_{side}", round(1.0 + sign * (k + 1) / 100.0, 2))
    for k in range(11)
    for side, sign in (("up", 1), ("down", -1))
)
LEAD_PT_MIN = 25.0  # filter: lead_pt > 25.0
# name, column, nbins, lo, hi; every histogram is weighted by event_weight
POST_HISTS = (
    ("h_ht", "ht", 50, 0.0, 1500.0),
    ("h_lead_pt", "lead_pt", 50, 0.0, 500.0),
    ("h_met", "MET_pt", 50, 0.0, 500.0),
)
POST_COUNT = "n_events"

# the baseline reads its input once for nominal and once per topology tag
LEGACY_PASSES = 1 + len(TOPOLOGY)


def skim_document(files: list[str], out_prefix: str) -> str:
    """One cut, one histogram, one count and a 4-column snapshot."""
    name, column, nbins, lo, hi = SKIM_HIST
    stages = [
        {"op": "filter", "expr": f"MET_pt > {SKIM_MET_MIN!r} && nJet >= {SKIM_NJET_MIN}"},
        {"op": "histo1d", "name": name, "column": column, "weight": "event_weight",
         "nbins": nbins, "xmin": lo, "xmax": hi},
        {"op": "count", "name": SKIM_COUNT},
        {"op": "snapshot", "columns": list(SKIM_COLUMNS), "out": out_prefix},
    ]
    return json.dumps({"dataset": list(files), "stages": stages})


def post_document(files: list[str]) -> str:
    """30 variations, two defines, one cut, three histograms and a count."""
    stages = []
    for column in ("Jet_pt", "MET_pt"):
        rows = [t for t in TOPOLOGY if t[1] == column]
        stages.append({
            "op": "vary", "column": column, "kind": "topology",
            "tags": [tag for tag, _, _, _ in rows],
            "exprs": [f"{column} {op} {value!r}" for _, _, op, value in rows],
        })
    stages.append({
        "op": "vary", "column": "event_weight", "kind": "weight",
        "tags": [tag for tag, _ in WEIGHTS],
        "exprs": [f"event_weight * {factor!r}" for _, factor in WEIGHTS],
    })
    stages += [
        {"op": "define", "name": "ht", "expr": "sum(Jet_pt)"},
        {"op": "define", "name": "lead_pt", "expr": "nJet > 0 ? Jet_pt[0] : 0.0"},
        {"op": "filter", "expr": f"lead_pt > {LEAD_PT_MIN!r}"},
    ]
    for name, column, nbins, lo, hi in POST_HISTS:
        stages.append({"op": "histo1d", "name": name, "column": column,
                       "weight": "event_weight", "nbins": nbins, "xmin": lo, "xmax": hi})
    stages.append({"op": "count", "name": POST_COUNT})
    return json.dumps({"dataset": list(files), "stages": stages})


def probe_document(file: str) -> str:
    """A count over a tiny file: the run that proves the facility is up."""
    return json.dumps({"dataset": [file], "stages": [{"op": "count", "name": "n"}]})
