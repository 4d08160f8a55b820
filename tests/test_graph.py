"""Pipeline document validation and computation graph construction."""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from colflow import exprlang
from colflow.exprlang import ValueType
from colflow import wire
from colflow.graph import (
    ComputationGraph,
    DefineStage,
    FilterStage,
    HistoStage,
    PipelineError,
    VariationKind,
    build,
    load_spec,
)
from conftest import batch_of

SCHEMA = {
    "event_weight": ValueType.F64,
    "MET_pt": ValueType.F64,
    "nJet": ValueType.I64,
    "Jet_pt": ValueType.VEC_F64,
    "Jet_eta": ValueType.VEC_F64,
    "Jet_phi": ValueType.VEC_F64,
}


def doc(stages, dataset=("a.col",)):
    return {"dataset": list(dataset), "stages": stages}


def minimal():
    return doc(
        [
            {"op": "define", "name": "ht", "expr": "sum(Jet_pt)"},
            {"op": "filter", "expr": "nJet >= 2"},
            {"op": "histo1d", "name": "h_ht", "column": "ht", "weight": "event_weight",
             "nbins": 10, "xmin": 0.0, "xmax": 1000.0},
            {"op": "count", "name": "n_pass"},
        ]
    )


class TestLoadSpec:
    def test_minimal_round_trip(self):
        spec = load_spec(minimal())
        assert spec.dataset == ("a.col",)
        assert len(spec.stages) == 4
        assert isinstance(spec.stages[0], DefineStage)
        assert isinstance(spec.stages[2], HistoStage)
        # canonical form is stable across key ordering and accepts str input
        again = load_spec(spec.document)
        assert again.document == spec.document

    def test_json_string_input(self):
        spec = load_spec(json.dumps(minimal()))
        assert spec.stages[0].name == "ht"

    @pytest.mark.parametrize(
        "mutate, fragment",
        [
            (lambda d: d.pop("dataset"), "dataset"),
            (lambda d: d.update(dataset=[]), "dataset"),
            (lambda d: d.update(stages=[]), "stages"),
            (lambda d: d.update(extra=1), "unknown top-level"),
        ],
    )
    def test_document_shape(self, mutate, fragment):
        d = minimal()
        mutate(d)
        with pytest.raises(PipelineError, match=fragment):
            load_spec(d)

    def test_not_json(self):
        with pytest.raises(PipelineError, match="not valid JSON"):
            load_spec("{nope")

    def test_unknown_stage_kind(self):
        d = doc([{"op": "histo2d", "name": "h", "column": "x"}])
        with pytest.raises(PipelineError, match="stage 0: unknown stage kind 'histo2d'"):
            load_spec(d)

    def test_missing_field(self):
        d = doc([{"op": "histo1d", "name": "h", "column": "x", "nbins": 5, "xmin": 0.0}])
        with pytest.raises(PipelineError, match="missing fields.*xmax"):
            load_spec(d)

    def test_extra_field_rejected(self):
        d = minimal()
        d["stages"][1]["threads"] = 4
        with pytest.raises(PipelineError, match="stage 1: filter stage has unknown fields"):
            load_spec(d)

    def test_filter_label_must_be_a_string(self):
        d = minimal()
        d["stages"][1]["label"] = "two jets"
        load_spec(d)
        d["stages"][1]["label"] = 2
        with pytest.raises(PipelineError, match="stage 1: 'label' must be a string"):
            load_spec(d)

    def test_duplicate_result_names(self):
        d = doc(
            [
                {"op": "count", "name": "n"},
                {"op": "sum", "name": "n", "column": "MET_pt"},
            ]
        )
        with pytest.raises(PipelineError, match="duplicate result name 'n'"):
            load_spec(d)

    def test_bad_expression_has_stage_index(self):
        d = doc([{"op": "filter", "expr": "1 +"}, {"op": "count", "name": "n"}])
        with pytest.raises(PipelineError, match="stage 0: bad expression"):
            load_spec(d)

    def test_needs_result_stage(self):
        d = doc([{"op": "filter", "expr": "true"}])
        with pytest.raises(PipelineError, match="at least one result stage"):
            load_spec(d)

    def test_vary_validation(self):
        base = {"op": "vary", "column": "MET_pt", "kind": "topology",
                "tags": ["up"], "exprs": ["MET_pt * 1.1"]}
        ok = doc([base, {"op": "count", "name": "n"}])
        assert load_spec(ok).stages[0].kind is VariationKind.TOPOLOGY

        bad_kind = doc([dict(base, kind="shape"), {"op": "count", "name": "n"}])
        with pytest.raises(PipelineError, match="'weight' or 'topology'"):
            load_spec(bad_kind)

        mismatch = doc([dict(base, tags=["up", "down"]), {"op": "count", "name": "n"}])
        with pytest.raises(PipelineError, match="one expression per tag"):
            load_spec(mismatch)

        reserved = doc([dict(base, tags=["nominal"]), {"op": "count", "name": "n"}])
        with pytest.raises(PipelineError, match="reserved"):
            load_spec(reserved)

    def test_duplicate_tags_across_stages(self):
        d = doc(
            [
                {"op": "vary", "column": "MET_pt", "kind": "topology",
                 "tags": ["up"], "exprs": ["MET_pt * 1.1"]},
                {"op": "vary", "column": "event_weight", "kind": "weight",
                 "tags": ["up"], "exprs": ["event_weight * 1.01"]},
                {"op": "count", "name": "n"},
            ]
        )
        with pytest.raises(PipelineError, match="stage 1: duplicate variation tag 'up'"):
            load_spec(d)

    def test_second_snapshot_rejected(self):
        d = doc(
            [
                {"op": "snapshot", "columns": ["MET_pt"], "out": "a"},
                {"op": "snapshot", "columns": ["nJet"], "out": "b"},
            ]
        )
        with pytest.raises(PipelineError, match="at most one snapshot"):
            load_spec(d)

    def test_histo_axis_checked(self):
        d = doc([{"op": "histo1d", "name": "h", "column": "MET_pt",
                  "nbins": 0, "xmin": 0.0, "xmax": 1.0}])
        with pytest.raises(PipelineError, match="nbins"):
            load_spec(d)
        d = doc([{"op": "histo1d", "name": "h", "column": "MET_pt",
                  "nbins": 5, "xmin": 2.0, "xmax": 2.0}])
        with pytest.raises(PipelineError, match="xmin < xmax"):
            load_spec(d)


    def test_filter_label_is_kept_and_optional_fields_default(self):
        d = minimal()
        d["stages"][1]["label"] = "two jets"
        d["stages"][2].pop("weight")
        spec = load_spec(d)
        assert spec.stages[1] == FilterStage(exprlang.parse("nJet >= 2"), "two jets")
        assert spec.stages[2].weight is None
        d["stages"][1].pop("label")
        d["stages"][2]["weight"] = None
        assert load_spec(d).stages[1:3] == (FilterStage(exprlang.parse("nJet >= 2")), spec.stages[2])

    @pytest.mark.parametrize(
        "stage, message",
        [
            ({"op": ["x"]}, "stage 0: unknown stage kind ['x']"),
            ({"op": {"a": 1}}, "stage 0: unknown stage kind {'a': 1}"),
            ({"op": "sum", "name": "s", "column": ["x"]}, "stage 0: 'column' must be a column name, got ['x']"),
            ({"op": "count", "name": ""}, "stage 0: 'name' must be a non-empty string, got ''"),
            ({"op": "histo1d", "name": "h", "column": "x", "nbins": 2.0, "xmin": 0, "xmax": 1},
             "stage 0: 'nbins' must be an integer, got 2.0"),
            ({"op": "histo1d", "name": "h", "column": "x", "nbins": True, "xmin": 0, "xmax": 1},
             "stage 0: 'nbins' must be an integer, got True"),
            ({"op": "histo1d", "name": "h", "column": "x", "nbins": 2, "xmin": float("-inf"), "xmax": 1},
             "stage 0: 'xmin' must be a finite number, got -inf"),
            ({"op": "histo1d", "name": "h", "column": "x", "nbins": 2, "xmin": 0, "xmax": float("nan")},
             "stage 0: 'xmax' must be a finite number, got nan"),
            ({"op": "histo1d", "name": "h", "column": "x", "nbins": 2, "xmin": 0, "xmax": 10**400},
             "stage 0: 'xmax' must be a finite number, got 100000000000000000...0000000000000000000"),
            ({"op": "histo1d", "name": "h", "column": "x", "nbins": 2, "xmin": 0, "xmax": 1, "weight": 3},
             "stage 0: 'weight' must be a column name or null, got 3"),
            ({"op": "histo1d", "name": "h", "column": "x", "nbins": 2, "xmin": -1.7e308, "xmax": 1.7e308},
             "stage 0: need finite xmin < xmax a finite width apart, got [-1.7e+308, 1.7e+308)"),
            ({"op": "vary", "column": "x", "kind": "weight", "tags": ["t"], "exprs": "x"},
             "stage 0: 'exprs' must be a list of expression strings, got 'x'"),
            ({"op": "vary", "column": "x", "kind": "weight", "tags": ["t"], "exprs": [1]},
             "stage 0: 'exprs' must be a list of expression strings, got [1]"),
            ({"op": "snapshot", "columns": [], "out": "o"},
             "stage 0: 'columns' must be a non-empty list of column names, got []"),
        ],
    )
    def test_each_field_has_one_rule(self, stage, message):
        with pytest.raises(PipelineError) as e:
            load_spec(doc([stage, {"op": "count", "name": "n"}]))
        assert str(e.value) == message

    @pytest.mark.parametrize(
        "text, fragment",
        [
            ("[" * 100_000, "nests too deeply"),
            ('{"dataset": [' + "1" * 5000 + "]}", "not valid JSON"),
        ],
    )
    def test_json_the_reader_refuses_is_a_pipeline_error(self, text, fragment):
        with pytest.raises(PipelineError, match=fragment):
            load_spec(text)


# Every kind of stage, valid as it stands; the property test below puts
# arbitrary JSON in each field in turn.
VALID_STAGES = [
    {"op": "define", "name": "ht", "expr": "sum(Jet_pt)"},
    {"op": "filter", "expr": "nJet >= 2", "label": "two jets"},
    {"op": "vary", "column": "MET_pt", "kind": "topology", "tags": ["up"], "exprs": ["MET_pt * 1.1"]},
    {"op": "histo1d", "name": "h", "column": "MET_pt", "nbins": 5, "xmin": 0.0, "xmax": 1.0,
     "weight": "event_weight"},
    {"op": "sum", "name": "s", "column": "MET_pt"},
    {"op": "count", "name": "c"},
    {"op": "snapshot", "columns": ["MET_pt"], "out": "skim/out"},
]
FIELDS = [(i, name) for i, stage in enumerate(VALID_STAGES) for name in stage]

JSON_VALUES = st.recursive(
    st.none()
    | st.booleans()
    | st.integers()
    | st.sampled_from([0, -1, 2**24, 2**63, 10**30, 10**400, -(10**400)])
    | st.floats()  # nan and +-inf included
    | st.sampled_from([1.7e308, -1.7e308, 5e-324])
    | st.text(max_size=6)
    | st.sampled_from(["", "nominal", "weight", "MET_pt", "nJet", "histo1d", "1 +", "(" * 200 + "1" + ")" * 200]),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=10,
)


@given(st.sampled_from(FIELDS), JSON_VALUES)
@settings(max_examples=400, deadline=None)
def test_any_json_in_any_field_is_a_spec_a_graph_or_a_pipeline_error(field, value):
    i, name = field
    stage = dict(VALID_STAGES[i], **{name: value})
    text = json.dumps(doc([stage, {"op": "count", "name": "n_all"}]))
    try:
        build(load_spec(text), SCHEMA)
    except PipelineError:
        pass


class TestBuild:
    def test_minimal_graph(self):
        g = build(load_spec(minimal()), SCHEMA)
        assert g.defines == {"ht": ValueType.F64}
        assert g.universes() == ["nominal"]
        assert list(g.result_stages) == ["h_ht", "n_pass"]
        assert g.columns_needed == ("event_weight", "nJet", "Jet_pt")
        assert g.variations == {}

    def test_graph_id_stable_and_content_bound(self):
        s1 = load_spec(minimal())
        s2 = load_spec(json.loads(s1.document))
        assert build(s1, SCHEMA).graph_id == build(s2, SCHEMA).graph_id
        other = minimal()
        other["stages"][1]["expr"] = "nJet >= 3"
        assert build(load_spec(other), SCHEMA).graph_id != build(s1, SCHEMA).graph_id

    def test_filter_must_be_boolean(self):
        d = doc([{"op": "filter", "expr": "MET_pt + 1.0"}, {"op": "count", "name": "n"}])
        with pytest.raises(PipelineError, match="stage 0: filter must be boolean, got F64"):
            build(load_spec(d), SCHEMA)

    def test_define_cannot_shadow(self):
        d = doc([{"op": "define", "name": "MET_pt", "expr": "1.0"},
                 {"op": "count", "name": "n"}])
        with pytest.raises(PipelineError, match="shadows"):
            build(load_spec(d), SCHEMA)

    def test_unknown_column_in_expr(self):
        d = doc([{"op": "filter", "expr": "MET > 10.0"}, {"op": "count", "name": "n"}])
        with pytest.raises(PipelineError, match="stage 0: .*unknown column 'MET'"):
            build(load_spec(d), SCHEMA)

    def test_define_visible_only_after_declaration(self):
        d = doc(
            [
                {"op": "filter", "expr": "ht > 0.0"},
                {"op": "define", "name": "ht", "expr": "sum(Jet_pt)"},
                {"op": "count", "name": "n"},
            ]
        )
        with pytest.raises(PipelineError, match="stage 0"):
            build(load_spec(d), SCHEMA)

    def test_vary_target_must_exist(self):
        d = doc([{"op": "vary", "column": "nope", "kind": "weight",
                  "tags": ["t"], "exprs": ["1.0"]},
                 {"op": "count", "name": "n"}])
        with pytest.raises(PipelineError, match="vary target 'nope'"):
            build(load_spec(d), SCHEMA)

    def test_vary_expr_type_must_match_target(self):
        d = doc([{"op": "vary", "column": "Jet_pt", "kind": "topology",
                  "tags": ["t"], "exprs": ["1.0"]},
                 {"op": "count", "name": "n"}])
        with pytest.raises(PipelineError, match="'t' has type F64, target 'Jet_pt' is VEC_F64"):
            build(load_spec(d), SCHEMA)

    def test_vary_on_define(self):
        d = doc(
            [
                {"op": "define", "name": "ht", "expr": "sum(Jet_pt)"},
                {"op": "vary", "column": "ht", "kind": "topology",
                 "tags": ["ht_up"], "exprs": ["ht * 1.1"]},
                {"op": "histo1d", "name": "h", "column": "ht",
                 "nbins": 5, "xmin": 0.0, "xmax": 100.0},
            ]
        )
        g = build(load_spec(d), SCHEMA)
        assert g.universes() == ["nominal", "ht_up"]
        assert g.variation("ht_up").own == frozenset({"ht"})
        assert g.variation("ht_up").affected == frozenset({2})

    def test_universe_order_matches_declaration(self):
        d = doc(
            [
                {"op": "vary", "column": "Jet_pt", "kind": "topology",
                 "tags": ["jesUp", "jesDown"],
                 "exprs": ["Jet_pt * 1.05",
                           "Jet_pt * 0.95"]},
                {"op": "vary", "column": "event_weight", "kind": "weight",
                 "tags": ["wUp"], "exprs": ["event_weight * 1.01"]},
                {"op": "count", "name": "n"},
            ]
        )
        g = build(load_spec(d), SCHEMA)
        assert g.universes() == ["nominal", "jesUp", "jesDown", "wUp"]
        assert g.weight_tags() == ["wUp"]
        assert g.topology_tags() == ["jesUp", "jesDown"]
        v = g.variation("jesDown")
        assert (v.kind, v.stage_index, v.target) == (VariationKind.TOPOLOGY, 0, "Jet_pt")
        assert v.expr is g.stages[0].exprs[1]
        with pytest.raises(PipelineError, match="unknown universe"):
            g.variation("jesSideways")
        with pytest.raises(PipelineError, match="unknown universe"):
            g.variation("nominal")

    def test_many_tags_many_universes(self):
        tags = [f"w{i}_{d}" for i in range(15) for d in ("up", "down")]
        exprs = [f"event_weight * {1 + 0.01 * (i + 1):.2f}" for i in range(15) for _ in (0, 1)]
        d = doc(
            [
                {"op": "vary", "column": "event_weight", "kind": "weight",
                 "tags": tags, "exprs": exprs},
                {"op": "count", "name": "n"},
            ]
        )
        g = build(load_spec(d), SCHEMA)
        assert len(g.universes()) == 31
        assert g.universes()[0] == "nominal"
        assert g.weight_tags() == tags

    def test_affected_nodes_transitive(self):
        d = doc(
            [
                {"op": "vary", "column": "Jet_pt", "kind": "topology",
                 "tags": ["jesUp"], "exprs": ["Jet_pt * 1.05"]},
                {"op": "define", "name": "ht", "expr": "sum(Jet_pt)"},        # 1: affected
                {"op": "define", "name": "met2", "expr": "MET_pt * 2.0"},     # 2: untouched
                {"op": "filter", "expr": "ht > 100.0"},                        # 3: affected
                {"op": "histo1d", "name": "h_ht", "column": "ht",
                 "nbins": 5, "xmin": 0.0, "xmax": 1000.0},                     # 4: affected
                {"op": "histo1d", "name": "h_met", "column": "met2",
                 "nbins": 5, "xmin": 0.0, "xmax": 500.0},                      # 5: untouched
            ]
        )
        g = build(load_spec(d), SCHEMA)
        assert g.variation("jesUp").affected == frozenset({1, 3, 4})
        assert g.variation("jesUp").own == frozenset({"Jet_pt", "ht"})

    def test_vary_before_stage_not_retroactive(self):
        # the define precedes the vary stage, so it keeps its nominal value
        d = doc(
            [
                {"op": "define", "name": "ht", "expr": "sum(Jet_pt)"},         # 0
                {"op": "vary", "column": "Jet_pt", "kind": "topology",
                 "tags": ["jesUp"], "exprs": ["Jet_pt * 1.05"]},
                {"op": "histo1d", "name": "h_ht", "column": "ht",
                 "nbins": 5, "xmin": 0.0, "xmax": 1000.0},                     # 2: reads ht, not Jet_pt
                {"op": "histo1d", "name": "h_lead", "column": "MET_pt",
                 "nbins": 5, "xmin": 0.0, "xmax": 500.0},                      # 3
            ]
        )
        g = build(load_spec(d), SCHEMA)
        assert g.variation("jesUp").affected == frozenset()
        assert g.variation("jesUp").own == frozenset({"Jet_pt"})

    def test_weight_variation_affects_only_weighted_fills(self):
        d = doc(
            [
                {"op": "vary", "column": "event_weight", "kind": "weight",
                 "tags": ["wUp"], "exprs": ["event_weight * 1.01"]},
                {"op": "filter", "expr": "nJet >= 1"},                          # 1: untouched
                {"op": "histo1d", "name": "h_w", "column": "MET_pt",
                 "weight": "event_weight", "nbins": 5, "xmin": 0.0, "xmax": 500.0},  # 2: weight ref
                {"op": "histo1d", "name": "h_raw", "column": "MET_pt",
                 "nbins": 5, "xmin": 0.0, "xmax": 500.0},                       # 3: untouched
            ]
        )
        g = build(load_spec(d), SCHEMA)
        assert g.variation("wUp").affected == frozenset({2})

    def test_columns_needed_pruning_and_order(self):
        d = doc(
            [
                {"op": "define", "name": "lead", "expr": "nJet > 0 ? Jet_pt[0] : 0.0"},
                {"op": "filter", "expr": "lead > 25.0"},
                {"op": "count", "name": "n"},
            ]
        )
        g = build(load_spec(d), SCHEMA)
        # schema order, transitively through the define, nothing else
        assert g.columns_needed == ("nJet", "Jet_pt")

        chain = doc(
            [
                {"op": "define", "name": "ht", "expr": "sum(Jet_pt)"},
                {"op": "define", "name": "ht_met", "expr": "ht + MET_pt"},
                {"op": "sum", "name": "s", "column": "ht_met"},
            ]
        )
        assert build(load_spec(chain), SCHEMA).columns_needed == ("MET_pt", "Jet_pt")

        unused = doc(
            [
                {"op": "define", "name": "eta0", "expr": "nJet > 0 ? Jet_eta[0] : 0.0"},
                {"op": "sum", "name": "s", "column": "MET_pt"},
            ]
        )
        assert build(load_spec(unused), SCHEMA).columns_needed == ("MET_pt",)

        vary_define = doc(
            [
                {"op": "define", "name": "ht", "expr": "sum(Jet_pt)"},
                {"op": "vary", "column": "ht", "kind": "topology",
                 "tags": ["ht_up"], "exprs": ["ht + MET_pt"]},
                {"op": "histo1d", "name": "h", "column": "ht", "weight": "event_weight",
                 "nbins": 5, "xmin": 0.0, "xmax": 100.0},
            ]
        )
        g = build(load_spec(vary_define), SCHEMA)
        assert g.columns_needed == ("event_weight", "MET_pt", "Jet_pt")

    def test_vary_exprs_count_toward_columns_needed(self):
        d = doc(
            [
                {"op": "vary", "column": "MET_pt", "kind": "topology",
                 "tags": ["smear"], "exprs": ["MET_pt + Jet_eta[0]"]},
                {"op": "histo1d", "name": "h", "column": "MET_pt",
                 "nbins": 5, "xmin": 0.0, "xmax": 500.0},
            ]
        )
        g = build(load_spec(d), SCHEMA)
        assert g.columns_needed == ("MET_pt", "Jet_eta")

    def test_unread_vary_target_needs_no_columns(self):
        d = doc(
            [
                {"op": "vary", "column": "MET_pt", "kind": "topology",
                 "tags": ["smear"], "exprs": ["MET_pt + Jet_eta[0]"]},
                {"op": "sum", "name": "s", "column": "nJet"},
            ]
        )
        assert build(load_spec(d), SCHEMA).columns_needed == ("nJet",)

    def test_snapshot_columns_must_be_storable(self):
        d = doc(
            [
                {"op": "define", "name": "ok", "expr": "nJet >= 2"},
                {"op": "snapshot", "columns": ["MET_pt", "ok"], "out": "skim/out"},
            ]
        )
        g = build(load_spec(d), SCHEMA)  # BOOL is storable
        assert g.snapshot.columns == ("MET_pt", "ok")

        missing = doc([{"op": "snapshot", "columns": ["nope"], "out": "x"}])
        with pytest.raises(PipelineError, match="snapshot column 'nope'"):
            build(load_spec(missing), SCHEMA)

    def test_graph_id_is_the_spec_s(self):
        spec = load_spec(minimal())
        assert build(spec, SCHEMA).graph_id == spec.graph_id
        assert spec.graph_id == load_spec(json.dumps(minimal(), indent=2)).graph_id

    @pytest.mark.parametrize("nbins, fits", [(2**24 - 3, True), (2**24, False)])
    def test_an_empty_result_over_one_frame_is_refused(self, nbins, fits):
        # one universe: 8 + 16 * (nbins + 2) bytes, against MAX_FRAME = 256 MiB; build allocates nothing
        d = doc([{"op": "histo1d", "name": "h", "column": "MET_pt", "nbins": nbins, "xmin": 0.0, "xmax": 1.0}])
        assert (8 + 16 * (nbins + 2) <= wire.MAX_FRAME) == fits
        if fits:
            assert list(build(load_spec(d), SCHEMA).result_stages) == ["h"]
        else:
            with pytest.raises(PipelineError, match=r"268435496 bytes, more than one frame holds \(268435456\)"):
                build(load_spec(d), SCHEMA)

    def test_rebuild_is_deterministic(self):
        d = doc(
            [
                {"op": "vary", "column": "Jet_pt", "kind": "topology",
                 "tags": ["a", "b"],
                 "exprs": ["Jet_pt * 1.1",
                           "Jet_pt * 0.9"]},
                {"op": "define", "name": "ht", "expr": "sum(Jet_pt)"},
                {"op": "histo1d", "name": "h", "column": "ht",
                 "nbins": 5, "xmin": 0.0, "xmax": 1000.0},
            ]
        )
        g1 = build(load_spec(d), SCHEMA)
        g2 = build(load_spec(d), SCHEMA)
        assert g1.graph_id == g2.graph_id
        assert g1.universes() == g2.universes()
        assert g1.variation("a").affected == g2.variation("a").affected
        assert g1.columns_needed == g2.columns_needed

    def test_build_compiles_no_closures(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("graph.build evaluated an expression")

        monkeypatch.setattr(exprlang, "_eval", refuse)
        d = minimal()
        d["stages"].insert(0, {"op": "vary", "column": "Jet_pt", "kind": "topology",
                               "tags": ["up"], "exprs": ["Jet_pt * 1.1"]})
        g = build(load_spec(d), SCHEMA)
        assert g.defines == {"ht": ValueType.F64}
        evaluate = exprlang.compile_expr(exprlang.parse("nJet + 1"), SCHEMA)
        with pytest.raises(AssertionError, match="evaluated an expression"):
            evaluate(batch_of([{"nJet": 2}], {"nJet": ValueType.I64}))
