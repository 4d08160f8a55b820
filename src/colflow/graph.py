"""Pipeline documents and their validated computation graphs.

A pipeline is a JSON document: {"dataset": [uris], "stages": [...]} where
each stage is one of

    {"op": "define",   "name": N, "expr": E}
    {"op": "filter",   "expr": E, "label": L?}
    {"op": "vary",     "column": C, "kind": "weight"|"topology",
                       "tags": [...], "exprs": [...]}
    {"op": "histo1d",  "name": N, "column": C, "weight": W?,
                       "nbins": B, "xmin": LO, "xmax": HI}
    {"op": "sum",      "name": N, "column": C}
    {"op": "count",    "name": N}
    {"op": "snapshot", "columns": [...], "out": PREFIX}

Stages form one linear chain: a filter cuts everything declared after it.
`load_spec` checks document shape and parses expressions; `build` resolves
names against a file schema and typechecks every expression, producing an
immutable ComputationGraph that executors share across threads and tasks.

Variations: each vary stage declares alternative expressions for one
column. Each tag defines a universe; universes never compose. A variation
expression is evaluated in the nominal context at the vary stage's
position, and the substitution applies to stages after that position, so
`affected_nodes(tag)` is the transitive closure over column dependencies
starting at the vary stage.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from enum import Enum

from .colstore import Dtype
from .exprlang import Expr, ExprError, ValueType, columns_used, parse, typecheck


class PipelineError(Exception):
    """Invalid pipeline document or graph construction failure."""


_VT_FROM_DTYPE = {
    Dtype.F64: ValueType.F64,
    Dtype.I64: ValueType.I64,
    Dtype.BOOL: ValueType.BOOL,
    Dtype.VEC_F64: ValueType.VEC_F64,
    Dtype.VEC_I64: ValueType.VEC_I64,
}
_DTYPE_FROM_VT = {v: k for k, v in _VT_FROM_DTYPE.items()}


def value_type(dtype: Dtype) -> ValueType:
    return _VT_FROM_DTYPE[dtype]


def storable_dtype(vt: ValueType) -> Dtype | None:
    return _DTYPE_FROM_VT.get(vt)


def schema_types(handle) -> dict[str, ValueType]:
    """Expression-level schema of an opened dataset."""
    return {c.name: value_type(c.dtype) for c in handle.schema}


class VariationKind(Enum):
    WEIGHT = "weight"
    TOPOLOGY = "topology"


@dataclass(frozen=True)
class DefineStage:
    name: str
    expr_text: str
    expr: Expr


@dataclass(frozen=True)
class FilterStage:
    expr_text: str
    expr: Expr
    label: str = ""


@dataclass(frozen=True)
class VaryStage:
    column: str
    kind: VariationKind
    tags: tuple[str, ...]
    expr_texts: tuple[str, ...]
    exprs: tuple[Expr, ...]


@dataclass(frozen=True)
class HistoStage:
    name: str
    column: str
    weight: str | None
    nbins: int
    xmin: float
    xmax: float


@dataclass(frozen=True)
class SumStage:
    name: str
    column: str


@dataclass(frozen=True)
class CountStage:
    name: str


@dataclass(frozen=True)
class SnapshotStage:
    columns: tuple[str, ...]
    out: str


Stage = DefineStage | FilterStage | VaryStage | HistoStage | SumStage | CountStage | SnapshotStage

_RESULT_OPS = ("histo1d", "sum", "count", "snapshot")

_REQUIRED_FIELDS = {
    "define": {"name", "expr"},
    "filter": {"expr"},
    "vary": {"column", "kind", "tags", "exprs"},
    "histo1d": {"name", "column", "nbins", "xmin", "xmax"},
    "sum": {"name", "column"},
    "count": {"name"},
    "snapshot": {"columns", "out"},
}
_OPTIONAL_FIELDS = {
    "filter": {"label"},
    "histo1d": {"weight"},
}


@dataclass(frozen=True)
class PipelineSpec:
    dataset: tuple[str, ...]
    stages: tuple[Stage, ...]
    document: str  # canonical JSON; identity for graph_id


def _err(i: int, message: str) -> PipelineError:
    return PipelineError(f"stage {i}: {message}")


def _parse_expr(i: int, text) -> Expr:
    if not isinstance(text, str):
        raise _err(i, f"expression must be a string, got {type(text).__name__}")
    try:
        return parse(text)
    except ExprError as e:
        raise _err(i, f"bad expression {text!r}: {e}") from None


def load_spec(document: str | dict) -> PipelineSpec:
    """Validate document shape and parse all expressions (no typechecking)."""
    if isinstance(document, str):
        try:
            doc = json.loads(document)
        except json.JSONDecodeError as e:
            raise PipelineError(f"pipeline document is not valid JSON: {e}") from None
    else:
        doc = document
    if not isinstance(doc, dict):
        raise PipelineError("pipeline document must be a JSON object")
    unknown = set(doc) - {"dataset", "stages"}
    if unknown:
        raise PipelineError(f"unknown top-level keys: {sorted(unknown)}")

    dataset = doc.get("dataset")
    if not isinstance(dataset, list) or not dataset or not all(isinstance(u, str) for u in dataset):
        raise PipelineError("'dataset' must be a non-empty list of URI strings")
    raw_stages = doc.get("stages")
    if not isinstance(raw_stages, list) or not raw_stages:
        raise PipelineError("'stages' must be a non-empty list")

    stages: list[Stage] = []
    result_names: set[str] = set()
    all_tags: set[str] = set()
    n_result_stages = 0
    n_snapshots = 0

    for i, raw in enumerate(raw_stages):
        if not isinstance(raw, dict) or "op" not in raw:
            raise _err(i, "each stage must be an object with an 'op' field")
        op = raw["op"]
        if op not in _REQUIRED_FIELDS:
            raise _err(i, f"unknown stage kind {op!r}")
        required = _REQUIRED_FIELDS[op]
        allowed = required | _OPTIONAL_FIELDS.get(op, set()) | {"op"}
        missing = required - set(raw)
        if missing:
            raise _err(i, f"{op} stage missing fields: {sorted(missing)}")
        extra = set(raw) - allowed
        if extra:
            raise _err(i, f"{op} stage has unknown fields: {sorted(extra)}")

        if op in ("define", "histo1d", "sum", "count"):
            name = raw["name"]
            if not isinstance(name, str) or not name:
                raise _err(i, "'name' must be a non-empty string")
        if op in _RESULT_OPS:
            n_result_stages += 1
        if op in ("histo1d", "sum", "count"):
            if raw["name"] in result_names:
                raise _err(i, f"duplicate result name {raw['name']!r}")
            result_names.add(raw["name"])

        if op == "define":
            stages.append(DefineStage(raw["name"], raw["expr"], _parse_expr(i, raw["expr"])))
        elif op == "filter":
            label = raw.get("label", "")
            if not isinstance(label, str):
                raise _err(i, "'label' must be a string")
            stages.append(FilterStage(raw["expr"], _parse_expr(i, raw["expr"]), label))
        elif op == "vary":
            try:
                kind = VariationKind(raw["kind"])
            except ValueError:
                raise _err(i, f"vary kind must be 'weight' or 'topology', got {raw['kind']!r}") from None
            tags, exprs = raw["tags"], raw["exprs"]
            if not isinstance(tags, list) or not tags or not all(isinstance(t, str) and t for t in tags):
                raise _err(i, "'tags' must be a non-empty list of names")
            if not isinstance(exprs, list) or len(exprs) != len(tags):
                raise _err(i, "'exprs' must list one expression per tag")
            for t in tags:
                if t == "nominal":
                    raise _err(i, "'nominal' is a reserved universe name")
                if t in all_tags:
                    raise _err(i, f"duplicate variation tag {t!r}")
                all_tags.add(t)
            if not isinstance(raw["column"], str):
                raise _err(i, "'column' must be a string")
            stages.append(
                VaryStage(
                    raw["column"],
                    kind,
                    tuple(tags),
                    tuple(exprs),
                    tuple(_parse_expr(i, e) for e in exprs),
                )
            )
        elif op == "histo1d":
            nbins, xmin, xmax = raw["nbins"], raw["xmin"], raw["xmax"]
            if not isinstance(nbins, int) or nbins < 1:
                raise _err(i, f"'nbins' must be a positive integer, got {nbins!r}")
            if not isinstance(xmin, (int, float)) or not isinstance(xmax, (int, float)) or not xmin < xmax:
                raise _err(i, f"need xmin < xmax, got [{xmin!r}, {xmax!r})")
            weight = raw.get("weight")
            if weight is not None and not isinstance(weight, str):
                raise _err(i, "'weight' must be a column name")
            stages.append(HistoStage(raw["name"], raw["column"], weight, nbins, float(xmin), float(xmax)))
        elif op == "sum":
            stages.append(SumStage(raw["name"], raw["column"]))
        elif op == "count":
            stages.append(CountStage(raw["name"]))
        else:  # snapshot
            cols = raw["columns"]
            if not isinstance(cols, list) or not cols or not all(isinstance(c, str) for c in cols):
                raise _err(i, "'columns' must be a non-empty list of column names")
            if not isinstance(raw["out"], str) or not raw["out"]:
                raise _err(i, "'out' must be a non-empty path prefix")
            n_snapshots += 1
            if n_snapshots > 1:
                raise _err(i, "at most one snapshot stage per pipeline")
            stages.append(SnapshotStage(tuple(cols), raw["out"]))

    if n_result_stages == 0:
        raise PipelineError("pipeline needs at least one result stage (histo1d/sum/count/snapshot)")

    canonical = json.dumps(doc, sort_keys=True, separators=(",", ":"))
    return PipelineSpec(tuple(dataset), tuple(stages), canonical)


@dataclass(frozen=True)
class VariationSet:
    target: str
    kind: VariationKind
    tags: tuple[str, ...]
    exprs: tuple[Expr, ...]
    stage_index: int


def _stage_refs(stage: Stage) -> set[str]:
    """Columns a stage reads (vary stages excluded: nominal-context exprs)."""
    if isinstance(stage, DefineStage):
        return columns_used(stage.expr)
    if isinstance(stage, FilterStage):
        return columns_used(stage.expr)
    if isinstance(stage, HistoStage):
        refs = {stage.column}
        if stage.weight is not None:
            refs.add(stage.weight)
        return refs
    if isinstance(stage, SumStage):
        return {stage.column}
    if isinstance(stage, SnapshotStage):
        return set(stage.columns)
    return set()


class ComputationGraph:
    """A typechecked pipeline bound to one file schema. Immutable after build."""

    def __init__(self, spec: PipelineSpec, base_schema: dict[str, ValueType]):
        self.spec = spec
        self.base_schema = dict(base_schema)
        self.stages = spec.stages
        self.graph_id = spec_graph_id(spec)

        working = dict(base_schema)
        self.defines: dict[str, ValueType] = {}
        variations: list[VariationSet] = []
        self.result_stages: dict[str, Stage] = {}
        self.snapshot: SnapshotStage | None = None
        self.column_types: dict[str, ValueType] = working  # grows with defines

        for i, stage in enumerate(self.stages):
            try:
                self._check_stage(i, stage, working, variations)
            except ExprError as e:
                raise _err(i, str(e)) from None

        self._variations = tuple(variations)
        self._universes = ["nominal"]
        self._tag_info: dict[str, tuple[VariationSet, int]] = {}
        for vs in self._variations:
            for k, tag in enumerate(vs.tags):
                self._universes.append(tag)
                self._tag_info[tag] = (vs, k)

        self._affected = {tag: self._compute_affected(tag) for tag in self._tag_info}
        self.columns_needed = self._compute_columns_needed()

    def _check_stage(self, i: int, stage: Stage, working: dict, variations: list) -> None:
        if isinstance(stage, DefineStage):
            if stage.name in working:
                raise _err(i, f"define {stage.name!r} shadows an existing column")
            working[stage.name] = typecheck(stage.expr, working)
            self.defines[stage.name] = working[stage.name]
        elif isinstance(stage, FilterStage):
            t = typecheck(stage.expr, working)
            if t is not ValueType.BOOL:
                raise _err(i, f"filter must be boolean, got {t.name}")
        elif isinstance(stage, VaryStage):
            if stage.column not in working:
                raise _err(i, f"vary target {stage.column!r} is not a column")
            target_t = working[stage.column]
            for tag, expr in zip(stage.tags, stage.exprs):
                t = typecheck(expr, working)
                if t is not target_t:
                    raise _err(
                        i, f"variation {tag!r} has type {t.name}, target {stage.column!r} is {target_t.name}"
                    )
            variations.append(VariationSet(stage.column, stage.kind, stage.tags, stage.exprs, i))
        elif isinstance(stage, HistoStage):
            t = working.get(stage.column)
            if t is None:
                raise _err(i, f"histo1d column {stage.column!r} is not defined")
            if not t.is_numeric:
                raise _err(i, f"histo1d column {stage.column!r} must be numeric, got {t.name}")
            if stage.weight is not None:
                wt = working.get(stage.weight)
                if wt is None:
                    raise _err(i, f"histo1d weight {stage.weight!r} is not defined")
                if wt.is_vector or not wt.is_numeric:
                    raise _err(i, f"histo1d weight must be a numeric scalar, got {wt.name}")
            self.result_stages[stage.name] = stage
        elif isinstance(stage, SumStage):
            t = working.get(stage.column)
            if t is None:
                raise _err(i, f"sum column {stage.column!r} is not defined")
            if t.is_vector or not t.is_numeric:
                raise _err(i, f"sum column must be a numeric scalar, got {t.name}")
            self.result_stages[stage.name] = stage
        elif isinstance(stage, CountStage):
            self.result_stages[stage.name] = stage
        elif isinstance(stage, SnapshotStage):
            for c in stage.columns:
                t = working.get(c)
                if t is None:
                    raise _err(i, f"snapshot column {c!r} is not defined")
                if storable_dtype(t) is None:
                    raise _err(i, f"snapshot column {c!r} has non-storable type {t.name}")
            self.snapshot = stage

    def _compute_affected(self, tag: str) -> frozenset[int]:
        vs, _ = self._tag_info[tag]
        tainted = {vs.target}
        hit: set[int] = set()
        for i in range(vs.stage_index + 1, len(self.stages)):
            stage = self.stages[i]
            if isinstance(stage, VaryStage):
                continue
            if _stage_refs(stage) & tainted:
                hit.add(i)
                if isinstance(stage, DefineStage):
                    tainted.add(stage.name)
        return frozenset(hit)

    def _compute_columns_needed(self) -> tuple[str, ...]:
        define_refs = {
            s.name: columns_used(s.expr) for s in self.stages if isinstance(s, DefineStage)
        }
        needed: set[str] = set()

        def resolve(name: str, seen: frozenset = frozenset()) -> None:
            if name in self.base_schema:
                needed.add(name)
            elif name in define_refs and name not in seen:
                for ref in define_refs[name]:
                    resolve(ref, seen | {name})

        for stage in self.stages:
            refs = _stage_refs(stage)
            if isinstance(stage, VaryStage):
                refs = set().union(*(columns_used(e) for e in stage.exprs))
            for ref in refs:
                resolve(ref)
        ordered = [c for c in self.base_schema if c in needed]
        return tuple(ordered)

    # -- public views -------------------------------------------------------

    @property
    def variations(self) -> tuple[VariationSet, ...]:
        return self._variations

    def universes(self) -> list[str]:
        return list(self._universes)

    def weight_tags(self) -> list[str]:
        return [t for vs in self._variations if vs.kind is VariationKind.WEIGHT for t in vs.tags]

    def topology_tags(self) -> list[str]:
        return [t for vs in self._variations if vs.kind is VariationKind.TOPOLOGY for t in vs.tags]

    def variation_of(self, tag: str) -> tuple[VariationSet, int]:
        """The VariationSet declaring tag and the tag's index within it."""
        try:
            return self._tag_info[tag]
        except KeyError:
            raise PipelineError(f"unknown universe {tag!r}") from None

    def affected_nodes(self, universe: str) -> frozenset[int]:
        if universe == "nominal":
            return frozenset()
        if universe not in self._affected:
            raise PipelineError(f"unknown universe {universe!r}")
        return self._affected[universe]

    def result_names(self) -> list[str]:
        return list(self.result_stages)


def spec_graph_id(spec: PipelineSpec) -> str:
    """Content identity of a pipeline document (schema-independent)."""
    return hashlib.sha256(spec.document.encode()).hexdigest()[:16]


def build(spec: PipelineSpec, schema: dict[str, ValueType]) -> ComputationGraph:
    """Typecheck the pipeline against a file schema."""
    return ComputationGraph(spec, schema)
