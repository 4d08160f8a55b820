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
position, and the substitution applies to stages after that position.
`ComputationGraph.variations` describes every universe once, by tag: its
vary stage, target and expression, the names it recomputes (the target and
every define that reads it, transitively) and the later stages that read
one of them.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from enum import Enum

from .exprlang import Expr, ExprError, ValueType, columns_used, parse, typecheck


class PipelineError(Exception):
    """Invalid pipeline document or graph construction failure."""


def schema_types(handle) -> dict[str, ValueType]:
    """A copy of an opened dataset's schema, in file order."""
    return dict(handle.schema)


class VariationKind(Enum):
    WEIGHT = "weight"
    TOPOLOGY = "topology"


@dataclass(frozen=True)
class DefineStage:
    name: str
    expr: Expr


@dataclass(frozen=True)
class FilterStage:
    expr: Expr


@dataclass(frozen=True)
class VaryStage:
    column: str
    kind: VariationKind
    tags: tuple[str, ...]
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
            stages.append(DefineStage(raw["name"], _parse_expr(i, raw["expr"])))
        elif op == "filter":
            if not isinstance(raw.get("label", ""), str):
                raise _err(i, "'label' must be a string")
            stages.append(FilterStage(_parse_expr(i, raw["expr"])))
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
class Variation:
    """One universe: what one vary tag changes from its stage on."""

    kind: VariationKind
    stage_index: int
    target: str
    expr: Expr  # evaluated in the nominal context at stage_index
    own: frozenset[str]  # the target and every define that reads it, transitively
    affected: frozenset[int]  # the later stages that read a name in own


def _stage_refs(stage: Stage) -> set[str]:
    """Columns a stage reads (vary stages excluded: nominal-context exprs)."""
    if isinstance(stage, (DefineStage, FilterStage)):
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
        self.variations: dict[str, Variation] = {}  # by tag, in declaration order
        self.result_stages: dict[str, Stage] = {}
        self.snapshot: SnapshotStage | None = None
        self.column_types: dict[str, ValueType] = working  # grows with defines

        for i, stage in enumerate(self.stages):
            try:
                self._check_stage(i, stage, working)
            except ExprError as e:
                raise _err(i, str(e)) from None

        self.columns_needed = self._compute_columns_needed()

    def _check_stage(self, i: int, stage: Stage, working: dict) -> None:
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
            own, affected = self._reach(i, stage.column)
            for tag, expr in zip(stage.tags, stage.exprs):
                t = typecheck(expr, working)
                if t is not target_t:
                    raise _err(
                        i, f"variation {tag!r} has type {t.name}, target {stage.column!r} is {target_t.name}"
                    )
                self.variations[tag] = Variation(stage.kind, i, stage.column, expr, own, affected)
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
                if not t.storable:
                    raise _err(i, f"snapshot column {c!r} has non-storable type {t.name}")
            self.snapshot = stage

    def _reach(self, i: int, target: str) -> tuple[frozenset[str], frozenset[int]]:
        """The names a variation of target at stage i recomputes, and the later stages reading them."""
        own = {target}
        affected: set[int] = set()
        for j in range(i + 1, len(self.stages)):
            stage = self.stages[j]
            if _stage_refs(stage) & own:
                affected.add(j)
                if isinstance(stage, DefineStage):
                    own.add(stage.name)
        return frozenset(own), frozenset(affected)

    def _compute_columns_needed(self) -> tuple[str, ...]:
        """The file columns some stage reads, directly or through defines, in file order.

        One reverse pass is enough: a define reads only names declared before
        it, so every reader of a define is met before the define itself. A
        vary stage's expressions count only when a later stage reads its
        target, as a define's do only when a later stage reads its name.
        """
        needed: set[str] = set()
        for stage in reversed(self.stages):
            if isinstance(stage, DefineStage):
                if stage.name in needed:
                    needed |= columns_used(stage.expr)
            elif isinstance(stage, VaryStage):
                if stage.column in needed:
                    needed.update(*map(columns_used, stage.exprs))
            else:
                needed |= _stage_refs(stage)
        return tuple(c for c in self.base_schema if c in needed)

    # -- public views -------------------------------------------------------

    def universes(self) -> list[str]:
        return ["nominal", *self.variations]

    def weight_tags(self) -> list[str]:
        return [t for t, v in self.variations.items() if v.kind is VariationKind.WEIGHT]

    def topology_tags(self) -> list[str]:
        return [t for t, v in self.variations.items() if v.kind is VariationKind.TOPOLOGY]

    def variation(self, tag: str) -> Variation:
        try:
            return self.variations[tag]
        except KeyError:
            raise PipelineError(f"unknown universe {tag!r}") from None


def spec_graph_id(spec: PipelineSpec) -> str:
    """Content identity of a pipeline document (schema-independent)."""
    return hashlib.sha256(spec.document.encode()).hexdigest()[:16]


def build(spec: PipelineSpec, schema: dict[str, ValueType]) -> ComputationGraph:
    """Typecheck the pipeline against a file schema."""
    return ComputationGraph(spec, schema)
