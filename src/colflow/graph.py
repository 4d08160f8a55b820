"""Pipeline documents and their validated computation graphs.

A pipeline is a JSON document: {"dataset": [uris], "stages": [...]}, each
stage an object {"op": OP, ...}. The document grammar is declared once:
`_KINDS` names each op's stage dataclass, whose fields are the op's fields
(required, or optional where the field has a default), and `_FIELDS`
holds each field's one rule (what its JSON value must be, and what it
becomes). A stage's cross-field rules are its dataclass's
`__post_init__`. For example:

    {"op": "histo1d", "name": "h_ht", "column": "ht", "nbins": 50,
     "xmin": 0.0, "xmax": 1000.0, "weight": "event_weight"}

Stages form one linear chain: a filter cuts everything declared after it.
`load_spec` checks a document against the grammar and parses its
expressions, and fails only with PipelineError; `build` resolves names
against a file schema and typechecks every expression, producing an
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
import reprlib
import sys
from dataclasses import MISSING, dataclass, fields
from enum import Enum
from typing import ClassVar

from .exprlang import Expr, ExprError, ValueType, columns_used, parse, typecheck
from .hist import ResultKind, check_axis, table_bytes
from .wire import MAX_FRAME


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
    label: str = ""


@dataclass(frozen=True)
class VaryStage:
    column: str
    kind: VariationKind
    tags: tuple[str, ...]
    exprs: tuple[Expr, ...]

    def __post_init__(self):
        if len(self.exprs) != len(self.tags):
            raise ValueError("'exprs' must list one expression per tag")


@dataclass(frozen=True)
class HistoStage:
    name: str
    column: str
    nbins: int
    xmin: float
    xmax: float
    weight: str | None = None
    table: ClassVar = ResultKind.HISTO

    def __post_init__(self):
        check_axis(self.nbins, self.xmin, self.xmax)


@dataclass(frozen=True)
class SumStage:
    name: str
    column: str
    table: ClassVar = ResultKind.SUM


@dataclass(frozen=True)
class CountStage:
    name: str
    table: ClassVar = ResultKind.COUNT


@dataclass(frozen=True)
class SnapshotStage:
    columns: tuple[str, ...]
    out: str


Stage = DefineStage | FilterStage | VaryStage | HistoStage | SumStage | CountStage | SnapshotStage

_KINDS = {
    "define": DefineStage,
    "filter": FilterStage,
    "vary": VaryStage,
    "histo1d": HistoStage,
    "sum": SumStage,
    "count": CountStage,
    "snapshot": SnapshotStage,
}


def _expr(text: str) -> Expr:
    try:
        return parse(text)
    except ExprError as e:
        raise ValueError(f"bad expression {text!r}: {e}") from None


def _string(v) -> bool:
    return isinstance(v, str)


def _name(v) -> bool:
    return isinstance(v, str) and v != ""


def _list(each, least: int = 0):
    return lambda v: isinstance(v, list) and len(v) >= least and all(map(each, v))


def _finite(v) -> bool:
    return type(v) in (int, float) and abs(v) <= sys.float_info.max  # exact for any int; false for nan


_FIELDS = {  # field name: (what its JSON value must be, the test of that, what it becomes)
    "name": ("a non-empty string", _name, str),
    "expr": ("an expression string", _string, _expr),
    "label": ("a string", _string, str),
    "column": ("a column name", _string, str),
    "kind": ("'weight' or 'topology'", lambda v: v in ("weight", "topology"), VariationKind),
    "tags": ("a non-empty list of names", _list(_name, 1), tuple),
    "exprs": ("a list of expression strings", _list(_string), lambda v: tuple(map(_expr, v))),
    "weight": ("a column name or null", lambda v: v is None or _string(v), lambda v: v),
    "nbins": ("an integer", lambda v: type(v) is int, int),
    "xmin": ("a finite number", _finite, float),
    "xmax": ("a finite number", _finite, float),
    "columns": ("a non-empty list of column names", _list(_string, 1), tuple),
    "out": ("a non-empty path prefix", _name, str),
}


@dataclass(frozen=True)
class PipelineSpec:
    dataset: tuple[str, ...]
    stages: tuple[Stage, ...]
    document: str  # canonical JSON

    @property
    def graph_id(self) -> str:
        """Content identity of the document (schema-independent)."""
        return hashlib.sha256(self.document.encode()).hexdigest()[:16]


def _err(i: int, message: str) -> PipelineError:
    return PipelineError(f"stage {i}: {message}")


def _stage(i: int, raw) -> Stage:
    """Stage i of a document: its op's class, each field by its rule, then the class's own checks."""
    if not isinstance(raw, dict) or "op" not in raw:
        raise _err(i, "each stage must be an object with an 'op' field")
    op = raw["op"]
    kind = _KINDS.get(op) if isinstance(op, str) else None
    if kind is None:
        raise _err(i, f"unknown stage kind {reprlib.repr(op)}")
    declared = fields(kind)
    missing = [f.name for f in declared if f.default is MISSING and f.name not in raw]
    if missing:
        raise _err(i, f"{op} stage missing fields: {sorted(missing)}")
    extra = set(raw) - {"op", *(f.name for f in declared)}
    if extra:
        raise _err(i, f"{op} stage has unknown fields: {sorted(extra)}")
    values = {}
    try:
        for name in (f.name for f in declared if f.name in raw):
            what, test, convert = _FIELDS[name]
            if not test(raw[name]):
                raise ValueError(f"{name!r} must be {what}, got {reprlib.repr(raw[name])}")
            values[name] = convert(raw[name])
        return kind(**values)
    except ValueError as e:
        raise _err(i, str(e)) from None


def load_spec(document: str | dict) -> PipelineSpec:
    """Check a document (JSON text, or what json.loads makes of it) against
    the grammar and parse its expressions, without typechecking them."""
    if isinstance(document, str):
        try:
            doc = json.loads(document)
        except ValueError as e:  # malformed, or an integer past int's digit limit
            raise PipelineError(f"pipeline document is not valid JSON: {e}") from None
        except RecursionError:
            raise PipelineError("pipeline document nests too deeply to read") from None
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
    for i, raw in enumerate(raw_stages):
        stage = _stage(i, raw)
        if isinstance(stage, (HistoStage, SumStage, CountStage)):
            if stage.name in result_names:
                raise _err(i, f"duplicate result name {stage.name!r}")
            result_names.add(stage.name)
        elif isinstance(stage, VaryStage):
            for t in stage.tags:
                if t == "nominal":
                    raise _err(i, "'nominal' is a reserved universe name")
                if t in all_tags:
                    raise _err(i, f"duplicate variation tag {t!r}")
                all_tags.add(t)
        elif isinstance(stage, SnapshotStage) and any(isinstance(s, SnapshotStage) for s in stages):
            raise _err(i, "at most one snapshot stage per pipeline")
        stages.append(stage)

    if not result_names and not any(isinstance(s, SnapshotStage) for s in stages):
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
        self.graph_id = spec.graph_id

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
        rows = len(self.universes())
        size = sum(table_bytes(s.table, rows, getattr(s, "nbins", 0)) for s in self.result_stages.values())
        if size > MAX_FRAME:
            raise PipelineError(f"the empty result takes {size} bytes, more than one frame holds ({MAX_FRAME})")

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


def build(spec: PipelineSpec, schema: dict[str, ValueType]) -> ComputationGraph:
    """Typecheck the pipeline against a file schema; refuse a result too large for one frame."""
    return ComputationGraph(spec, schema)
