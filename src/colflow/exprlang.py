"""A small typed expression language over per-event columns.

Pipelines describe derived quantities, selections, and variations as
strings in a C-flavored syntax::

    sum(where(Jet_pt, Jet_eta < 2.4 && Jet_pt > 30)) / MET_pt

Values are F64/I64/BOOL scalars or vectors of them. `ValueType` is also
the one column type of the file format: its values 1-5 are the footer's u8
dtype codes. VEC_BOOL (6) arises only transiently (vector comparisons
feeding `where` or boolean algebra) and is not `storable`. Precedence, tightest first: unary, `* / %`,
`+ -`, comparisons (non-associative), `&&`, `||`, `?:`.

The public surface is `parse`, `typecheck`, `compile_expr`, `to_text`
(canonical printing) and `columns_used`. Past the parser the module has two
halves. The type pass (`typecheck`) walks the tree, builds no closures, and
holds every type and promotion rule and every ExprTypeError. The closure
half (`compile_expr`) runs the type pass, then builds per-event closures
shaped by the types it recorded per node; it checks and promotes nothing on
its own. The vectorised batch backend planned in ROADMAP.md (item 2)
replaces the closure half. Compiled closures are immutable and reentrant;
evaluation is a pure function of the expression and the row context.
Reductions run left to right so results are bit-reproducible.

Semantics chosen once and kept fixed:
  - mixed I64/F64 arithmetic promotes to F64; I64/I64 division is floor
    division and I64 division or modulo by zero is an eval error
  - F64 division by zero follows IEEE-754 (inf/nan), F64 `x % 0` is nan
  - `sum` always yields F64 (empty vector sums to 0.0); `min`/`max` on an
    empty vector are an eval error; `len` yields I64
  - elementwise ops require equal vector lengths; `v[i]` requires
    0 <= i < len(v) (negative indices are out of range)
  - scalar `&&`/`||` short-circuit; on VEC_BOOL they are elementwise
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field
from enum import IntEnum
from typing import Callable

Span = tuple[int, int]  # 1-based (line, col)


class ExprError(Exception):
    def __init__(self, span: Span, message: str):
        super().__init__(f"{span[0]}:{span[1]}: {message}")
        self.span = span
        self.message = message


class ExprSyntaxError(ExprError):
    pass


class ExprTypeError(ExprError):
    pass


class EvalError(ExprError):
    pass


class ValueType(IntEnum):
    """Type of a column or expression; the value is the footer's dtype code."""

    F64 = 1
    I64 = 2
    BOOL = 3
    VEC_F64 = 4
    VEC_I64 = 5
    VEC_BOOL = 6

    @property
    def storable(self) -> bool:
        return self is not ValueType.VEC_BOOL

    @property
    def is_vector(self) -> bool:
        return self.name.startswith("VEC_")

    @property
    def element(self) -> "ValueType":
        return ValueType[self.name.removeprefix("VEC_")] if self.is_vector else self

    @property
    def vector(self) -> "ValueType":
        return self if self.is_vector else ValueType["VEC_" + self.name]

    @property
    def is_numeric(self) -> bool:
        return self.element in (ValueType.F64, ValueType.I64)


# ---------------------------------------------------------------------------
# AST


@dataclass(frozen=True)
class Literal:
    value: float | int | bool
    type: ValueType
    span: Span = field(compare=False, default=(0, 0))


@dataclass(frozen=True)
class ColumnRef:
    name: str
    span: Span = field(compare=False, default=(0, 0))


@dataclass(frozen=True)
class Unary:
    op: str  # "!" or "-"
    operand: "Expr"
    span: Span = field(compare=False, default=(0, 0))


@dataclass(frozen=True)
class Binary:
    op: str  # * / % + - < <= > >= == != && ||
    left: "Expr"
    right: "Expr"
    span: Span = field(compare=False, default=(0, 0))


@dataclass(frozen=True)
class Ternary:
    cond: "Expr"
    then: "Expr"
    other: "Expr"
    span: Span = field(compare=False, default=(0, 0))


@dataclass(frozen=True)
class Call:
    func: str
    args: tuple["Expr", ...]
    span: Span = field(compare=False, default=(0, 0))


@dataclass(frozen=True)
class Index:
    base: "Expr"
    index: "Expr"
    span: Span = field(compare=False, default=(0, 0))


Expr = Literal | ColumnRef | Unary | Binary | Ternary | Call | Index

FUNCTIONS = ("len", "sum", "min", "max", "abs", "sqrt", "log", "exp", "where")


# ---------------------------------------------------------------------------
# Lexer

_TOKEN_RE = re.compile(
    r"""
    (?P<ws>\s+)
  | (?P<num>(?:\d+\.\d*|\.\d+|\d+)(?:[eE][+-]?\d+)?)
  | (?P<ident>[A-Za-z_][A-Za-z0-9_]*)
  | (?P<op>\|\||&&|==|!=|<=|>=|[-+*/%!<>?:,()\[\]])
    """,
    re.VERBOSE,
)


@dataclass(frozen=True)
class _Token:
    kind: str  # "num" | "ident" | "op" | "eof"
    text: str
    span: Span


def _lex(text: str) -> list[_Token]:
    tokens: list[_Token] = []
    line, col, pos = 1, 1, 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            raise ExprSyntaxError((line, col), f"unexpected character {text[pos]!r}")
        kind = m.lastgroup
        chunk = m.group()
        if kind != "ws":
            tokens.append(_Token(kind, chunk, (line, col)))
        newlines = chunk.count("\n")
        if newlines:
            line += newlines
            col = len(chunk) - chunk.rfind("\n")
        else:
            col += len(chunk)
        pos = m.end()
    tokens.append(_Token("eof", "", (line, col)))
    return tokens


# ---------------------------------------------------------------------------
# Parser (recursive descent, one level per precedence tier)

_CMP_OPS = ("<", "<=", ">", ">=", "==", "!=")


class _Parser:
    def __init__(self, tokens: list[_Token]):
        self._tokens = tokens
        self._pos = 0

    def _peek(self) -> _Token:
        return self._tokens[self._pos]

    def _next(self) -> _Token:
        tok = self._tokens[self._pos]
        self._pos += 1
        return tok

    def _expect(self, text: str) -> _Token:
        tok = self._peek()
        if tok.kind != "op" or tok.text != text:
            shown = tok.text if tok.kind != "eof" else "end of input"
            raise ExprSyntaxError(tok.span, f"expected {text!r}, found {shown!r}")
        return self._next()

    def _at_op(self, *texts: str) -> bool:
        tok = self._peek()
        return tok.kind == "op" and tok.text in texts

    def parse(self) -> Expr:
        expr = self.expr()
        tok = self._peek()
        if tok.kind != "eof":
            raise ExprSyntaxError(tok.span, f"unexpected {tok.text!r} after expression")
        return expr

    def expr(self) -> Expr:
        cond = self.or_level()
        if self._at_op("?"):
            span = self._next().span
            then = self.expr()
            self._expect(":")
            other = self.expr()
            return Ternary(cond, then, other, span)
        return cond

    def or_level(self) -> Expr:
        node = self.and_level()
        while self._at_op("||"):
            span = self._next().span
            node = Binary("||", node, self.and_level(), span)
        return node

    def and_level(self) -> Expr:
        node = self.cmp_level()
        while self._at_op("&&"):
            span = self._next().span
            node = Binary("&&", node, self.cmp_level(), span)
        return node

    def cmp_level(self) -> Expr:
        node = self.add_level()
        if self._at_op(*_CMP_OPS):  # single optional comparison: a < b < c rejected
            tok = self._next()
            node = Binary(tok.text, node, self.add_level(), tok.span)
        return node

    def add_level(self) -> Expr:
        node = self.mul_level()
        while self._at_op("+", "-"):
            tok = self._next()
            node = Binary(tok.text, node, self.mul_level(), tok.span)
        return node

    def mul_level(self) -> Expr:
        node = self.unary_level()
        while self._at_op("*", "/", "%"):
            tok = self._next()
            node = Binary(tok.text, node, self.unary_level(), tok.span)
        return node

    def unary_level(self) -> Expr:
        if self._at_op("!", "-"):
            tok = self._next()
            return Unary(tok.text, self.postfix_level(), tok.span)
        return self.postfix_level()

    def postfix_level(self) -> Expr:
        node = self.atom()
        while self._at_op("["):
            span = self._next().span
            index = self.expr()
            self._expect("]")
            node = Index(node, index, span)
        return node

    def atom(self) -> Expr:
        tok = self._next()
        if tok.kind == "num":
            if any(c in tok.text for c in ".eE"):
                return Literal(float(tok.text), ValueType.F64, tok.span)
            return Literal(int(tok.text), ValueType.I64, tok.span)
        if tok.kind == "ident":
            if tok.text == "true":
                return Literal(True, ValueType.BOOL, tok.span)
            if tok.text == "false":
                return Literal(False, ValueType.BOOL, tok.span)
            if self._at_op("("):
                self._next()
                args: list[Expr] = []
                if not self._at_op(")"):
                    args.append(self.expr())
                    while self._at_op(","):
                        self._next()
                        args.append(self.expr())
                self._expect(")")
                return Call(tok.text, tuple(args), tok.span)
            return ColumnRef(tok.text, tok.span)
        if tok.kind == "op" and tok.text == "(":
            node = self.expr()
            self._expect(")")
            return node
        shown = tok.text if tok.kind != "eof" else "end of input"
        raise ExprSyntaxError(tok.span, f"expected an expression, found {shown!r}")


def parse(text: str) -> Expr:
    """Parse source text into an AST; raises ExprSyntaxError with line:col."""
    return _Parser(_lex(text)).parse()


# ---------------------------------------------------------------------------
# Printer


def to_text(expr: Expr) -> str:
    """Canonical text form; reparsing yields a structurally identical AST."""
    if isinstance(expr, Literal):
        if expr.type is ValueType.BOOL:
            return "true" if expr.value else "false"
        return repr(expr.value)
    if isinstance(expr, ColumnRef):
        return expr.name
    if isinstance(expr, Unary):
        return f"({expr.op}{to_text(expr.operand)})"
    if isinstance(expr, Binary):
        return f"({to_text(expr.left)} {expr.op} {to_text(expr.right)})"
    if isinstance(expr, Ternary):
        return f"({to_text(expr.cond)} ? {to_text(expr.then)} : {to_text(expr.other)})"
    if isinstance(expr, Call):
        return f"{expr.func}({', '.join(to_text(a) for a in expr.args)})"
    if isinstance(expr, Index):
        return f"{to_text(expr.base)}[{to_text(expr.index)}]"
    raise TypeError(f"not an Expr node: {expr!r}")


def columns_used(expr: Expr) -> set[str]:
    """Names of all columns the expression reads."""
    out: set[str] = set()

    def walk(node: Expr) -> None:
        if isinstance(node, ColumnRef):
            out.add(node.name)
        elif isinstance(node, Unary):
            walk(node.operand)
        elif isinstance(node, Binary):
            walk(node.left), walk(node.right)
        elif isinstance(node, Ternary):
            walk(node.cond), walk(node.then), walk(node.other)
        elif isinstance(node, Call):
            for a in node.args:
                walk(a)
        elif isinstance(node, Index):
            walk(node.base), walk(node.index)

    walk(expr)
    return out


# ---------------------------------------------------------------------------
# Type pass: the only place that knows type rules, promotion and ExprTypeError


def _num_promote(a: ValueType, b: ValueType) -> ValueType:
    return ValueType.I64 if a.element is ValueType.I64 and b.element is ValueType.I64 else ValueType.F64


def _infer(node: Expr, schema: dict[str, ValueType], types: dict[int, ValueType]) -> ValueType:
    """Type of node under schema; records it, and every subexpression's, in types."""
    t = _infer_node(node, schema, types)
    types[id(node)] = t
    return t


def _infer_node(node: Expr, schema: dict[str, ValueType], types: dict[int, ValueType]) -> ValueType:
    if isinstance(node, Literal):
        return node.type

    if isinstance(node, ColumnRef):
        t = schema.get(node.name)
        if t is None:
            raise ExprTypeError(node.span, f"unknown column {node.name!r}")
        return t

    if isinstance(node, Unary):
        t = _infer(node.operand, schema, types)
        if node.op == "!":
            if t in (ValueType.BOOL, ValueType.VEC_BOOL):
                return t
            raise ExprTypeError(node.span, f"'!' needs BOOL, got {t.name}")
        if not t.is_numeric:
            raise ExprTypeError(node.span, f"unary '-' needs a numeric value, got {t.name}")
        return t

    if isinstance(node, Binary):
        lt = _infer(node.left, schema, types)
        rt = _infer(node.right, schema, types)
        op = node.op
        if op in ("&&", "||"):
            if lt is rt and lt in (ValueType.BOOL, ValueType.VEC_BOOL):
                return lt
            raise ExprTypeError(node.span, f"'{op}' needs BOOL or VEC_BOOL on both sides, got {lt.name} and {rt.name}")
        if not (lt.is_numeric and rt.is_numeric):
            raise ExprTypeError(node.span, f"'{op}' needs numeric operands, got {lt.name} and {rt.name}")
        out = ValueType.BOOL if op in _CMP_OPS else _num_promote(lt, rt)
        return out.vector if lt.is_vector or rt.is_vector else out

    if isinstance(node, Ternary):
        ct = _infer(node.cond, schema, types)
        if ct is not ValueType.BOOL:
            raise ExprTypeError(node.span, f"ternary condition must be scalar BOOL, got {ct.name}")
        tt = _infer(node.then, schema, types)
        et = _infer(node.other, schema, types)
        if tt is et:
            return tt
        if tt.is_numeric and et.is_numeric and tt.is_vector == et.is_vector:
            out = _num_promote(tt, et)
            return out.vector if tt.is_vector else out
        raise ExprTypeError(node.span, f"ternary branches disagree: {tt.name} vs {et.name}")

    if isinstance(node, Index):
        bt = _infer(node.base, schema, types)
        it = _infer(node.index, schema, types)
        if not bt.is_vector:
            raise ExprTypeError(node.span, f"indexing needs a vector, got {bt.name}")
        if it is not ValueType.I64:
            raise ExprTypeError(node.span, f"index must be I64, got {it.name}")
        return bt.element

    if isinstance(node, Call):
        return _infer_call(node, schema, types)

    raise TypeError(f"not an Expr node: {node!r}")


def _infer_call(node: Call, schema: dict[str, ValueType], types: dict[int, ValueType]) -> ValueType:
    span = node.span
    name = node.func
    if name not in FUNCTIONS:
        raise ExprTypeError(span, f"unknown function {name!r}")
    want = 2 if name == "where" else 1
    if len(node.args) != want:
        raise ExprTypeError(span, f"{name}() takes {want} argument{'s' if want > 1 else ''}, got {len(node.args)}")
    at, *rest = [_infer(a, schema, types) for a in node.args]

    if name == "len":
        if not at.is_vector:
            raise ExprTypeError(span, f"len() needs a vector, got {at.name}")
        return ValueType.I64

    if name in ("sum", "min", "max"):
        if not (at.is_vector and at.is_numeric):
            raise ExprTypeError(span, f"{name}() needs a numeric vector, got {at.name}")
        return ValueType.F64 if name == "sum" else at.element

    if name != "where":  # abs, sqrt, log, exp
        if not at.is_numeric:
            raise ExprTypeError(span, f"{name}() needs a numeric value, got {at.name}")
        if name == "abs":
            return at
        return ValueType.VEC_F64 if at.is_vector else ValueType.F64

    if not at.is_vector:
        raise ExprTypeError(span, f"where() needs a vector first argument, got {at.name}")
    if rest[0] is not ValueType.VEC_BOOL:
        raise ExprTypeError(span, f"where() mask must be VEC_BOOL, got {rest[0].name}")
    return at


def typecheck(expr: Expr, schema: dict[str, ValueType]) -> ValueType:
    """Result type of expr under schema; raises ExprTypeError. Builds no closures."""
    return _infer(expr, schema, {})


# ---------------------------------------------------------------------------
# Closure half: per-event closures shaped by the types the type pass recorded


def _fdiv(n: float, d: float) -> float:
    if d != 0.0:
        return n / d
    if n == 0.0 or math.isnan(n):
        return math.nan
    return math.copysign(math.inf, n) * math.copysign(1.0, d)


def _fmod(n: float, d: float) -> float:
    if d == 0.0 or math.isnan(n) or math.isnan(d) or math.isinf(n):
        return math.nan
    return math.fmod(n, d)


def _sqrt(x: float) -> float:
    return math.sqrt(x) if x >= 0.0 else math.nan


def _log(x: float) -> float:
    if x > 0.0:
        return math.log(x)
    return -math.inf if x == 0.0 else math.nan


def _exp(x: float) -> float:
    try:
        return math.exp(x)
    except OverflowError:
        return math.inf


_Fn = Callable[[dict], object]

_MATH_FUNCS = {"abs": abs, "sqrt": _sqrt, "log": _log, "exp": _exp}

_OP_FUNCS = {
    "+": lambda a, b: a + b,
    "-": lambda a, b: a - b,
    "*": lambda a, b: a * b,
    "<": lambda a, b: a < b,
    "<=": lambda a, b: a <= b,
    ">": lambda a, b: a > b,
    ">=": lambda a, b: a >= b,
    "==": lambda a, b: a == b,
    "!=": lambda a, b: a != b,
}


def _zip_pairs(lv: list, rv: list, span: Span) -> zip:
    if len(lv) != len(rv):
        raise EvalError(span, f"vector length mismatch: {len(lv)} vs {len(rv)}")
    return zip(lv, rv)


def _int_op(op: str, span: Span):
    """I64 `/` or `%`: floor semantics, and a zero divisor is an eval error."""
    if op == "/":
        def div(a, b):
            if b == 0:
                raise EvalError(span, "integer division by zero")
            return a // b

        return div

    def mod(a, b):
        if b == 0:
            raise EvalError(span, "integer modulo by zero")
        return a % b

    return mod


def _as_type(node: Expr, want: ValueType, types: dict[int, ValueType]) -> _Fn:
    """node's closure, its values made floats where the type pass widened I64 to F64."""
    fn = _compile(node, types)
    if types[id(node)] is want:
        return fn
    if want.is_vector:
        return lambda ctx: [float(x) for x in fn(ctx)]
    return lambda ctx: float(fn(ctx))


def _compile(node: Expr, types: dict[int, ValueType]) -> _Fn:
    t = types[id(node)]

    if isinstance(node, Literal):
        v = node.value
        return lambda ctx: v

    if isinstance(node, ColumnRef):
        name = node.name
        return lambda ctx: ctx[name]

    if isinstance(node, Unary):
        f = _compile(node.operand, types)
        if node.op == "!":
            if t.is_vector:
                return lambda ctx: [not b for b in f(ctx)]
            return lambda ctx: not f(ctx)
        if t.is_vector:
            return lambda ctx: [-x for x in f(ctx)]
        return lambda ctx: -f(ctx)

    if isinstance(node, Binary):
        lf = _compile(node.left, types)
        rf = _compile(node.right, types)
        op = node.op
        span = node.span
        if op in ("&&", "||"):
            if t is ValueType.BOOL:
                if op == "&&":
                    return lambda ctx: rf(ctx) if lf(ctx) else False
                return lambda ctx: True if lf(ctx) else rf(ctx)
            combine = (lambda a, b: a and b) if op == "&&" else (lambda a, b: a or b)
            return lambda ctx: [combine(a, b) for a, b in _zip_pairs(lf(ctx), rf(ctx), span)]

        if op == "/" or op == "%":
            if t.element is ValueType.I64:
                f = _int_op(op, span)
            else:
                f = _fdiv if op == "/" else _fmod
        else:
            f = _OP_FUNCS[op]
        lvec = types[id(node.left)].is_vector
        rvec = types[id(node.right)].is_vector
        if lvec and rvec:
            return lambda ctx: [f(a, b) for a, b in _zip_pairs(lf(ctx), rf(ctx), span)]
        if lvec:
            return lambda ctx: (lambda v, s: [f(a, s) for a in v])(lf(ctx), rf(ctx))
        if rvec:
            return lambda ctx: (lambda s, v: [f(s, b) for b in v])(lf(ctx), rf(ctx))
        if t is ValueType.F64:
            return lambda ctx: float(f(lf(ctx), rf(ctx)))
        return lambda ctx: f(lf(ctx), rf(ctx))

    if isinstance(node, Ternary):
        cf = _compile(node.cond, types)
        tf = _as_type(node.then, t, types)
        ef = _as_type(node.other, t, types)
        return lambda ctx: tf(ctx) if cf(ctx) else ef(ctx)

    if isinstance(node, Index):
        bf = _compile(node.base, types)
        if_ = _compile(node.index, types)
        span = node.span

        def index_fn(ctx):
            v = bf(ctx)
            i = if_(ctx)
            if not 0 <= i < len(v):
                raise EvalError(span, f"index {i} out of range for length {len(v)}")
            return v[i]

        return index_fn

    if isinstance(node, Call):
        return _compile_call(node, t, types)

    raise TypeError(f"not an Expr node: {node!r}")


def _compile_call(node: Call, t: ValueType, types: dict[int, ValueType]) -> _Fn:
    span = node.span
    name = node.func
    af = _compile(node.args[0], types)

    if name == "len":
        return lambda ctx: len(af(ctx))

    if name == "sum":
        return lambda ctx: float(sum(af(ctx)))  # left-to-right

    if name in ("min", "max"):
        reduce = min if name == "min" else max

        def extremum(ctx):
            v = af(ctx)
            if not v:
                raise EvalError(span, f"{name}() of an empty vector")
            return reduce(v)

        return extremum

    if name == "where":
        mf = _compile(node.args[1], types)
        return lambda ctx: [x for x, keep in _zip_pairs(af(ctx), mf(ctx), span) if keep]

    f = _MATH_FUNCS[name]
    if t.is_vector:
        return lambda ctx: [f(x) for x in af(ctx)]
    return lambda ctx: f(af(ctx))


def compile_expr(expr: Expr, schema: dict[str, ValueType]) -> _Fn:
    """Typecheck expr, then compile it to a closure over row contexts."""
    types: dict[int, ValueType] = {}
    _infer(expr, schema, types)
    return _compile(expr, types)
