"""A small typed expression language over per-event columns.

Pipelines describe derived quantities, selections, and variations as
strings in a C-flavored syntax::

    sum(where(Jet_pt, Jet_eta < 2.4 && Jet_pt > 30)) / MET_pt

Values are F64/I64/BOOL scalars or vectors of them. `ValueType` is also
the one column type of the file format: its values 1-5 are the footer's u8
dtype codes. VEC_BOOL (6) arises only transiently (vector comparisons
feeding `where` or boolean algebra) and is not `storable`. Precedence:
`?:` loosest, then the binary tiers of `_TIERS` from loosest to tightest
(comparisons non-associative), then unary. `parse` refuses an expression
nested deeper than `MAX_DEPTH`.

The public surface is `parse`, `typecheck`, `compile_expr`, `to_text`
(canonical printing), `columns_used` and `Jagged`. Past the parser the
module has two halves. The type pass (`typecheck`) holds every type and
promotion rule and every ExprTypeError. The evaluator (`compile_expr`)
returns a function of a batch of rows: an object with `ids` (each row's
entry number), `column(name)` and `where(mask)` (the rows a boolean mask
keeps, as the same kind of object). A scalar value is a numpy array, a
vector value a `Jagged`. Each node is evaluated once per batch, only on
the rows where it is live: a ternary's branches under `cond` and `~cond`,
the right side of a scalar `&&`/`||` only where it decides the result.
The evaluator checks and promotes nothing the type pass did not record.

Semantics chosen once and kept fixed:
  - mixed I64/F64 arithmetic and comparison promote to F64; I64/I64
    division is floor division and I64 division or modulo by zero is an
    eval error
  - an I64 result outside int64 (`+ - *`, unary `-`, `abs`,
    `INT64_MIN / -1`) is an eval error; an integer literal outside int64
    is an ExprTypeError
  - F64 division by zero follows IEEE-754 (inf/nan), F64 `x % y` is C's
    fmod (nan for y = 0); the sign of a NaN result is not pinned
  - `log` and `exp` are Python's `math` functions per element, so their
    bits are the C library's (numpy's SIMD versions differ by up to 1 ulp)
  - `sum` always yields F64, left to right (an empty vector sums to 0.0);
    a VEC_I64 sums exactly and rounds once. `min`/`max` keep the first of
    equal values and a leading NaN, as Python's do; on an empty vector they
    are an eval error; `len` yields I64
  - elementwise ops require equal vector lengths; `v[i]` requires
    0 <= i < len(v) (negative indices are out of range)
  - scalar `&&`/`||` short-circuit; on VEC_BOOL they are elementwise

An EvalError carries the failing row's entry number. When several rows or
nodes fail, it names the first failing row of the first failing node in
evaluation order (operands left to right, `then` before `other`).
"""

from __future__ import annotations

import functools
import math
import re
from dataclasses import dataclass, field
from enum import IntEnum
from typing import Callable

import numpy as np

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
    def __init__(self, span: Span, message: str, entry: int | None = None):
        super().__init__(span, message)
        self.entry = entry  # the failing row's entry number


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


I64_MIN, I64_MAX = -(2**63), 2**63 - 1


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
_TIERS = (("||",), ("&&",), _CMP_OPS, ("+", "-"), ("*", "/", "%"))  # binary operators, loosest first

MAX_DEPTH = 64
"""The deepest expression `parse` accepts: in tree levels, and in levels the
parser opens (each parenthesis, bracket, argument list and ternary branch;
so a parenthesized ternary takes two). The parser takes ~10 Python frames
per level it opens, and typing, evaluating, printing or walking the tree at
most 2 per tree level, so none comes near Python's default recursion limit
of 1000."""


class _Parser:
    def __init__(self, tokens: list[_Token]):
        self._tokens = tokens
        self._pos = 0
        self._nesting = 0  # expr() calls open on the stack

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
        self._nesting += 1
        if self._nesting > MAX_DEPTH:
            raise ExprSyntaxError(self._peek().span, f"expression nests deeper than MAX_DEPTH ({MAX_DEPTH})")
        node = self.binary()
        if self._at_op("?"):
            span = self._next().span
            then = self.expr()
            self._expect(":")
            node = Ternary(node, then, self.expr(), span)
        self._nesting -= 1
        return node

    def binary(self, tier: int = 0) -> Expr:
        """Operators of _TIERS[tier] and tighter, left-associative; one comparison at most."""
        if tier == len(_TIERS):
            return self.unary_level()
        node = self.binary(tier + 1)
        while self._at_op(*_TIERS[tier]):
            tok = self._next()
            node = Binary(tok.text, node, self.binary(tier + 1), tok.span)
            if _TIERS[tier] is _CMP_OPS:  # a < b < c is rejected
                break
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


def _children(node: Expr) -> tuple[Expr, ...]:
    if isinstance(node, Unary):
        return (node.operand,)
    if isinstance(node, Binary):
        return node.left, node.right
    if isinstance(node, Ternary):
        return node.cond, node.then, node.other
    if isinstance(node, Call):
        return node.args
    if isinstance(node, Index):
        return node.base, node.index
    return ()


@functools.lru_cache(maxsize=4096)  # ASTs are immutable; scheduler and worker load each document
def parse(text: str) -> Expr:
    """Parse source text into an AST; raises ExprSyntaxError with line:col,
    also for a tree deeper than MAX_DEPTH."""
    expr = _Parser(_lex(text)).parse()
    level = [expr]
    for _ in range(MAX_DEPTH):
        level = [c for node in level for c in _children(node)]
    if level:
        raise ExprSyntaxError(level[0].span, f"expression nests deeper than MAX_DEPTH ({MAX_DEPTH})")
    return expr


# ---------------------------------------------------------------------------
# Printer


def to_text(expr: Expr) -> str:
    """Canonical text form; reparsing yields a structurally identical AST
    (where its parentheses stay within MAX_DEPTH)."""
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
    if isinstance(expr, ColumnRef):
        return {expr.name}
    return set().union(*map(columns_used, _children(expr)))


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
        if node.type is ValueType.I64 and not I64_MIN <= node.value <= I64_MAX:
            raise ExprTypeError(node.span, f"integer literal {node.value} is outside I64")
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
    """Result type of expr under schema; raises ExprTypeError. Evaluates nothing."""
    return _infer(expr, schema, {})


# ---------------------------------------------------------------------------
# Batch evaluation: each node once per batch, over the live rows only


@dataclass(frozen=True, eq=False)
class Jagged:
    """A vector value per row: int64 lengths, then every row's elements back to back."""

    lengths: np.ndarray
    values: np.ndarray

    def __len__(self) -> int:
        return len(self.lengths)

    def offsets(self) -> np.ndarray:
        """Where each row starts in values, then the end: len(self) + 1 entries."""
        out = np.zeros(len(self.lengths) + 1, dtype=np.int64)
        np.cumsum(self.lengths, out=out[1:])
        return out

    def __getitem__(self, rows) -> "Jagged":
        """The rows a slice (step 1) or a boolean mask selects."""
        if isinstance(rows, slice):
            lo, hi, _ = rows.indices(len(self.lengths))
            offsets = self.offsets()
            return Jagged(self.lengths[lo:hi], self.values[offsets[lo] : offsets[max(lo, hi)]])
        return Jagged(self.lengths[rows], self.values[np.repeat(rows, self.lengths)])


Value = np.ndarray | Jagged

_DTYPES = {ValueType.F64: np.float64, ValueType.I64: np.int64, ValueType.BOOL: np.bool_}


class _Bad(Exception):
    """An element kernel's failure: args are (flat index of the first bad element, message)."""


_BY_ZERO = {"'/'": "integer division by zero", "'%'": "integer modulo by zero"}


_PRODUCT_SAFE = math.isqrt(I64_MAX)  # two factors within +-this multiply inside int64


def _sum_overflows(out: np.ndarray, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return ((a ^ out) & (b ^ out)) < 0  # the wrapped sum's sign differs from both operands'


def _difference_overflows(out: np.ndarray, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return ((a ^ b) & (a ^ out)) < 0  # opposite signs, and the wrapped result's differs from a's


def _product_overflows(out: np.ndarray, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Rows whose exact product leaves int64, checked in Python ints only where a factor is large."""
    bad = np.zeros(len(out), dtype=bool)
    rows = np.flatnonzero((a > _PRODUCT_SAFE) | (a < -_PRODUCT_SAFE) | (b > _PRODUCT_SAFE) | (b < -_PRODUCT_SAFE))
    bad[rows] = [not I64_MIN <= x * y <= I64_MAX for x, y in zip(a[rows].tolist(), b[rows].tolist())]
    return bad


def _negation_overflows(out: np.ndarray, a: np.ndarray) -> np.ndarray:
    return a == I64_MIN  # the one int64 without a positive counterpart


def _quotient_overflows(out: np.ndarray, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return (a == I64_MIN) & (b == -1)  # floor division's one quotient past INT64_MAX


def _arith(label: str, f64, i64=None, overflows=None):
    """An arithmetic kernel: f64 on F64. On I64, i64 (default f64) runs in
    wrapping int64; a row that divides by zero, or whose exact result leaves
    int64 (as `overflows(out, *args)` marks it), is an eval error."""
    by_zero = _BY_ZERO.get(label)

    def kernel(*args):
        if args[0].dtype != np.int64:
            return f64(*args)
        cases = []
        if by_zero:
            zero = args[1] == 0
            args = (args[0], np.where(zero, 1, args[1]))  # reported below; keeps the division itself defined
            cases.append((zero, by_zero))
        with np.errstate(over="ignore"):  # INT64_MIN // -1 wraps, and is reported below
            out = (i64 or f64)(*args)
        if overflows is not None:
            cases.append((overflows(out, *args), f"I64 overflow in {label}"))
        firsts = [(int(np.argmax(bad)), message) for bad, message in cases if bad.any()]
        if firsts:
            raise _Bad(*min(firsts))  # the first bad element, whatever its kind
        return out

    return kernel


def _per_element(f):
    """f on each element as a Python float: the C library's result to the bit."""
    return lambda a: np.array([f(x) for x in a.tolist()], dtype=np.float64)


def _log(x: float) -> float:
    if x > 0.0:
        return math.log(x)
    return -math.inf if x == 0.0 else math.nan


def _exp(x: float) -> float:
    try:
        return math.exp(x)
    except OverflowError:
        return math.inf


_KERNELS = {
    "+": _arith("'+'", np.add, overflows=_sum_overflows),
    "-": _arith("'-'", np.subtract, overflows=_difference_overflows),
    "*": _arith("'*'", np.multiply, overflows=_product_overflows),
    "/": _arith("'/'", np.divide, np.floor_divide, overflows=_quotient_overflows),
    "%": _arith("'%'", np.fmod, np.remainder),
    "neg": _arith("unary '-'", np.negative, overflows=_negation_overflows),
    "abs": _arith("abs()", np.abs, overflows=_negation_overflows),
    "<": np.less, "<=": np.less_equal, ">": np.greater, ">=": np.greater_equal,
    "==": np.equal, "!=": np.not_equal, "&&": np.logical_and, "||": np.logical_or, "!": np.logical_not,
    "sqrt": np.sqrt, "log": _per_element(_log), "exp": _per_element(_exp),
}


def _cast(value: Value, t: ValueType) -> Value:
    """value with t's element dtype (I64 widened to F64 where the type pass widened it)."""
    if isinstance(value, Jagged):
        return Jagged(value.lengths, _cast(value.values, t))
    return value.astype(_DTYPES[t.element], copy=False)


def _merge(cond: np.ndarray, a: Value, b: Value) -> Value:
    """a's rows where cond is set and b's elsewhere; a and b hold only their own rows."""
    if isinstance(a, Jagged):
        lengths = _merge(cond, a.lengths, b.lengths)
        return Jagged(lengths, _merge(np.repeat(cond, lengths), a.values, b.values))
    out = np.empty(len(cond), a.dtype)
    out[cond] = a
    out[~cond] = b
    return out


def _mismatch(node: Expr, rows, a: Jagged, b: Jagged, r: int) -> EvalError:
    return EvalError(node.span, f"vector length mismatch: {a.lengths[r]} vs {b.lengths[r]}", int(rows.ids[r]))


def _elementwise(node: Expr, rows, kernel, *args: Value) -> Value:
    """kernel over the elements of args; a scalar repeats over its row's vector."""
    vectors = [a for a in args if isinstance(a, Jagged)]
    lengths = vectors[0].lengths if vectors else None
    for v in vectors[1:]:
        differ = v.lengths != lengths
        if differ.any():
            r = int(np.argmax(differ))
            _elementwise(node, rows, kernel, *(a[:r] for a in args))  # an earlier row may fail first
            raise _mismatch(node, rows, vectors[0], v, r)
    if lengths is None:
        flat = args
    else:
        flat = [a.values if isinstance(a, Jagged) else np.repeat(a, lengths) for a in args]
    try:
        out = kernel(*flat)
    except _Bad as bad:
        index, message = bad.args
        r = index if lengths is None else int(np.searchsorted(np.cumsum(lengths), index, side="right"))
        raise EvalError(node.span, message, int(rows.ids[r])) from None
    return out if lengths is None else Jagged(lengths, out)


def _fold(v: Jagged, acc: np.ndarray, step, first: int = 0) -> np.ndarray:
    """Fold element k into the rows longer than k, for k = first, first + 1, ... in turn.

    This keeps each row's left-to-right order; numpy's add.reduce would
    not (it sums pairwise once a row has more than 8 elements).
    """
    starts = v.offsets()[:-1]
    for k in range(first, int(v.lengths.max(initial=0))):
        longer = v.lengths > k
        acc[longer] = step(acc[longer], v.values[starts[longer] + k])
    return acc


def _ordered_sum(v: Jagged) -> np.ndarray:
    """Each F64 row's sum from 0.0, left to right, with _fold's bits: element k
    of every row is added in turn from a zero-padded grid. A sum from +0.0
    never becomes -0.0, so a pad's +0.0 leaves it as it is. Where a few long
    rows would make the grid mostly pads, _fold sums instead."""
    width = int(v.lengths.max(initial=0))
    if len(v) * width > 8 * len(v.values) + 64:
        return _fold(v, np.zeros(len(v)), np.add)
    grid = np.zeros((len(v), width))
    grid[v.lengths[:, None] > np.arange(width)] = v.values
    acc = np.zeros(len(v))
    for elements in grid.T:
        acc += elements
    return acc


def _under(node: Expr, types: dict[int, ValueType], rows, mask: np.ndarray) -> Value:
    """node's value on the rows where mask is set, evaluated on those rows only."""
    return _eval(node, types, rows if mask.all() else rows.where(mask))


def _eval(node: Expr, types: dict[int, ValueType], rows) -> Value:
    if isinstance(node, Literal):
        return np.full(len(rows.ids), node.value, _DTYPES[node.type])

    if isinstance(node, ColumnRef):
        return rows.column(node.name)

    if isinstance(node, Unary):
        kernel = _KERNELS["!" if node.op == "!" else "neg"]
        return _elementwise(node, rows, kernel, _eval(node.operand, types, rows))

    if isinstance(node, Binary):
        t = types[id(node)]
        left = _eval(node.left, types, rows)
        if t is ValueType.BOOL and node.op in ("&&", "||"):
            undecided = left if node.op == "&&" else ~left
            out = left.copy()
            if undecided.any():
                out[undecided] = _under(node.right, types, rows, undecided)
            return out
        right = _eval(node.right, types, rows)
        if node.op in _CMP_OPS:
            t = _num_promote(types[id(node.left)], types[id(node.right)])
        if t.is_numeric:
            left, right = _cast(left, t), _cast(right, t)
        return _elementwise(node, rows, _KERNELS[node.op], left, right)

    if isinstance(node, Ternary):
        t = types[id(node)]
        cond = _eval(node.cond, types, rows)
        then = _cast(_under(node.then, types, rows, cond), t)
        other = _cast(_under(node.other, types, rows, ~cond), t)
        return _merge(cond, then, other)

    if isinstance(node, Index):
        base = _eval(node.base, types, rows)
        i = _eval(node.index, types, rows)
        bad = (i < 0) | (i >= base.lengths)
        if bad.any():
            r = int(np.argmax(bad))
            raise EvalError(node.span, f"index {i[r]} out of range for length {base.lengths[r]}", int(rows.ids[r]))
        return base.values[base.offsets()[:-1] + i]

    if isinstance(node, Call):
        return _eval_call(node, types, rows)

    raise TypeError(f"not an Expr node: {node!r}")


def _eval_call(node: Call, types: dict[int, ValueType], rows) -> Value:
    name = node.func
    arg = _eval(node.args[0], types, rows)

    if name == "len":
        return arg.lengths

    if name == "sum":
        if arg.values.dtype == np.int64:  # exact in Python ints, then rounded once
            exact = _fold(Jagged(arg.lengths, arg.values.astype(object)), np.zeros(len(arg), object), np.add)
            return exact.astype(np.float64)
        return _ordered_sum(arg)

    if name in ("min", "max"):
        empty = arg.lengths == 0
        if empty.any():
            raise EvalError(node.span, f"{name}() of an empty vector", int(rows.ids[np.argmax(empty)]))
        better = np.less if name == "min" else np.greater
        # replace only on a strict improvement: the first of equals and a leading NaN stay
        return _fold(arg, arg.values[arg.offsets()[:-1]], lambda acc, x: np.where(better(x, acc), x, acc), 1)

    if name == "where":
        keep = _eval(node.args[1], types, rows)
        differ = arg.lengths != keep.lengths
        if differ.any():
            raise _mismatch(node, rows, arg, keep, int(np.argmax(differ)))
        row_of = np.repeat(np.arange(len(arg)), arg.lengths)
        return Jagged(np.bincount(row_of[keep.values], minlength=len(arg)), arg.values[keep.values])

    if name != "abs":  # sqrt, log, exp
        arg = _cast(arg, ValueType.F64)
    return _elementwise(node, rows, _KERNELS[name], arg)


def compile_expr(expr: Expr, schema: dict[str, ValueType]) -> Callable[[object], Value]:
    """Typecheck expr, then return its evaluator over a batch's live rows."""
    types: dict[int, ValueType] = {}
    _infer(expr, schema, types)

    def evaluate(rows) -> Value:
        with np.errstate(all="ignore"):  # IEEE-754 results are the semantics, not warnings
            return _eval(expr, types, rows)

    return evaluate
