import inspect
import math
import re
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from colflow.exprlang import (
    Binary,
    Call,
    ColumnRef,
    EvalError,
    ExprSyntaxError,
    ExprTypeError,
    MAX_DEPTH,
    Index,
    Jagged,
    Literal,
    Ternary,
    Unary,
    ValueType,
    _fold,
    columns_used,
    compile_expr,
    parse,
    to_text,
    typecheck,
)
from conftest import as_python, batch_of, eval_row, vector_rows

SCHEMA = {
    "MET_pt": ValueType.F64,
    "event_weight": ValueType.F64,
    "nJet": ValueType.I64,
    "Jet_pt": ValueType.VEC_F64,
    "Jet_eta": ValueType.VEC_F64,
    "hits": ValueType.VEC_I64,
    "passed": ValueType.BOOL,
}

ROW = {
    "MET_pt": 55.0,
    "event_weight": 0.9,
    "nJet": 3,
    "Jet_pt": [50.0, 40.0, 10.0],
    "Jet_eta": [1.0, 3.0, 0.5],
    "hits": [4, 1, 7],
    "passed": True,
}


VF = {"v": ValueType.VEC_F64}


def ev(src: str, row=None):
    return eval_row(parse(src), SCHEMA, row if row is not None else dict(ROW))


def eval_expr(src: str, row: dict, schema: dict):
    return eval_row(parse(src), schema, row)


# --- parsing ---------------------------------------------------------------


def test_precedence_and_at_root():
    ast = parse("Jet_pt[0] > 30 && MET_pt > 50")
    assert isinstance(ast, Binary) and ast.op == "&&"
    assert isinstance(ast.left, Binary) and ast.left.op == ">"
    assert isinstance(ast.left.left, Index)


def test_incomplete_input_position():
    with pytest.raises(ExprSyntaxError) as e:
        parse("1 + ")
    assert e.value.span == (1, 5)


def test_ternary_binds_loosest():
    ast = parse("a ? b : c + 1")
    assert isinstance(ast, Ternary)
    assert isinstance(ast.other, Binary) and ast.other.op == "+"


def test_comparison_not_associative():
    with pytest.raises(ExprSyntaxError, match="1:7: unexpected '<' after expression"):
        parse("1 < 2 < 3")


def test_mul_binds_tighter_than_add():
    assert parse("1 + 2 * 3") == Binary("+", Literal(1, ValueType.I64),
                                        Binary("*", Literal(2, ValueType.I64), Literal(3, ValueType.I64)))


def test_unary_single_prefix_only():
    assert isinstance(parse("-x"), Unary)
    with pytest.raises(ExprSyntaxError):
        parse("--x")
    assert isinstance(parse("-(-x)").operand, Unary)


def test_call_and_index_forms():
    ast = parse("where(Jet_pt, Jet_eta < 2.4)[0]")
    assert isinstance(ast, Index) and isinstance(ast.base, Call)
    assert parse("len(v)") == Call("len", (ColumnRef("v"),))


def test_lexer_rejects_garbage():
    with pytest.raises(ExprSyntaxError):
        parse("a @ b")
    with pytest.raises(ExprSyntaxError):
        parse("")


# --- typecheck --------------------------------------------------------------


def test_reduction_types():
    assert typecheck(parse("sum(Jet_pt)"), SCHEMA) is ValueType.F64
    assert typecheck(parse("sum(hits)"), SCHEMA) is ValueType.F64
    assert typecheck(parse("len(Jet_pt)"), SCHEMA) is ValueType.I64
    assert typecheck(parse("min(hits)"), SCHEMA) is ValueType.I64
    assert typecheck(parse("max(Jet_pt)"), SCHEMA) is ValueType.F64


def test_bool_op_on_vector_is_type_error():
    with pytest.raises(ExprTypeError):
        typecheck(parse("Jet_pt && 1"), SCHEMA)


def test_where_types():
    assert typecheck(parse("where(Jet_pt, Jet_eta < 2.4)"), SCHEMA) is ValueType.VEC_F64
    assert typecheck(parse("where(hits, hits > 2)"), SCHEMA) is ValueType.VEC_I64
    with pytest.raises(ExprTypeError):
        typecheck(parse("where(MET_pt, passed)"), SCHEMA)
    with pytest.raises(ExprTypeError):
        typecheck(parse("where(Jet_pt, Jet_eta)"), SCHEMA)


def test_promotion_rules():
    assert typecheck(parse("nJet + 1"), SCHEMA) is ValueType.I64
    assert typecheck(parse("nJet + 1.0"), SCHEMA) is ValueType.F64
    assert typecheck(parse("hits * 2"), SCHEMA) is ValueType.VEC_I64
    assert typecheck(parse("hits * 2.0"), SCHEMA) is ValueType.VEC_F64
    assert typecheck(parse("Jet_pt + hits"), SCHEMA) is ValueType.VEC_F64
    assert typecheck(parse("nJet > 1.5"), SCHEMA) is ValueType.BOOL
    assert typecheck(parse("Jet_pt > 30"), SCHEMA) is ValueType.VEC_BOOL


def test_unknown_names_and_arity():
    with pytest.raises(ExprTypeError, match="unknown column"):
        typecheck(parse("mystery + 1"), SCHEMA)
    with pytest.raises(ExprTypeError, match="unknown function"):
        typecheck(parse("frob(Jet_pt)"), SCHEMA)
    with pytest.raises(ExprTypeError, match="argument"):
        typecheck(parse("sum(Jet_pt, hits)"), SCHEMA)
    with pytest.raises(ExprTypeError, match="argument"):
        typecheck(parse("where(Jet_pt)"), SCHEMA)


def test_ternary_typing():
    assert typecheck(parse("passed ? 1 : 0"), SCHEMA) is ValueType.I64
    assert typecheck(parse("passed ? 1 : 0.5"), SCHEMA) is ValueType.F64
    assert typecheck(parse("passed ? hits : Jet_pt"), SCHEMA) is ValueType.VEC_F64
    with pytest.raises(ExprTypeError):
        typecheck(parse("Jet_pt > 30 ? 1 : 0"), SCHEMA)  # vector condition
    with pytest.raises(ExprTypeError):
        typecheck(parse("passed ? 1 : Jet_pt"), SCHEMA)


def test_index_typing():
    assert typecheck(parse("Jet_pt[0]"), SCHEMA) is ValueType.F64
    assert typecheck(parse("hits[nJet - 1]"), SCHEMA) is ValueType.I64
    with pytest.raises(ExprTypeError):
        typecheck(parse("MET_pt[0]"), SCHEMA)
    with pytest.raises(ExprTypeError):
        typecheck(parse("Jet_pt[0.5]"), SCHEMA)


# --- evaluation --------------------------------------------------------------


def test_sum_where_len_examples():
    assert eval_expr("sum(v)", {"v": [10.0, 20.0, 30.0]}, VF) == 60.0
    assert eval_expr("where(v, v > 15)", {"v": [10.0, 20.0, 30.0]}, VF) == [20.0, 30.0]
    row = {"Jet_pt": [50.0, 40.0], "Jet_eta": [1.0, 3.0]}
    assert eval_expr("len(where(Jet_pt, Jet_eta < 2.4))", row, SCHEMA) == 1


def test_short_circuit():
    assert ev("true || hits[99] > 0") is True
    assert ev("false && hits[99] > 0") is False
    with pytest.raises(EvalError):
        ev("false || hits[99] > 0")


def test_float_division_follows_ieee():
    assert ev("1.0 / 0.0") == math.inf
    assert ev("(-1.0) / 0.0") == -math.inf
    assert math.isnan(ev("0.0 / 0.0"))
    assert math.isnan(ev("5.0 % 0.0"))
    assert ev("7.0 / 2.0") == 3.5


def test_integer_division():
    assert ev("7 / 2") == 3
    assert ev("(-7) / 2") == -4
    assert ev("7 % 3") == 1
    with pytest.raises(EvalError, match="division by zero"):
        ev("7 / 0")
    with pytest.raises(EvalError, match="modulo by zero"):
        ev("7 % 0")


def test_index_out_of_range():
    with pytest.raises(EvalError, match="out of range"):
        ev("Jet_pt[3]")
    with pytest.raises(EvalError, match="out of range"):
        ev("Jet_pt[0 - 1]")
    assert ev("Jet_pt[2]") == 10.0


def test_vector_length_mismatch():
    row = {"a": [1.0, 2.0], "b": [1.0, 2.0, 3.0]}
    schema = {"a": ValueType.VEC_F64, "b": ValueType.VEC_F64}
    with pytest.raises(EvalError, match="length mismatch"):
        eval_expr("a + b", row, schema)
    with pytest.raises(EvalError, match="length mismatch"):
        eval_expr("where(a, b > 1)", row, schema)


def test_empty_vector_reductions():
    assert eval_expr("sum(v)", {"v": []}, VF) == 0.0
    assert eval_expr("len(v)", {"v": []}, VF) == 0
    with pytest.raises(EvalError, match="empty"):
        eval_expr("min(v)", {"v": []}, VF)
    with pytest.raises(EvalError, match="empty"):
        eval_expr("max(v)", {"v": []}, VF)


def test_math_functions_edge_values():
    assert math.isnan(ev("sqrt(0.0 - 1.0)"))
    assert ev("sqrt(4.0)") == 2.0
    assert ev("log(0.0)") == -math.inf
    assert math.isnan(ev("log(0.0 - 1.0)"))
    assert ev("exp(1000.0)") == math.inf
    assert ev("abs(0 - 5)") == 5
    assert ev("abs(Jet_eta)") == [1.0, 3.0, 0.5]


def test_vector_scalar_broadcast():
    assert ev("Jet_pt * 2.0") == [100.0, 80.0, 20.0]
    assert ev("100.0 - Jet_pt") == [50.0, 60.0, 90.0]
    assert ev("hits % 2") == [0, 1, 1]
    assert ev("Jet_pt > 30") == [True, True, False]
    assert ev("!(Jet_pt > 30)") == [False, False, True]
    assert ev("(Jet_pt > 30) && (Jet_eta < 2.4)") == [True, False, False]


def test_elementwise_vector_math():
    assert ev("Jet_pt + Jet_eta") == [51.0, 43.0, 10.5]
    assert ev("sqrt(hits)") == [2.0, 1.0, math.sqrt(7)]


def test_sum_is_left_to_right():
    vals = [1e16, 1.0, -1e16, 1.0]
    expected = ((1e16 + 1.0) + -1e16) + 1.0
    assert eval_expr("sum(v)", {"v": vals}, VF) == expected


@pytest.mark.parametrize("long_rows", [0, 1])
def test_sum_equals_the_element_by_element_fold(long_rows):
    """sum() over a padded grid gives _fold's bits: signed zeros, NaN, infinities,
    empty rows and rows past numpy's 8-element pairwise block. One 400-element
    row among short ones takes the fold itself."""
    rng = np.random.default_rng(5)
    rows = [[], [-0.0], [-0.0, -0.0], [0.0, -0.0], [math.nan, 1.0], [1.0, math.inf, -math.inf], [-math.inf, 2.0],
            [1e16, 1.0, -1e16, 1.0], list(rng.normal(0.0, 1e8, 13)), list(rng.normal(0.0, 1.0, 9)) + [-0.0], []]
    rows += [list(rng.uniform(-1.0, 1.0, rng.integers(0, 12)) * 10.0 ** rng.integers(-8, 8)) for _ in range(50)]
    rows += [list(rng.normal(0.0, 1.0, 400))] * long_rows
    v = Jagged(np.array([len(r) for r in rows], np.int64), np.array([x for r in rows for x in r], np.float64))
    with np.errstate(all="ignore"):
        expected = _fold(v, np.zeros(len(rows)), np.add)
    got = ev_rows("sum(v)", [{"v": r} for r in rows], VF)
    assert got.tobytes() == expected.tobytes()
    assert math.copysign(1.0, got[1]) == 1.0  # 0.0 + -0.0 is +0.0


def test_determinism():
    c = compile_expr(parse("sum(where(Jet_pt, Jet_eta < 2.4)) + MET_pt * event_weight"), SCHEMA)
    assert type(as_python(c(batch_of([ROW], SCHEMA)))) is float
    assert as_python(c(batch_of([ROW], SCHEMA))) == as_python(c(batch_of([ROW], SCHEMA)))


def test_columns_used():
    ast = parse("sum(where(Jet_pt, Jet_eta < 2.4)) > MET_pt ? 1 : nJet")
    assert columns_used(ast) == {"Jet_pt", "Jet_eta", "MET_pt", "nJet"}


# --- depth bound ---------------------------------------------------------------


@pytest.mark.parametrize(
    "src, value",
    [
        (" + ".join(["x"] * MAX_DEPTH), MAX_DEPTH),  # a left-nested chain of MAX_DEPTH tree levels
        ("abs(" * (MAX_DEPTH - 2) + "-x" + ")" * (MAX_DEPTH - 2), 1.0),  # calls, then a unary, then x
        ("c ? " * (MAX_DEPTH - 1) + "x" + " : x" * (MAX_DEPTH - 1), 1.0),  # ternaries in then-branches
        ("(" * (MAX_DEPTH - 1) + "x" + ")" * (MAX_DEPTH - 1), 1.0),  # parentheses opening MAX_DEPTH levels
    ],
)
def test_an_expression_at_max_depth_builds_and_evaluates_far_below_the_recursion_limit(src, value):
    schema = {"x": ValueType.F64, "c": ValueType.BOOL}
    ast = parse(src)
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(len(inspect.stack(0)) + 300)  # about 4 frames per level, with room to spare
    try:
        result = as_python(compile_expr(ast, schema)(batch_of([{"x": 1.0, "c": True}], schema)))
        text = to_text(ast)
        used = columns_used(ast)
    finally:
        sys.setrecursionlimit(limit)
    assert result == value
    assert used == {n for n in schema if n in src}
    assert text.count("x") == src.count("x")


@pytest.mark.parametrize(
    "src",
    [
        " + ".join(["x"] * (MAX_DEPTH + 1)),  # one tree level past the bound
        "abs(" * (MAX_DEPTH - 1) + "-x" + ")" * (MAX_DEPTH - 1),
        "(" * MAX_DEPTH + "x" + ")" * MAX_DEPTH,  # one parenthesis past it
        "(c ? " * (MAX_DEPTH // 2) + "x" + " : x)" * (MAX_DEPTH // 2),  # ( and ? each open a level
        "c ? x : " * MAX_DEPTH + "x",
        " + ".join(["x"] * 3000) + " > 0",
        "(" * 3000 + "x" + ")" * 3000,
        "x[" * 3000 + "0" + "]" * 3000,
    ],
)
def test_an_expression_past_max_depth_is_a_syntax_error_naming_the_bound(src):
    with pytest.raises(ExprSyntaxError, match=rf"deeper than MAX_DEPTH \({MAX_DEPTH}\)"):
        parse(src)


# --- print/parse fixpoint -----------------------------------------------------

_names = st.sampled_from(["a", "bb", "Jet_pt", "x_1"])


def _exprs():
    leaves = st.one_of(
        st.integers(0, 2**40).map(lambda v: Literal(v, ValueType.I64)),
        st.floats(min_value=0, allow_nan=False, allow_infinity=False, width=64).map(
            lambda v: Literal(v, ValueType.F64)
        ),
        st.booleans().map(lambda v: Literal(v, ValueType.BOOL)),
        _names.map(ColumnRef),
    )

    def extend(children):
        return st.one_of(
            st.tuples(st.sampled_from(["!", "-"]), children).map(lambda t: Unary(*t)),
            st.tuples(
                st.sampled_from(["+", "-", "*", "/", "%", "<", "<=", ">", ">=", "==", "!=", "&&", "||"]),
                children,
                children,
            ).map(lambda t: Binary(*t)),
            st.tuples(children, children, children).map(lambda t: Ternary(*t)),
            st.tuples(st.sampled_from(["len", "sum", "abs", "sqrt"]), children).map(
                lambda t: Call(t[0], (t[1],))
            ),
            st.tuples(children, children).map(lambda t: Call("where", t)),
            st.tuples(children, children).map(lambda t: Index(*t)),
        )

    return st.recursive(leaves, extend, max_leaves=25)


@given(_exprs())
@settings(max_examples=200, deadline=None)
def test_print_parse_fixpoint(ast):
    assert parse(to_text(ast)) == ast


# --- independent oracle for scalar arithmetic ----------------------------------


def _arith_asts():
    leaves = st.one_of(
        st.floats(min_value=0, max_value=1e6, allow_nan=False).map(
            lambda v: Literal(v, ValueType.F64)
        ),
        st.sampled_from(["p", "q"]).map(ColumnRef),
    )

    def extend(children):
        return st.tuples(st.sampled_from(["+", "-", "*"]), children, children).map(
            lambda t: Binary(*t)
        )

    return st.recursive(leaves, extend, max_leaves=12)


def _oracle(ast, row):
    if isinstance(ast, Literal):
        return ast.value
    if isinstance(ast, ColumnRef):
        return row[ast.name]
    ops = {"+": lambda a, b: a + b, "-": lambda a, b: a - b, "*": lambda a, b: a * b}
    return ops[ast.op](_oracle(ast.left, row), _oracle(ast.right, row))


@given(_arith_asts(), st.floats(-1e3, 1e3), st.floats(-1e3, 1e3))
@settings(max_examples=150, deadline=None)
def test_scalar_arithmetic_matches_reference(ast, p, q):
    row = {"p": p, "q": q}
    got = eval_row(ast, {"p": ValueType.F64, "q": ValueType.F64}, row)
    assert got == _oracle(ast, row)


# --- the type pass and the closure half agree ----------------------------------

TYPED_SCHEMA = {"p": ValueType.F64, "q": ValueType.F64, "n": ValueType.I64,
                "v": ValueType.VEC_F64, "h": ValueType.VEC_I64}
_PY_TYPE = {ValueType.F64: float, ValueType.I64: int, ValueType.BOOL: bool}


def _typed_asts():
    """Well-typed numeric trees: mixed I64/F64 arithmetic, vector broadcast,
    reductions, indexing and promoting ternaries. Every vector has length 3."""
    leaves = st.one_of(
        st.sampled_from([ColumnRef("h"), ColumnRef("n"), ColumnRef("v")]),
        st.integers(-20, 20).map(lambda v: Literal(v, ValueType.I64)),
        _arith_asts(),
    )

    def is_vector(ast):
        return typecheck(ast, TYPED_SCHEMA).is_vector

    def as_scalar(ast):
        return Index(ast, Literal(1, ValueType.I64)) if is_vector(ast) else ast

    def as_vector(ast):  # broadcast a scalar over h
        return ast if is_vector(ast) else Binary("+", ColumnRef("h"), ast)

    def ternary(cond, a, b):
        if is_vector(a) != is_vector(b):
            a, b = as_vector(a), as_vector(b)
        return Ternary(Binary("<", as_scalar(cond), Literal(0.5, ValueType.F64)), a, b)

    def extend(children):
        return st.one_of(
            st.tuples(st.sampled_from(["+", "-", "*", "/", "%"]), children, children).map(
                lambda t: Binary(*t)
            ),
            st.tuples(children, children, children).map(lambda t: ternary(*t)),
            children.map(lambda a: Unary("-", a)),
            st.tuples(st.sampled_from(["abs", "sqrt", "exp"]), children).map(
                lambda t: Call(t[0], (t[1],))
            ),
            st.tuples(st.sampled_from(["sum", "len", "min", "max"]), children).map(
                lambda t: Call(t[0], (as_vector(t[1]),))
            ),
            children.map(as_scalar),
        )

    return st.recursive(leaves, extend, max_leaves=12)


_CHILDREN = {Unary: ("operand",), Binary: ("left", "right"), Ternary: ("cond", "then", "other"),
             Index: ("base", "index")}


def _subtrees(ast):
    yield ast
    children = ast.args if isinstance(ast, Call) else [getattr(ast, f) for f in _CHILDREN.get(type(ast), ())]
    for child in children:
        yield from _subtrees(child)


@given(
    _typed_asts(),
    st.floats(-1e3, 1e3),
    st.integers(-20, 20),
    st.lists(st.floats(-1e3, 1e3), min_size=3, max_size=3),
    st.lists(st.integers(-20, 20), min_size=3, max_size=3),
)
@settings(max_examples=300, deadline=None)
def test_value_has_typechecked_type(ast, p, n, v, h):
    row = {"p": p, "q": -p, "n": n, "v": v, "h": h}
    for node in _subtrees(ast):
        t = typecheck(node, TYPED_SCHEMA)
        try:
            value = eval_row(node, TYPED_SCHEMA, row)
        except EvalError as e:
            assert "by zero" in e.message  # the only error these trees can raise
            continue
        if t.is_vector:
            assert type(value) is list and len(value) == 3
            assert all(type(x) is _PY_TYPE[t.element] for x in value)
        else:
            assert type(value) is _PY_TYPE[t]


# --- batches: live rows only, and the rules numpy alone would not keep ----------

I64 = {"n": ValueType.I64}
INT64_MAX = 2**63 - 1
INT64_MIN = -(2**63)


def ev_rows(src: str, rows: list[dict], schema: dict, first_entry: int = 0):
    return compile_expr(parse(src), schema)(batch_of(rows, schema, first_entry))


@pytest.mark.parametrize("src, bad", [
    ("n + 1", INT64_MAX),
    ("n - 1", INT64_MIN),
    ("1 - n", INT64_MIN),
    ("n * 2", 2**62),
    ("n * n", 2**32),
    ("n * 4611686018427387904", 4),
    ("(0 - 1) * n", INT64_MIN),
    ("n * (0 - 1)", INT64_MIN),
    ("-n", INT64_MIN),
    ("abs(n)", INT64_MIN),
    ("n / (0 - 1)", INT64_MIN),
])
def test_i64_overflow_is_an_eval_error_naming_the_entry(src, bad):
    rows = [{"n": 1}, {"n": -1}, {"n": bad}, {"n": bad}]
    with pytest.raises(EvalError, match="I64 overflow") as e:
        ev_rows(src, rows, I64, first_entry=40)
    assert e.value.entry == 42


def test_i64_edges_that_fit_do_not_fail():
    rows = [{"n": INT64_MIN}]
    assert ev_rows("n % (0 - 1)", rows, I64).tolist() == [0]
    assert ev_rows("n + 0", rows, I64).tolist() == [INT64_MIN]
    assert ev_rows("n * 1", rows, I64).tolist() == [INT64_MIN]
    assert ev_rows("(n + 1) * (0 - 1)", rows, I64).tolist() == [INT64_MAX]
    assert ev_rows("n / 2 * 2", rows, I64).tolist() == [INT64_MIN]


def test_i64_overflow_in_a_vector_names_its_row():
    rows = [{"h": [1, 2]}, {"h": []}, {"h": [3, 2**62]}]
    with pytest.raises(EvalError, match="I64 overflow") as e:
        ev_rows("h * 2", rows, {"h": ValueType.VEC_I64}, first_entry=7)
    assert e.value.entry == 9


_I64_EDGES = [INT64_MIN, INT64_MIN + 1, INT64_MAX, INT64_MAX - 1, -1, 0, 1, 2**31, -(2**31),
              3037000499, -3037000499, 3037000500, -3037000500, 2**32, -(2**32)]
_I64_VALUES = st.one_of(st.sampled_from(_I64_EDGES), st.integers(INT64_MIN, INT64_MAX), st.integers(-100, 100))
_I64_OPS = {
    "a + b": ("'+'", lambda a, b: a + b),
    "a - b": ("'-'", lambda a, b: a - b),
    "a * b": ("'*'", lambda a, b: a * b),
    "-a": ("unary '-'", lambda a, b: -a),
    "abs(a)": ("abs()", lambda a, b: abs(a)),
    "a / b": ("'/'", lambda a, b: a // b if b else None),
    "a % b": ("'%'", lambda a, b: a % b if b else None),
}


def _check_i64(src: str, pairs: list[tuple[int, int]]) -> None:
    """src over rows of (a, b) gives the exact Python-int results, or an error
    naming the first row that divides by zero or whose result leaves int64."""
    label, exact = _I64_OPS[src]
    rows = [{"a": a, "b": b} for a, b in pairs]
    want = [exact(a, b) for a, b in pairs]
    bad = [i for i, x in enumerate(want) if x is None or not INT64_MIN <= x <= INT64_MAX]
    schema = {"a": ValueType.I64, "b": ValueType.I64}
    if bad:
        message = "by zero" if want[bad[0]] is None else f"I64 overflow in {label}"
        with pytest.raises(EvalError, match=re.escape(message)) as e:
            ev_rows(src, rows, schema, first_entry=100)
        assert e.value.entry == 100 + bad[0]
    else:
        got = ev_rows(src, rows, schema)
        assert got.dtype == np.int64 and got.tolist() == want


@given(st.sampled_from(sorted(_I64_OPS)), st.lists(st.tuples(_I64_VALUES, _I64_VALUES), min_size=1, max_size=8))
@settings(max_examples=400, deadline=None)
def test_i64_arithmetic_matches_python_ints(src, pairs):
    _check_i64(src, pairs)


@pytest.mark.parametrize("src", sorted(_I64_OPS))
def test_i64_arithmetic_matches_python_ints_on_every_pair_of_edges(src):
    for a in _I64_EDGES:
        for b in _I64_EDGES:
            _check_i64(src, [(a, b)])


def test_integer_literal_outside_i64_is_a_type_error():
    assert typecheck(parse("9223372036854775807"), {}) is ValueType.I64
    with pytest.raises(ExprTypeError, match="outside I64"):
        typecheck(parse("n + 9223372036854775808"), I64)


def test_mixed_comparison_promotes_to_f64():
    rows = [{"n": 2**53 + 1}]
    assert ev_rows("n > 9007199254740992.0", rows, I64).tolist() == [False]
    assert ev_rows("n == 9007199254740992.0", rows, I64).tolist() == [True]
    assert ev_rows("n > 9007199254740992", rows, I64).tolist() == [True]  # I64 against I64 stays exact


def test_sum_of_i64_vector_is_exact_then_rounded_once():
    h = {"h": ValueType.VEC_I64}
    rows = [{"h": [2**53, 1, 1]}, {"h": [2**62, 2**62, 2**62]}, {"h": []}]
    assert ev_rows("sum(h)", rows, h).tolist() == [9007199254740994.0, float(3 * 2**62), 0.0]


def test_sum_is_left_to_right_past_eight_elements():
    rng = np.random.default_rng(3)
    rows = [{"v": list(rng.exponential(40.0, k) * 10.0 ** rng.integers(-8, 8, k))} for k in range(0, 40)]
    got = ev_rows("sum(v)", rows, VF).tolist()
    assert got == [float(sum(r["v"])) for r in rows]  # Python's sum folds left to right


def test_min_max_keep_the_first_of_equals_and_a_leading_nan():
    rows = [{"v": [0.0, -0.0]}, {"v": [-0.0, 0.0]}, {"v": [math.nan, 1.0]}, {"v": [1.0, math.nan, 2.0]}]
    for name, reduce in (("min", min), ("max", max)):
        got = ev_rows(f"{name}(v)", rows, VF).tolist()
        want = [reduce(r["v"]) for r in rows]
        assert [math.copysign(1.0, x) for x in got] == [math.copysign(1.0, x) for x in want]
        assert [repr(x) for x in got] == [repr(x) for x in want]


def _math_exp(x):
    try:
        return math.exp(x)
    except OverflowError:
        return math.inf


def test_exp_and_log_are_bit_identical_to_math():
    rng = np.random.default_rng(11)
    xs = np.concatenate([rng.uniform(-750.0, 750.0, 3000), rng.normal(0.0, 3.0, 3000),
                         [0.0, -0.0, 709.78, 709.79, -745.2, math.inf, -math.inf, math.nan]])
    rows = [{"p": float(x)} for x in xs]
    f64 = {"p": ValueType.F64}
    got = ev_rows("exp(p)", rows, f64).tolist()
    assert [repr(x) for x in got] == [repr(_math_exp(x)) for x in xs.tolist()]
    logs = ev_rows("log(p)", rows, f64).tolist()
    want = [math.log(x) if x > 0 else (-math.inf if x == 0 else math.nan) for x in xs.tolist()]
    assert [repr(x) for x in logs] == [repr(x) for x in want]


def test_untaken_branches_are_not_evaluated():
    rows = [{"nJet": 2, "Jet_pt": [50.0, 40.0]}, {"nJet": 0, "Jet_pt": []}, {"nJet": 1, "Jet_pt": [30.0]}]
    assert ev_rows("nJet > 0 ? Jet_pt[0] : 0.0", rows, SCHEMA).tolist() == [50.0, 0.0, 30.0]
    assert ev_rows("nJet > 0 && Jet_pt[0] > 35.0", rows, SCHEMA).tolist() == [True, False, False]
    assert ev_rows("nJet == 0 || Jet_pt[0] > 35.0", rows, SCHEMA).tolist() == [True, True, False]
    with pytest.raises(EvalError, match="out of range") as e:
        ev_rows("nJet < 2 ? Jet_pt[0] : 0.0", rows, SCHEMA, first_entry=5)
    assert e.value.entry == 6


def test_vector_ternary_merges_rows_in_order():
    rows = [{"passed": True, "hits": [1, 2], "Jet_pt": [9.5]},
            {"passed": False, "hits": [], "Jet_pt": [1.5, 2.5, 3.5]},
            {"passed": True, "hits": [7], "Jet_pt": []}]
    got = ev_rows("passed ? hits : Jet_pt", rows, SCHEMA)
    assert vector_rows(got) == [[1.0, 2.0], [1.5, 2.5, 3.5], [7.0]]
    assert got.values.dtype == np.float64


def test_first_failing_node_in_evaluation_order_is_named():
    schema = {"v": ValueType.VEC_F64, "n": ValueType.I64}
    rows = [{"v": [1.0] * 5, "n": 0}, {"v": [1.0] * 5, "n": 1}, {"v": [1.0], "n": 1}]
    # row 0 fails the right operand, row 2 the left; the left is evaluated first
    with pytest.raises(EvalError, match="out of range") as e:
        ev_rows("v[3] + 10 / n", rows, schema, first_entry=100)
    assert e.value.entry == 102
    # within one node, the earlier row wins even when the failures differ in kind
    rows = [{"a": [1, 2], "b": [1, 0]}, {"a": [1], "b": [1, 2]}]
    with pytest.raises(EvalError, match="division by zero") as e:
        ev_rows("a / b", rows, {"a": ValueType.VEC_I64, "b": ValueType.VEC_I64})
    assert e.value.entry == 0


@given(
    _typed_asts(),
    st.lists(
        st.tuples(st.floats(-1e3, 1e3), st.integers(-20, 20),
                  st.lists(st.floats(-1e3, 1e3), min_size=3, max_size=3),
                  st.lists(st.integers(-20, 20), min_size=3, max_size=3)),
        min_size=1, max_size=5,
    ),
)
@settings(max_examples=200, deadline=None)
def test_a_batch_agrees_with_its_rows_one_at_a_time(ast, values):
    rows = [{"p": p, "q": -p, "n": n, "v": v, "h": h} for p, n, v, h in values]
    singles = []
    for row in rows:
        try:
            singles.append(eval_row(ast, TYPED_SCHEMA, row))
        except EvalError as e:
            singles.append(e)
    evaluate = compile_expr(ast, TYPED_SCHEMA)
    failing = [i for i, s in enumerate(singles) if isinstance(s, EvalError)]
    if failing:
        with pytest.raises(EvalError) as e:
            evaluate(batch_of(rows, TYPED_SCHEMA))
        assert e.value.entry in failing
        return
    got = evaluate(batch_of(rows, TYPED_SCHEMA))
    got = vector_rows(got) if typecheck(ast, TYPED_SCHEMA).is_vector else got.tolist()
    assert repr(got) == repr(singles)
