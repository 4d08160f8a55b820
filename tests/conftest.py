import numpy as np
import pytest

from colflow.colstore import ValueType, write_dataset
from colflow.exprlang import Jagged, compile_expr

STANDARD_SCHEMA = {
    "event_weight": ValueType.F64,
    "MET_pt": ValueType.F64,
    "nJet": ValueType.I64,
    "Jet_pt": ValueType.VEC_F64,
    "Jet_eta": ValueType.VEC_F64,
    "Jet_phi": ValueType.VEC_F64,
}


def standard_columns(n: int, seed: int = 0) -> dict:
    """Physics-shaped random columns matching STANDARD_SCHEMA."""
    rng = np.random.default_rng(seed)
    njet = rng.integers(0, 9, n)
    return {
        "event_weight": rng.normal(1.0, 0.05, n),
        "MET_pt": rng.exponential(35.0, n),
        "nJet": njet,
        "Jet_pt": [sorted(rng.exponential(40.0, k), reverse=True) for k in njet],
        "Jet_eta": [list(rng.uniform(-2.5, 2.5, k)) for k in njet],
        "Jet_phi": [list(rng.uniform(-np.pi, np.pi, k)) for k in njet],
    }


@pytest.fixture
def make_dataset(tmp_path):
    """Factory writing a standard-schema file and returning its path."""

    def build(n: int = 200, cluster_size: int = 64, seed: int = 0, name: str = "data.col",
              schema=None, columns=None):
        path = tmp_path / name
        if schema is None:
            schema = STANDARD_SCHEMA
        if columns is None:
            columns = standard_columns(n, seed)
        write_dataset(str(path), schema, columns, cluster_size)
        return str(path)

    return build


def vector_rows(v: Jagged) -> list[list]:
    """A vector column's rows as Python lists."""
    flat = v.values.tolist()
    ends = np.cumsum(v.lengths).tolist()
    return [flat[end - n : end] for n, end in zip(v.lengths.tolist(), ends)]


class Batch:
    """Rows for a compiled expression: entry numbers plus one value per column."""

    def __init__(self, ids, columns: dict):
        self.ids = np.asarray(ids, dtype=np.int64)
        self._columns = columns

    def column(self, name):
        return self._columns[name]

    def where(self, mask):
        return Batch(self.ids[mask], {n: v[mask] for n, v in self._columns.items()})


_DTYPE = {ValueType.F64: np.float64, ValueType.I64: np.int64, ValueType.BOOL: np.bool_}


def as_batch_column(values: list, t: ValueType):
    """Per-row Python values (lists for a vector type) as a batch column."""
    if t.is_vector:
        lengths = np.array([len(v) for v in values], dtype=np.int64)
        return Jagged(lengths, np.array([x for v in values for x in v], dtype=_DTYPE[t.element]))
    return np.array(values, dtype=_DTYPE[t])


def batch_of(rows: list[dict], schema: dict, first_entry: int = 0) -> Batch:
    """A batch of the given rows; entry numbers count up from first_entry."""
    columns = {n: as_batch_column([r[n] for r in rows], t) for n, t in schema.items() if n in rows[0]}
    return Batch(np.arange(first_entry, first_entry + len(rows)), columns)


def as_python(value):
    """A one-row result as a Python value: a list for a vector."""
    if isinstance(value, Jagged):
        return value.values.tolist()
    return value[0].item()


def eval_row(expr, schema: dict, row: dict):
    """expr evaluated on one event, given as Python values, as a one-row batch."""
    return as_python(compile_expr(expr, schema)(batch_of([row], schema)))
