import numpy as np
import pytest

from colflow.colstore import ValueType, write_dataset

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
        write_dataset(str(path), schema, columns, cluster_size).close()
        return str(path)

    return build
