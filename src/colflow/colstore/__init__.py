"""Binary columnar event files with cluster-granular, byte-accounted reads."""

from ..exprlang import ValueType
from .format import (
    ClusterInfo,
    ChunkRef,
    FormatError,
    write_dataset,
)
from .dataset import (
    ColumnBatch,
    DatasetHandle,
    ReadAccount,
    TransportError,
    open_dataset,
    read_range,
    server_totals,
)
from .server import DataServer, serve

__all__ = [
    "ChunkRef",
    "ClusterInfo",
    "ColumnBatch",
    "DataServer",
    "DatasetHandle",
    "FormatError",
    "ReadAccount",
    "TransportError",
    "ValueType",
    "open_dataset",
    "read_range",
    "serve",
    "server_totals",
    "write_dataset",
]
