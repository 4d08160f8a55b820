"""Binary columnar event files with cluster-granular, byte-accounted reads.

The names below load with their module on first use (PEP 562), so
`import colflow.colstore.server` loads the data server and the wire
format alone: no numpy and no expression language.
"""

import importlib

_HOME = {
    "ChunkRef": ".format",
    "ClusterInfo": ".format",
    "FormatError": ".format",
    "write_dataset": ".format",
    "ColumnBatch": ".dataset",
    "DatasetHandle": ".dataset",
    "ReadAccount": ".dataset",
    "TransportError": ".dataset",
    "open_dataset": ".dataset",
    "server_totals": ".dataset",
    "DataServer": ".server",
    "ValueType": "..exprlang",
}

__all__ = sorted(_HOME)


def __getattr__(name: str):
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(_HOME[name], __name__), name)
    globals()[name] = value
    return value
