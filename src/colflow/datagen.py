"""Deterministic synthetic event generation for benchmarking.

Produces physics-shaped columns: an event weight near 1, a steeply falling
missing-energy spectrum, and 0-8 jets per event with falling momenta. The
seed fully determines every output byte: per-file streams come from
numpy's SeedSequence spawn tree, so file k's content is independent of how
many files are generated and of generation order.
"""

from __future__ import annotations

import json
import os
from dataclasses import asdict, dataclass

import numpy as np

from .colstore import ValueType, write_dataset
from .colstore.dataset import REMOTE_SCHEME

MANIFEST_NAME = "manifest.json"

SCHEMA = {
    "event_weight": ValueType.F64,
    "MET_pt": ValueType.F64,
    "nJet": ValueType.I64,
    "Jet_pt": ValueType.VEC_F64,
    "Jet_eta": ValueType.VEC_F64,
    "Jet_phi": ValueType.VEC_F64,
}


@dataclass(frozen=True)
class GenConfig:
    n_files: int = 8
    events_per_file: int = 100_000
    cluster_size: int = 10_000
    seed: int = 2024

    def __post_init__(self):
        if self.n_files < 1:
            raise ValueError("n_files must be >= 1")
        if self.events_per_file < 0:
            raise ValueError("events_per_file must be >= 0")
        if self.cluster_size < 1:
            raise ValueError("cluster_size must be >= 1")
        if self.seed < 0:
            raise ValueError("seed must be >= 0")


def event_columns(rng: np.random.Generator, n: int) -> dict:
    """One block of n events, consuming the generator deterministically."""
    njet = rng.integers(0, 9, n)
    jet_pt, jet_eta, jet_phi = [], [], []
    for k in njet:
        pt = rng.exponential(40.0, k)
        pt[::-1].sort()  # leading jet first
        jet_pt.append(pt)
        jet_eta.append(rng.uniform(-2.5, 2.5, k))
        jet_phi.append(rng.uniform(-np.pi, np.pi, k))
    return {
        "event_weight": rng.normal(1.0, 0.05, n),
        "MET_pt": rng.exponential(35.0, n),
        "nJet": njet,
        "Jet_pt": jet_pt,
        "Jet_eta": jet_eta,
        "Jet_phi": jet_phi,
    }


def generate(config: GenConfig, out_dir: str) -> str:
    """Write the dataset files plus a manifest; returns the manifest path.

    The manifest records relative file names so the directory can be
    served or moved wholesale.
    """
    os.makedirs(out_dir, exist_ok=True)
    streams = np.random.SeedSequence(config.seed).spawn(config.n_files)
    entries = []
    for i, stream in enumerate(streams):
        rng = np.random.default_rng(stream)
        name = f"events_{i:03d}.col"
        columns = event_columns(rng, config.events_per_file)
        write_dataset(
            os.path.join(out_dir, name), SCHEMA, columns, config.cluster_size
        )
        entries.append({"name": name, "entries": config.events_per_file})

    manifest = {
        "config": asdict(config),
        "files": entries,
        "total_entries": sum(e["entries"] for e in entries),
    }
    path = os.path.join(out_dir, MANIFEST_NAME)
    with open(path, "w") as f:
        json.dump(manifest, f, indent=2)
        f.write("\n")
    return path


def load_manifest(path: str) -> dict:
    """Read a manifest; accepts the file itself or its directory."""
    if os.path.isdir(path):
        path = os.path.join(path, MANIFEST_NAME)
    with open(path) as f:
        manifest = json.load(f)
    manifest["dir"] = os.path.dirname(os.path.abspath(path))
    return manifest


def manifest_files(manifest: dict, base: str | None = None) -> list[str]:
    """Dataset URIs in manifest order.

    base=None yields local paths; a ``host:port`` base yields data-server
    URIs for the same files.
    """
    names = [e["name"] for e in manifest["files"]]
    if base is None:
        return [os.path.join(manifest["dir"], n) for n in names]
    return [f"{REMOTE_SCHEME}{base}/{n}" for n in names]
