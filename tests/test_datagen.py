"""Generator determinism, manifest bookkeeping, and spectrum shape."""

import hashlib
import json

import numpy as np
import pytest

from colflow.colstore import open_dataset
from colflow.datagen import (
    MANIFEST_NAME,
    GenConfig,
    generate,
    load_manifest,
    manifest_files,
)
from conftest import vector_rows


def file_digests(manifest_path):
    manifest = load_manifest(manifest_path)
    out = {}
    for path in manifest_files(manifest):
        with open(path, "rb") as f:
            out[path.rsplit("/", 1)[1]] = hashlib.sha256(f.read()).hexdigest()
    return out


class TestDeterminism:
    def test_same_seed_same_bytes(self, tmp_path):
        cfg = GenConfig(n_files=3, events_per_file=500, cluster_size=128, seed=7)
        a = generate(cfg, str(tmp_path / "a"))
        b = generate(cfg, str(tmp_path / "b"))
        assert file_digests(a) == file_digests(b)

    def test_different_seed_different_bytes(self, tmp_path):
        a = generate(GenConfig(2, 300, 128, seed=1), str(tmp_path / "a"))
        b = generate(GenConfig(2, 300, 128, seed=2), str(tmp_path / "b"))
        assert file_digests(a) != file_digests(b)

    def test_file_content_independent_of_file_count(self, tmp_path):
        # SeedSequence spawn: file 0 is the same whether 2 or 5 files exist
        a = generate(GenConfig(2, 200, 64, seed=9), str(tmp_path / "a"))
        b = generate(GenConfig(5, 200, 64, seed=9), str(tmp_path / "b"))
        da, db = file_digests(a), file_digests(b)
        assert da["events_000.col"] == db["events_000.col"]
        assert da["events_001.col"] == db["events_001.col"]


class TestManifest:
    def test_totals_match_recount(self, tmp_path):
        cfg = GenConfig(n_files=3, events_per_file=400, cluster_size=100, seed=3)
        manifest = load_manifest(generate(cfg, str(tmp_path / "d")))
        total = 0
        for path in manifest_files(manifest):
            with open_dataset(path) as h:
                total += h.total_entries
        assert manifest["total_entries"] == total == 1200
        assert len(manifest["files"]) == 3
        assert manifest["config"]["seed"] == 3

    def test_load_by_directory(self, tmp_path):
        generate(GenConfig(1, 50, 25, seed=0), str(tmp_path / "d"))
        by_dir = load_manifest(str(tmp_path / "d"))
        by_file = load_manifest(str(tmp_path / "d" / MANIFEST_NAME))
        assert by_dir["files"] == by_file["files"]

    def test_remote_uri_mapping(self, tmp_path):
        manifest = load_manifest(generate(GenConfig(2, 10, 10, seed=0), str(tmp_path / "d")))
        uris = manifest_files(manifest, base="127.0.0.1:9999")
        assert uris == [
            "colsrv://127.0.0.1:9999/events_000.col",
            "colsrv://127.0.0.1:9999/events_001.col",
        ]

    def test_empty_files_are_valid(self, tmp_path):
        manifest = load_manifest(generate(GenConfig(2, 0, 10, seed=0), str(tmp_path / "d")))
        for path in manifest_files(manifest):
            with open_dataset(path) as h:
                assert h.total_entries == 0
        assert manifest["total_entries"] == 0


class TestShape:
    def test_config_validation(self):
        with pytest.raises(ValueError):
            GenConfig(n_files=0)
        with pytest.raises(ValueError):
            GenConfig(events_per_file=-1)
        with pytest.raises(ValueError):
            GenConfig(cluster_size=0)

    def test_columns_and_ranges(self, tmp_path):
        manifest = load_manifest(generate(GenConfig(1, 2000, 500, seed=11), str(tmp_path / "d")))
        (path,) = manifest_files(manifest)
        with open_dataset(path) as h:
            names = list(h.schema)
            assert names == ["event_weight", "MET_pt", "nJet", "Jet_pt", "Jet_eta", "Jet_phi"]
            for batch in h.read_range(names, 0, h.total_entries):
                njet = batch.columns["nJet"]
                assert njet.min() >= 0 and njet.max() <= 8
                assert np.array_equal(batch.columns["Jet_pt"].lengths, njet)
                assert (batch.columns["MET_pt"] >= 0).all()
                eta = batch.columns["Jet_eta"].values
                assert eta.size == 0 or (np.abs(eta) <= 2.5).all()
                for jets in vector_rows(batch.columns["Jet_pt"]):
                    assert jets == sorted(jets, reverse=True)

    def test_skim_selection_keeps_about_five_percent(self, tmp_path):
        # the default benchmark preselection: MET_pt > 96 and nJet >= 2.
        # e^(-96/35) * 7/9 is about 0.050; check the generated data lands
        # near that so skims stay small but non-trivial
        manifest = load_manifest(generate(GenConfig(2, 20_000, 5000, seed=4), str(tmp_path / "d")))
        kept = total = 0
        for path in manifest_files(manifest):
            with open_dataset(path) as h:
                for batch in h.read_range(["MET_pt", "nJet"], 0, h.total_entries):
                    met = batch.columns["MET_pt"]
                    njet = batch.columns["nJet"]
                    kept += int(((met > 96.0) & (njet >= 2)).sum())
                    total += batch.entry_count
        assert total == 40_000
        assert 0.035 < kept / total < 0.065
