"""Partition planning: coverage, balance, determinism."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from colflow.cluster import plan_partitions
from colflow.colstore import ValueType, open_dataset, write_dataset


def make_file(tmp_path, name, n_entries, cluster_size):
    path = tmp_path / name
    write_dataset(
        str(path),
        {"x": ValueType.F64},
        {"x": [float(i) for i in range(n_entries)]},
        cluster_size,
    )
    return str(path)


def plan(files, nworkers, factor):
    handles = [open_dataset(f) for f in files]
    try:
        return plan_partitions(handles, nworkers, factor)
    finally:
        for h in handles:
            h.close()


def coverage(tasks):
    """(file, begin, end) ranges sorted by file then begin."""
    return sorted((t.entry_range.file, t.entry_range.begin, t.entry_range.end) for t in tasks)


class TestPlanner:
    def test_even_division(self, tmp_path):
        # 12 clusters, 2 workers x factor 3 -> 6 tasks of 2 clusters each
        f = make_file(tmp_path, "a.col", 120, 10)
        tasks = plan([f], nworkers=2, factor=3)
        assert len(tasks) == 6
        assert [t.entry_range.begin for t in tasks] == [0, 20, 40, 60, 80, 100]
        assert all(t.entry_range.end - t.entry_range.begin == 20 for t in tasks)
        assert [t.task_id for t in tasks] == list(range(6))

    def test_cluster_floor(self, tmp_path):
        # 2 files of 1 cluster each, target 6 -> only 2 tasks possible
        files = [make_file(tmp_path, f"f{i}.col", 10, 10) for i in range(2)]
        tasks = plan(files, nworkers=2, factor=3)
        assert len(tasks) == 2
        assert coverage(tasks) == sorted((f, 0, 10) for f in files)

    def test_more_files_than_target(self, tmp_path):
        # coverage requires one task per non-empty file even when K is smaller
        files = [make_file(tmp_path, f"f{i}.col", 30, 10) for i in range(5)]
        tasks = plan(files, nworkers=1, factor=2)
        assert len(tasks) == 5
        assert {t.entry_range.file for t in tasks} == set(files)

    def test_tasks_never_span_files(self, tmp_path):
        files = [make_file(tmp_path, f"f{i}.col", 50 + 20 * i, 10) for i in range(3)]
        tasks = plan(files, nworkers=4, factor=3)
        for t in tasks:
            assert t.entry_range.file in files

    def test_sizes_within_file_differ_by_at_most_one_cluster(self, tmp_path):
        f = make_file(tmp_path, "odd.col", 130, 10)  # 13 clusters
        tasks = plan([f], nworkers=1, factor=5)  # 5 tasks over 13 clusters
        sizes = [(t.entry_range.end - t.entry_range.begin) // 10 for t in tasks]
        assert len(tasks) == 5
        assert max(sizes) - min(sizes) <= 1
        assert sum(sizes) == 13

    def test_partial_tail_cluster(self, tmp_path):
        f = make_file(tmp_path, "tail.col", 95, 10)  # clusters 10x9 + 5
        tasks = plan([f], nworkers=2, factor=2)
        assert coverage(tasks)[-1][2] == 95
        total = sum(t.entry_range.end - t.entry_range.begin for t in tasks)
        assert total == 95

    def test_empty_file_contributes_no_tasks(self, tmp_path):
        full = make_file(tmp_path, "full.col", 40, 10)
        empty = make_file(tmp_path, "empty.col", 0, 10)
        tasks = plan([full, empty], nworkers=1, factor=4)
        assert {t.entry_range.file for t in tasks} == {full}

    def test_deterministic(self, tmp_path):
        files = [make_file(tmp_path, f"f{i}.col", 70 + i * 35, 10) for i in range(3)]
        assert coverage(plan(files, 3, 3)) == coverage(plan(files, 3, 3))
        a = plan(files, 3, 3)
        b = plan(files, 3, 3)
        assert [(t.task_id, t.entry_range) for t in a] == [(t.task_id, t.entry_range) for t in b]

    def test_input_validation(self, tmp_path):
        f = make_file(tmp_path, "v.col", 10, 10)
        with pytest.raises(ValueError, match="empty dataset"):
            plan_partitions([], 2, 3)
        with pytest.raises(ValueError, match="nworkers"):
            plan([f], 0, 3)
        with pytest.raises(ValueError, match="factor"):
            plan([f], 2, 0)

    @given(
        layouts=st.lists(st.integers(min_value=0, max_value=23), min_size=1, max_size=5),
        nworkers=st.integers(1, 4),
        factor=st.integers(1, 5),
    )
    @settings(max_examples=25, deadline=None)
    def test_coverage_property(self, tmp_path_factory, layouts, nworkers, factor):
        tmp_path = tmp_path_factory.mktemp("plan")
        files = [
            make_file(tmp_path, f"p{i}.col", n_entries=n * 7, cluster_size=7)
            for i, n in enumerate(layouts)
        ]
        if not any(layouts):
            return  # all-empty dataset gives an empty plan; nothing to cover
        tasks = plan(files, nworkers, factor)
        # exact cover: per file, ranges tile [0, total) without gaps or overlap
        by_file: dict = {}
        for t in tasks:
            by_file.setdefault(t.entry_range.file, []).append(t.entry_range)
        for f, n in zip(files, layouts):
            if n == 0:
                assert f not in by_file
                continue
            ranges = sorted(by_file[f], key=lambda r: r.begin)
            assert ranges[0].begin == 0
            assert ranges[-1].end == n * 7
            for prev, cur in zip(ranges, ranges[1:]):
                assert prev.end == cur.begin
            # cluster-aligned boundaries
            for r in ranges:
                assert r.begin % 7 == 0
        total = sum(t.entry_range.end - t.entry_range.begin for t in tasks)
        assert total == sum(n * 7 for n in layouts)
