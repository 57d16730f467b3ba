"""Tests for index persistence (save/load with dataset fingerprinting)."""

import pytest

from repro.generators.graphgen import GraphGenConfig, generate_dataset
from repro.generators.queries import generate_queries
from repro.indexes import (
    CTIndex,
    GCodeIndex,
    GIndex,
    GraphGrepSXIndex,
    GrapesIndex,
    TreeDeltaIndex,
)
from repro.graphs.dataset import dataset_fingerprint
from repro.indexes.store import IndexFileError, load_index, save_index

FACTORIES = {
    "ggsx": lambda: GraphGrepSXIndex(max_path_edges=3),
    "grapes": lambda: GrapesIndex(max_path_edges=3, workers=2),
    "ctindex": lambda: CTIndex(fingerprint_bits=256, feature_edges=3),
    "gcode": lambda: GCodeIndex(),
    "gindex": lambda: GIndex(max_fragment_edges=3, support_ratio=0.25),
    "tree+delta": lambda: TreeDeltaIndex(max_feature_edges=3, support_ratio=0.25),
}


@pytest.fixture(scope="module")
def dataset():
    config = GraphGenConfig(
        num_graphs=15, mean_nodes=10, mean_density=0.25, num_labels=3
    )
    return generate_dataset(config, seed=55)


@pytest.fixture(scope="module")
def queries(dataset):
    return generate_queries(dataset, 4, 4, seed=1)


@pytest.mark.parametrize("name", list(FACTORIES))
def test_roundtrip_preserves_answers(name, dataset, queries, tmp_path):
    index = FACTORIES[name]()
    index.build(dataset)
    expected = [index.query(q).answers for q in queries]
    path = tmp_path / f"{name}.idx"
    save_index(index, path)
    loaded = load_index(path, expect_dataset=dataset)
    assert loaded.name == name
    assert [loaded.query(q).answers for q in queries] == expected


def test_unbuilt_index_refuses_save(tmp_path):
    with pytest.raises(RuntimeError):
        save_index(GraphGrepSXIndex(), tmp_path / "x.idx")


def test_fingerprint_detects_different_dataset(dataset, tmp_path):
    index = FACTORIES["ggsx"]()
    index.build(dataset)
    path = tmp_path / "a.idx"
    save_index(index, path)
    other = generate_dataset(
        GraphGenConfig(num_graphs=15, mean_nodes=10, mean_density=0.25, num_labels=3),
        seed=56,
    )
    with pytest.raises(IndexFileError, match="different dataset"):
        load_index(path, expect_dataset=other)


def test_load_without_expectation_skips_check(dataset, tmp_path):
    index = FACTORIES["ctindex"]()
    index.build(dataset)
    path = tmp_path / "b.idx"
    save_index(index, path)
    assert load_index(path).name == "ctindex"


def test_garbage_file_rejected(tmp_path):
    path = tmp_path / "garbage.idx"
    path.write_bytes(b"this is not an index")
    with pytest.raises(IndexFileError):
        load_index(path)


def test_fingerprint_stability(dataset):
    assert dataset_fingerprint(dataset) == dataset_fingerprint(dataset)


def test_fingerprint_sensitive_to_content(dataset):
    other = generate_dataset(
        GraphGenConfig(num_graphs=15, mean_nodes=10, mean_density=0.25, num_labels=3),
        seed=56,
    )
    assert dataset_fingerprint(dataset) != dataset_fingerprint(other)
