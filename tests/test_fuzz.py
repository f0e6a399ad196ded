"""Fuzz the two file parsers: every input either loads or raises
``DataError`` (CLI exit 3), never another exception."""

import copy
import json

import pytest
from hypothesis import given
from hypothesis import strategies as st

from quanvnet import dataio
from quanvnet import model as qm
from quanvnet.errors import DataError

JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.integers(min_value=-3, max_value=12)
    | st.floats() | st.text(max_size=12),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=12), inner, max_size=4),
    max_leaves=10,
)


def _paths(doc, prefix=()):
    """Every key or index path into a parsed JSON document, the root first."""
    yield prefix
    items = doc.items() if isinstance(doc, dict) else enumerate(doc) if isinstance(doc, list) else ()
    for key, value in items:
        yield from _paths(value, prefix + (key,))


def _mutants(doc):
    """``doc`` with the value at one of its paths replaced by any JSON value,
    or with one key deleted."""
    paths = list(_paths(doc))

    def replace(path, value, delete):
        out = copy.deepcopy(doc)
        if not path:
            return value
        parent = out
        for key in path[:-1]:
            parent = parent[key]
        if delete and isinstance(parent, dict):
            del parent[path[-1]]
        else:
            parent[path[-1]] = value
        return out

    return st.builds(replace, st.sampled_from(paths), JSON_VALUES, st.booleans())


def _loads_or_data_error(load):
    try:
        load()
    except DataError:
        pass


@pytest.fixture(scope="module")
def dataset(tmp_path_factory):
    path = tmp_path_factory.mktemp("fuzz-data")
    spec = dataio.SyntheticSpec(num_classes=2, image_size=4, channels=2, train_samples=3,
                                validation_samples=1, test_samples=0, seed=1)
    return path, dataio.generate_synthetic(spec, path)


@pytest.fixture(scope="module")
def checkpoint(tmp_path_factory):
    path = tmp_path_factory.mktemp("fuzz-ckpt") / "valid.ckpt"
    config = qm.ModelConfig(image_size=8, patch_size=4, features=3, blocks=1, kernels=1, channels=1,
                            num_classes=2, runs=1)
    qm.save_checkpoint(path, qm.HybridModel(config).init_store(0), config)
    raw = path.read_bytes()
    header, _, rest = raw.partition(b"\n")
    length = int(header.split()[1])
    return path.parent, json.loads(rest[:length]), rest[length:]


class TestDatasetManifest:
    @given(data=st.data())
    def test_any_json_value_loads_or_raises_data_error(self, dataset, data):
        path, manifest = dataset
        doc = data.draw(JSON_VALUES | _mutants(manifest))
        (path / dataio.MANIFEST_NAME).write_text(json.dumps(doc), encoding="utf-8")
        _loads_or_data_error(lambda: dataio.load_dataset(path))

    @given(blob=st.binary(max_size=64))
    def test_any_bytes_load_or_raise_data_error(self, dataset, blob):
        path, _ = dataset
        (path / dataio.MANIFEST_NAME).write_bytes(blob)
        _loads_or_data_error(lambda: dataio.load_dataset(path))

    def test_deeply_nested_json_is_a_data_error(self, dataset):
        path, _ = dataset
        (path / dataio.MANIFEST_NAME).write_text("[" * 100_000, encoding="utf-8")
        with pytest.raises(DataError, match="malformed manifest"):
            dataio.load_dataset(path)

    def test_normalization_beyond_float_range_is_a_data_error(self, dataset):
        path, manifest = dataset
        doc = copy.deepcopy(manifest)
        doc["normalization"][0][1] = 10**400
        (path / dataio.MANIFEST_NAME).write_text(json.dumps(doc), encoding="utf-8")
        with pytest.raises(DataError, match="normalization"):
            dataio.load_dataset(path)


def _checkpoint_bytes(manifest: bytes, payload: bytes, length=None) -> bytes:
    length = len(manifest) if length is None else length
    return b"%s %d\n" % (qm.CHECKPOINT_MAGIC.encode(), length) + manifest + payload


class TestCheckpoint:
    @given(data=st.data())
    def test_any_bytes_after_a_valid_header_load_or_raise_data_error(self, checkpoint, data):
        directory, manifest, payload = checkpoint
        body = data.draw(st.one_of(
            st.binary(max_size=256).map(lambda b: (b, b"")),
            st.tuples(_mutants(manifest).map(lambda d: json.dumps(d).encode()),
                      st.just(payload) | st.binary(max_size=64)),
        ))
        length = data.draw(st.none() | st.integers(0, len(body[0]) + len(body[1]) + 8))
        path = directory / "fuzzed.ckpt"
        path.write_bytes(_checkpoint_bytes(*body, length))
        _loads_or_data_error(lambda: qm.load_checkpoint(path))

    @given(names=st.permutations(qm.CHECKPOINT_ARRAYS) | st.lists(st.sampled_from(qm.CHECKPOINT_ARRAYS), max_size=12))
    def test_only_the_nine_arrays_in_their_order_load(self, checkpoint, names):
        # any permutation, duplication or omission of the array names, its payload sized to match
        directory, manifest, _ = checkpoint
        lengths = {e["name"]: e["length"] for e in manifest["segments"]}
        payload = b"".join(bytes(8 * lengths[name.partition(":")[2]]) for name in names)
        path = directory / "listed.ckpt"
        path.write_bytes(_checkpoint_bytes(json.dumps(dict(manifest, arrays=names)).encode(), payload))
        if names == list(qm.CHECKPOINT_ARRAYS):
            qm.load_checkpoint(path)
        else:
            with pytest.raises(DataError, match="'arrays' must be"):
                qm.load_checkpoint(path)

    def test_deeply_nested_manifest_is_a_data_error(self, checkpoint):
        directory, _, _ = checkpoint
        path = directory / "nested.ckpt"
        path.write_bytes(_checkpoint_bytes(b"[" * 100_000, b""))
        with pytest.raises(DataError, match="not valid JSON"):
            qm.load_checkpoint(path)

    def test_config_field_of_the_wrong_type_is_a_data_error(self, checkpoint):
        directory, manifest, payload = checkpoint
        doc = copy.deepcopy(manifest)
        doc["config"]["image_size"] = "8"
        path = directory / "typed.ckpt"
        path.write_bytes(_checkpoint_bytes(json.dumps(doc).encode(), payload))
        with pytest.raises(DataError, match="image_size must be an int"):
            qm.load_checkpoint(path)
