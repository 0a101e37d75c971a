"""Disk formats: canonical hashing, config files, CSV tables."""
import numpy as np
import pytest

from mmspectral import (
    ConfigParseError,
    canonical_json,
    config_hash,
    load_json_config,
    save_csv,
)


class TestCanonicalJson:
    def test_key_order_is_irrelevant(self):
        assert canonical_json({"b": 1, "a": [1.5, 2]}) == canonical_json({"a": [1.5, 2], "b": 1})

    def test_exact_text(self):
        assert canonical_json({"b": 1, "a": [1.5, 2]}) == '{"a":[1.5,2],"b":1}'

    def test_hash_is_stable_and_order_insensitive(self):
        h1 = config_hash({"kind": "estimators", "seeds": [0, 1]})
        h2 = config_hash({"seeds": [0, 1], "kind": "estimators"})
        assert h1 == h2
        assert len(h1) == 64 and set(h1) <= set("0123456789abcdef")

    def test_hash_sees_value_changes(self):
        assert config_hash({"seeds": [0, 1]}) != config_hash({"seeds": [0, 2]})


class TestLoadJsonConfig:
    def test_reads_flat_object(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text('{"seeds": [3, 4], "dim": 2}')
        assert load_json_config(path) == {"seeds": [3, 4], "dim": 2}

    def test_missing_file_is_parse_error(self, tmp_path):
        with pytest.raises(ConfigParseError):
            load_json_config(tmp_path / "absent.json")

    def test_non_object_is_parse_error(self, tmp_path):
        path = tmp_path / "list.json"
        path.write_text("[1, 2]")
        with pytest.raises(ConfigParseError):
            load_json_config(path)

    def test_garbage_file_is_parse_error(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        with pytest.raises(ConfigParseError):
            load_json_config(path)


class TestCsv:
    def test_floats_written_with_repr(self, tmp_path):
        path = tmp_path / "t.csv"
        save_csv(path, [[1.0 / 3.0, "label"]], header=["x", "name"])
        lines = path.read_text().splitlines()
        assert lines[0] == "x,name"
        assert lines[1] == "0.3333333333333333,label"

    def test_one_dimensional_input_becomes_column(self, tmp_path):
        path = tmp_path / "col.csv"
        save_csv(path, np.array([0.5, 0.25]))
        assert path.read_text().splitlines() == ["0.5", "0.25"]

    def test_matrix_csv_roundtrips_exactly(self, tmp_path):
        """repr of a float64 parses back to the identical value, so the
        CSV is lossless even though it is meant for humans."""
        rng = np.random.default_rng(11)
        m = rng.standard_normal((4, 3))
        path = tmp_path / "m.csv"
        save_csv(path, m)
        back = np.loadtxt(path, delimiter=",")
        np.testing.assert_array_equal(back, m)

    def test_rewrites_are_byte_identical(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        rows = [[0.1, 0.2], [0.3, 0.4]]
        save_csv(a, rows, header=["u", "v"])
        save_csv(b, rows, header=["u", "v"])
        assert a.read_bytes() == b.read_bytes()
