import hashlib
from pathlib import Path

import pytest

from tessera import serialize


def _rows_then_fail(k):
    for i in range(k):
        yield [float(i), f"r{i}"]
    raise RuntimeError("writer died")


def test_write_csv_failure_keeps_previous_file(tmp_path):
    path = tmp_path / "curve.csv"
    serialize.write_csv(path, ["x", "name"], [[0.5, "a"]])
    with pytest.raises(RuntimeError, match="writer died"):
        serialize.write_csv(path, ["x", "name"], _rows_then_fail(1000))
    assert path.read_text() == "x,name\n0.5,a\n"
    assert [p.name for p in tmp_path.iterdir()] == ["curve.csv"]


def test_atomic_write_replaces_whole_file_with_plain_permissions(tmp_path):
    plain = tmp_path / "plain.json"
    plain.write_text("{}\n")
    path = tmp_path / "report.json"
    path.write_text("x" * 10000)
    serialize.dump({"a": 1}, path)
    assert path.read_text() == '{\n  "a": 1\n}\n'
    assert path.stat().st_mode == plain.stat().st_mode
    assert sorted(p.name for p in tmp_path.iterdir()) == ["plain.json", "report.json"]
    with pytest.raises(ValueError):
        with serialize.atomic_write(path) as f:
            f.write("partial")
            raise ValueError("interrupted")
    assert path.read_text() == '{\n  "a": 1\n}\n'
    assert sorted(p.name for p in tmp_path.iterdir()) == ["plain.json", "report.json"]


def test_temp_names_are_recognised():
    made = serialize.temp_path(Path("run") / "data.csv")
    assert made.parent == Path("run")
    assert serialize.is_temp_name(made.name)
    assert serialize.is_temp_name(".data.csv.deadbeef.tmp")
    for name in ("data.csv", "data.csv.deadbeef.tmp", ".data.csv.tmp", ".data.csv.deadbeef",
                 ".data.csv.DEADBEEF.tmp", ".data.csv.deadbee.tmp", "..deadbeef.tmp"):
        assert not serialize.is_temp_name(name), name


def test_atomic_write_hashes_the_bytes_that_reach_the_file(tmp_path):
    path = tmp_path / "mixed.txt"
    with serialize.atomic_write(path) as f:
        f.write("Zürich,東京\n")
        f.flush()
        f.buffer.write(b"raw \xff bytes\r\n")  # bytes past the text layer, as is
        f.write("tail\r\n" * 5000)  # past the buffer size, so flushed mid-block
    data = path.read_bytes()
    assert data.startswith("Zürich,東京".encode(f.encoding)) and b"raw \xff bytes\r\n" in data
    assert len(data) > 5000 * 6
    assert f.sha256.hexdigest() == hashlib.sha256(data).hexdigest()
    assert serialize.dump({"k": "é"}, path) == hashlib.sha256(path.read_bytes()).hexdigest()
