import numpy as np
import pytest

from phaseirls.arrayio import ArrayFileError, load_grid, save_grid


class TestRoundTrip:
    # dtype is the source array's; save_grid writes both as their exact <f8 values
    @pytest.mark.parametrize("dtype", ["<f8", "<f4"])
    def test_write_read_bit_identical(self, tmp_path, rng, dtype):
        path = tmp_path / "grid.npy"
        arr = rng.standard_normal((13, 9)).astype(np.dtype(dtype))
        save_grid(path, arr)
        again = tmp_path / "again.npy"
        save_grid(again, load_grid(path))
        assert path.read_bytes() == again.read_bytes()

    def test_header_layout(self, tmp_path):
        path = tmp_path / "grid.npy"
        save_grid(path, np.zeros((3, 4)))
        blob = path.read_bytes()
        assert blob[:6] == b"\x93NUMPY"
        assert blob[6:8] == bytes([1, 0])
        header = blob[10 : 10 + int.from_bytes(blob[8:10], "little")].decode("latin1")
        assert "'descr': '<f8'" in header
        assert "'fortran_order': False" in header
        assert "(3, 4)" in header

    def test_float32_upcasts_on_load(self, tmp_path):
        path = tmp_path / "grid.npy"
        with open(path, "wb") as fh:
            np.save(fh, np.ones((2, 2), dtype="<f4"))
        out = load_grid(path)
        assert out.dtype == np.float64


class TestValidation:
    def test_missing_file(self, tmp_path):
        with pytest.raises(ArrayFileError):
            load_grid(tmp_path / "absent.npy")

    def test_garbage_bytes(self, tmp_path):
        path = tmp_path / "bad.npy"
        path.write_bytes(b"not an array at all")
        with pytest.raises(ArrayFileError):
            load_grid(path)

    def test_wrong_rank(self, tmp_path):
        path = tmp_path / "one_d.npy"
        with open(path, "wb") as fh:
            np.save(fh, np.zeros(5))
        with pytest.raises(ArrayFileError):
            load_grid(path)

    def test_wrong_dtype(self, tmp_path):
        path = tmp_path / "ints.npy"
        with open(path, "wb") as fh:
            np.save(fh, np.zeros((2, 2), dtype=np.int32))
        with pytest.raises(ArrayFileError):
            load_grid(path)

    def test_nonfinite_payload(self, tmp_path):
        path = tmp_path / "nan.npy"
        with open(path, "wb") as fh:
            np.save(fh, np.full((2, 2), np.nan))
        with pytest.raises(ArrayFileError):
            load_grid(path)
