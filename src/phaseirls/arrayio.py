"""Reading and writing 2-D grids as NPY v1.0 files.

The interchange format is the plain NPY v1.0 layout written by numpy: magic
bytes 0x93 "NUMPY", version (1, 0), a header dict with the float
descriptor, the fortran_order flag and the (N, M) shape, followed by the
payload.  Grids are written as "<f8" with fortran_order False (row-major).
Loading accepts float32 or float64 of either byte order ("<f8", ">f8",
"<f4", ">f4") in either layout, validates that the file holds a finite 2-D
real float array, and returns it as a C-contiguous native float64 grid.
"""

import numpy as np

__all__ = ["ArrayFileError", "load_grid", "save_grid"]


class ArrayFileError(ValueError):
    """The file is not a well-formed 2-D float grid."""


def load_grid(path):
    """Load and validate a 2-D float grid, returned as float64."""
    try:
        arr = np.load(path, allow_pickle=False)
    except FileNotFoundError as exc:
        raise ArrayFileError(f"no such file: {path}") from exc
    except (OSError, ValueError, EOFError) as exc:
        raise ArrayFileError(f"cannot parse {path}: {exc}") from exc
    if not isinstance(arr, np.ndarray) or arr.ndim != 2:
        raise ArrayFileError(f"{path}: expected a 2-D array")
    if arr.dtype.kind != "f" or arr.dtype.itemsize not in (4, 8):
        raise ArrayFileError(f"{path}: expected float32 or float64 data, got {arr.dtype}")
    out = np.ascontiguousarray(arr, dtype=np.float64)
    if not np.all(np.isfinite(out)):
        raise ArrayFileError(f"{path}: array contains non-finite values")
    return out


def save_grid(path, arr):
    """Write a 2-D grid as NPY v1.0 little-endian float64 ("<f8")."""
    data = np.ascontiguousarray(arr, dtype="<f8")
    if data.ndim != 2:
        raise ValueError(f"expected a 2-D array, got shape {data.shape}")
    # write through a handle so np.save cannot append a .npy suffix
    with open(path, "wb") as fh:
        np.save(fh, data)
