"""Fixtures shared by the test modules: golden values recorded per OpenBLAS kernel family."""

import ctypes
import pathlib

import numpy as np
import pytest


def _openblas_family():
    """The kernel family that numpy's bundled OpenBLAS runs, by OpenBLAS's own name for it
    ("SkylakeX", "Haswell", "Sandybridge", ...), or None where no bundled OpenBLAS is found.

    OPENBLAS_CORETYPE selects the family: Cooperlake and SapphireRapids run the SkylakeX
    kernels, Zen the Haswell ones and Excavator the Sandybridge ones.
    """
    libs = pathlib.Path(np.__file__).parent.parent / "numpy.libs"
    for path in sorted(libs.glob("libscipy_openblas*.so*")):
        corename = ctypes.CDLL(str(path)).scipy_openblas_get_corename64_
        corename.argtypes, corename.restype = [], ctypes.c_char_p
        return corename().decode()
    return None


@pytest.fixture(scope="session")
def pinned():
    """The golden value recorded for the kernel family this run uses, from a dict keyed by
    family; the test fails, naming the family, where no value is recorded for it.

    Products and sums through BLAS round differently from one kernel family to the next
    (FMA or not, and the order of a blocked sum), so a byte-exact pin holds for one family.
    """
    kernel_family = _openblas_family()

    def pick(values):
        if kernel_family not in values:
            pytest.fail(f"no golden value is recorded for the OpenBLAS kernel family "
                        f"{kernel_family!r} (recorded: {', '.join(sorted(values))})")
        return values[kernel_family]
    return pick
