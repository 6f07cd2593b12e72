"""BLAS pinned to one thread for the length of a command.

numpy and scipy each load their own OpenBLAS, and each runs its calls on
as many threads as the machine has CPUs unless told otherwise.  For
tempex's small matrices that is slower (training took 2 to 8 times as
long on 2 CPUs, the threads competing with the interpreter), and it
makes results depend on the machine: each library's threads sum in
another order, so a model trained on 2 CPUs differs in its last bits
from one trained on 1.  `one_thread()` sets both libraries to one thread
through their own setters and restores the counts they had on exit.
Nothing is read from or written to the environment.
"""

from __future__ import annotations

import ctypes
import functools
from contextlib import contextmanager
from pathlib import Path
from typing import Callable, Iterator

import numpy
import scipy

# Per package: its wheel's library directory, the OpenBLAS file in it,
# and that library's thread-count setter and getter.
OPENBLAS = (
    (numpy, "numpy.libs", "libscipy_openblas64_*.so",
     "scipy_openblas_set_num_threads64_",
     "scipy_openblas_get_num_threads64_"),
    (scipy, "scipy.libs", "libscipy_openblas-*.so",
     "scipy_openblas_set_num_threads", "scipy_openblas_get_num_threads"),
)


class BlasError(RuntimeError):
    pass


@functools.cache
def thread_controls() -> tuple[tuple[Callable, Callable], ...]:
    """(setter, getter) of the thread count of each OpenBLAS that numpy
    and scipy load, looked up once per process.  Raises BlasError when
    neither is found: results would then depend on the machine's CPUs."""
    controls = []
    for package, libs, pattern, setter, getter in OPENBLAS:
        directory = Path(package.__file__).parents[1] / libs
        for path in sorted(directory.glob(pattern)):
            # the library is already loaded; this returns its handle
            library = ctypes.CDLL(str(path))
            set_threads = getattr(library, setter)
            set_threads.argtypes, set_threads.restype = [ctypes.c_int], None
            get_threads = getattr(library, getter)
            get_threads.argtypes, get_threads.restype = [], ctypes.c_int
            controls.append((set_threads, get_threads))
    if not controls:
        raise BlasError(
            "no OpenBLAS library in numpy.libs or scipy.libs: tempex "
            "pins BLAS to one thread through it")
    return tuple(controls)


@contextmanager
def one_thread() -> Iterator[None]:
    """Run the body with every OpenBLAS of numpy and scipy on one thread."""
    controls = thread_controls()
    before = [get_threads() for _, get_threads in controls]
    for set_threads, _ in controls:
        set_threads(1)
    try:
        yield
    finally:
        for (set_threads, _), count in zip(controls, before):
            set_threads(count)
