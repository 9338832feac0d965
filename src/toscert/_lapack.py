"""The one place toscert takes LAPACK from: scipy's compiled `_flapack`.

The module loads the extension `scipy/linalg/_flapack` by itself, under
its own name `scipy.linalg._flapack` (or takes that entry of sys.modules
when scipy.linalg already loaded it), so the routines below are the very
objects `scipy.linalg.lapack` exposes and every result is bitwise what the
`scipy.linalg` wrappers gave. It does not import the `scipy.linalg`
package: that package's `__init__` pulls scipy's array-API layer, which
clones numpy's namespace and so imports `numpy.f2py`, `numpy.testing` and
`numpy.ma`. Measured on a 2-core machine (Python 3.11, numpy 2.4, scipy
1.17), that import adds 28.6 MB of peak resident memory to the 26.8 MB
of `import numpy`, where `_flapack` alone adds 2.7 MB, and a cold
`toscert certify` falls from 0.49 s to 0.19 s without it. numpy.linalg
is no substitute: it is a second LAPACK build, and its gufunc set-up
costs more than the solve at n = 7 (cholesky 5.0 against dpotrf's
1.0 us, eigvalsh 7.6 against dsyevd's 5.9, a triangular inv 9.7 against
dtrtri's 1.5).

A missing extension raises ImportError naming the path it looked for.
scipy.linalg imported after toscert works as ever and takes this module
from sys.modules; only its package attribute `_flapack` stays unset.
"""

import importlib.machinery
import importlib.util
import os
import sys

import numpy as np


def _load_flapack():
    name = "scipy.linalg._flapack"
    if name in sys.modules:
        return sys.modules[name]
    spec = importlib.util.find_spec("scipy")  # imports nothing
    if spec is None:
        raise ImportError("toscert needs scipy, which is not installed")
    base = os.path.join(spec.submodule_search_locations[0], "linalg",
                        "_flapack")
    path = next((base + suffix
                 for suffix in importlib.machinery.EXTENSION_SUFFIXES
                 if os.path.isfile(base + suffix)), None)
    if path is None:
        raise ImportError(f"no compiled LAPACK extension {base}.*")
    loader = importlib.machinery.ExtensionFileLoader(name, path)
    module = importlib.util.module_from_spec(
        importlib.util.spec_from_file_location(name, path, loader=loader))
    sys.modules[name] = module
    loader.exec_module(module)
    return module


_flapack = _load_flapack()
dpotrf = _flapack.dpotrf
dpotrs = _flapack.dpotrs
dtrtri = _flapack.dtrtri
dsyevd = _flapack.dsyevd
dpbtrf = _flapack.dpbtrf
dpbtrs = _flapack.dpbtrs


def null_space(a):
    """Orthonormal columns spanning the null space of a nonempty real a.

    scipy.linalg.null_space for such input: one dgesdd with full matrices
    and dgesdd_lwork's workspace, singular values up to
    max(m, n) eps max(s) counted as zero.
    """
    a = np.asarray_chkfinite(a, dtype=float)
    m, n = a.shape
    work, info = _flapack.dgesdd_lwork(m, n, compute_uv=1, full_matrices=1)
    if info != 0:
        raise ValueError(f"dgesdd_lwork failed with info {info}")
    _, s, vh, info = _flapack.dgesdd(a, compute_uv=1, lwork=int(work.real),
                                     full_matrices=1)
    if info > 0:
        raise np.linalg.LinAlgError("SVD did not converge")
    if info < 0:
        raise ValueError(f"illegal value in argument {-info} of dgesdd")
    rank = int((s > s.max() * (np.finfo(float).eps * max(m, n))).sum())
    return vh[rank:].T.conj()  # a copy, laid out as scipy's
