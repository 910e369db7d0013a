"""Guard for the private scipy kernels the library calls.

``repro.core.localgraph`` and ``repro.graph.builder`` call
``scipy.sparse._sparsetools`` directly, skipping scipy's Python-level
checks and copies.  That module is private: a scipy release may rename
a kernel or change its arguments.  Each kernel is run here on a 3-node
example and compared with the public scipy result, so such an upgrade
fails in this one file.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp
from scipy.sparse import _sparsetools

# The 3-node weighted path 0 - 1 - 2 as a CSR matrix.
INDPTR = np.array([0, 1, 3, 4], dtype=np.int64)
INDICES = np.array([1, 0, 2, 1], dtype=np.int64)
DATA = np.array([2.0, 2.0, 5.0, 5.0])
X = np.array([1.0, 10.0, 100.0])


def _public():
    return sp.csr_matrix((DATA, INDICES, INDPTR), shape=(3, 3))


def test_csr_matvec_accumulates_a_times_x():
    y = np.full(3, 0.5)
    _sparsetools.csr_matvec(3, 3, INDPTR, INDICES, DATA, X, y)
    np.testing.assert_array_equal(y, 0.5 + _public() @ X)


def test_csc_matvec_accumulates_a_transpose_times_x():
    # The same arrays read as CSC are the transpose of the CSR matrix.
    y = np.full(3, 0.5)
    _sparsetools.csc_matvec(3, 3, INDPTR, INDICES, DATA, X, y)
    np.testing.assert_array_equal(y, 0.5 + _public().T @ X)


def test_coo_tocsr_is_a_stable_bucket_sort_by_row():
    rows = np.array([2, 0, 1, 0, 2, 1], dtype=np.int32)
    cols = np.array([1, 2, 0, 1, 0, 2], dtype=np.int32)
    vals = np.array([1.0, 2.0, 3.0, 4.0, 5.0, 6.0])
    indptr = np.empty(4, dtype=np.int32)
    out_cols = np.empty(6, dtype=np.int32)
    out_vals = np.empty(6)
    _sparsetools.coo_tocsr(
        3, 3, 6, rows, cols, vals, indptr, out_cols, out_vals
    )
    public = sp.coo_matrix((vals, (rows, cols)), shape=(3, 3))
    ours = sp.csr_matrix((out_vals, out_cols, indptr), shape=(3, 3))
    np.testing.assert_array_equal(indptr, public.tocsr().indptr)
    np.testing.assert_array_equal(ours.toarray(), public.toarray())
    # Entries of one row keep their input order, unsorted by column.
    order = np.argsort(rows, kind="stable")
    np.testing.assert_array_equal(out_cols, cols[order])
    np.testing.assert_array_equal(out_vals, vals[order])
