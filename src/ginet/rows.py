"""The rows the product gadgets see: sorted by value, and gathered on demand.

Every product gadget sorts each input row by value before its network
or column product sees it (value_sorted), so it is a function of the
multiset of its inputs: the canonical-ordering form of Janossy pooling.
The class sums of net.ClassSumStage hand their gadgets ClassRows, a view
that gathers a range of rows from the evaluation points and sorts them
in the caller's buffers (sort_rows), so a gadget can run block by block,
in pool threads too, without the whole (rows, k) array.
"""

from __future__ import annotations

import numpy as np

# widest row sort_rows sorts with compare-exchanges; per 1024 rows they
# took 5 / 13 / 29 us at k = 2 / 3 / 4 against about 41 us for np.sort
_EXCHANGE_SORT_MAX = 4


def sort_rows(Y: np.ndarray, spare: np.ndarray) -> None:
    """Sort each row of the (rows, k) array Y by value, in place.

    Up to _EXCHANGE_SORT_MAX columns this is an insertion network of
    compare-exchanges, np.minimum into spare (a float buffer of Y's row
    count) and np.maximum with its operands swapped into the higher
    column: numpy returns the same operand of a tie for both, so every
    exchange permutes the row, and -0.0 and 0.0 keep their signs.  Wider
    rows go through ndarray.sort.  Neither allocates."""
    if Y.shape[1] > _EXCHANGE_SORT_MAX:
        return Y.sort(axis=1)
    for j in range(1, Y.shape[1]):
        for i in range(j, 0, -1):
            a, b = Y[:, i - 1], Y[:, i]
            np.minimum(a, b, out=spare)
            np.maximum(b, a, out=b)
            a[:] = spare


def value_sorted(Y):
    """A gadget's rows sorted by value: ClassRows as they are (they
    gather sorted), an array as a sorted copy."""
    if not isinstance(Y, ClassRows):
        Y = np.array(Y, dtype=np.float64)
        sort_rows(Y, np.empty(len(Y)))
    return Y


class ClassRows:
    """The gadget rows of one class-sum term, gathered on demand.

    Row p * m + i holds point p's values at the i-th of the term's m
    digit rows, sorted by value: sorted(X[p, d] for d in digits[i]).
    gather copies a range of rows into a caller's buffer, with one take
    over the range's whole points and one for each cut point at its
    ends, then sorts them in place (sort_rows), so a gadget can run
    block by block without the (points * m, k) array.  np.asarray(rows)
    gathers all of them.
    """

    __slots__ = ("X", "digits", "shape")

    def __init__(self, X: np.ndarray, digits: np.ndarray):
        self.X = X
        self.digits = digits
        self.shape = (X.shape[0] * digits.shape[0], digits.shape[1])

    def gather(self, start: int, stop: int, out: np.ndarray, spare: np.ndarray) -> None:
        """Rows start..stop-1, value-sorted, into out[:stop - start]; spare
        is a float buffer at least as long, for the sort.  Allocates
        nothing (mode="clip" writes to out unbuffered; the digits are in
        range)."""
        X, digits = self.X, self.digits
        m = digits.shape[0]
        p, i = divmod(start, m)
        q, j = divmod(stop, m)
        row = 0
        if i and p < q:   # the rest of point p
            X[p].take(digits[i:], mode="clip", out=out[:m - i])
            row, p, i = m - i, p + 1, 0
        if p < q:         # whole points p..q-1
            whole = out[row:row + (q - p) * m].reshape(q - p, -1)
            X[p:q].take(digits.reshape(-1), axis=1, mode="clip", out=whole)
            row += (q - p) * m
        if i < j:         # the start of point q
            X[q].take(digits[i:j], mode="clip", out=out[row:row + j - i])
        sort_rows(out[:stop - start], spare[:stop - start])

    def __array__(self, dtype=None, copy=None):
        rows = self.X.take(self.digits.reshape(-1), axis=1).reshape(self.shape)
        sort_rows(rows, np.empty(rows.shape[0]))
        return rows if dtype is None else rows.astype(dtype, copy=False)
