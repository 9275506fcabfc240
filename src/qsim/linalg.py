"""Dense complex linear algebra kernel.

Matrices are numpy arrays with dtype complex128 in row-major layout;
vectors are one-dimensional arrays of the same dtype. All functions are
pure and never mutate their inputs.

Tolerances are named module constants: UNITARY_TOL (1e-10) for
unitarity and hermiticity, EIG_CLUSTER_REL_TOL (1e-9, relative) for
eigenvalue clustering. Only the predicates take a tolerance argument.
A residual is compared as residual <= tol, computed with numpy's
overflow and invalid-value warnings off, so an infinite or NaN entry, or
one whose products overflow, gives False or the documented error, never a
numpy warning; an eigenvalue beyond float range is a ValueError.

Arguments are read by as_count (an integer), as_counts (a column of them)
and as_numbers (an array of real or complex numbers), each raising a
ValueError naming the argument. Every reader of circuit, factor, density and
unitary input raises ParseError for bad structure; JSON numbers pass are_json_numbers.
"""

from __future__ import annotations

import math

import numpy as np

UNITARY_TOL = 1e-10
# Eigenvalues closer than this (relative to the Hilbert-Schmidt norm of the
# matrix) are treated as one degenerate eigenvalue of a measurement law.
EIG_CLUSTER_REL_TOL = 1e-9
# as_counts clamps its bounds into int64's range.
_INT64_MIN, _INT64_MAX = int(np.iinfo(np.int64).min), int(np.iinfo(np.int64).max)


class ParseError(ValueError):
    """Malformed input text or JSON: its structure, not what it describes."""


def are_json_numbers(values) -> bool:
    """Every value is an int or a float, as json.loads returns JSON numbers; not "0.5" or true."""
    return set(map(type, values)) <= {int, float}


def as_count(name: str, x, least: int | None = None, most: int | None = None) -> int:
    """x as a Python int when it is an integer, Python or numpy, and not a bool,
    within least..most where they are given; ValueError otherwise. Every n,
    dim, label, bit, seed and shot count passes this rule."""
    if isinstance(x, bool) or not isinstance(x, (int, np.integer)):
        raise ValueError(f"{name} must be an integer, got {x!r}")
    x = int(x)
    if least is not None and x < least:
        raise ValueError(f"{name} must be at least {least}, got {x}")
    if most is not None and x > most:
        raise ValueError(f"{name} must be at most {most}, got {x}")
    return x


def as_counts(name: str, x, least: int | None = None, most: int | None = None) -> np.ndarray:
    """x as a new read-only int64 column when every entry passes as_count(name,
    entry, least, most), the bounds clamped to int64's range, and x is 1-D;
    otherwise as_count's ValueError for the first that fails, or as_numbers's."""
    least = _INT64_MIN if least is None else max(least, _INT64_MIN)
    most = _INT64_MAX if most is None else min(most, _INT64_MAX)
    a = x if isinstance(x, np.ndarray) else np.array(x, dtype=object)
    types = set(map(type, a.ravel())) if a.dtype == object else {a.dtype.type}
    if not (all(issubclass(t, (int, np.integer)) and t is not bool for t in types)
            and (a >= least).all() and (a <= most).all()):
        for entry in a.ravel():  # only to name the first failure
            as_count(name, entry, least, most)
    if a.ndim != 1:
        raise ValueError(f"{name} must be a 1-D array, got a {a.ndim}-D input")
    column = a.astype(np.int64)
    column.setflags(write=False)
    return column


def as_numbers(name: str, x, dtype=np.float64, ndim: int | None = None) -> np.ndarray:
    """x as an array of dtype, float64 or complex128, when each entry is a
    Python or numpy number, not a bool or a str, real unless dtype is
    complex128, and within float range, with ndim axes where ndim is given;
    ValueError naming x otherwise. An ndarray of dtype is returned itself,
    anything else as a new array. Every state, matrix, vector, block,
    probability, angle, time and density number passes this rule."""
    # A list is read as objects: np.array(x) would read True among floats as 1.0.
    a = x if isinstance(x, np.ndarray) else np.array(x, dtype=object)
    if a.dtype.type is not dtype:
        types = set(map(type, a.ravel())) if a.dtype == object else {a.dtype.type}
        real = dtype is np.float64
        kind = (int, float, np.integer, np.floating) if real else (int, float, complex, np.number)
        what = "real numbers" if real else "numbers"
        if not all(issubclass(t, kind) and not issubclass(t, bool) for t in types):
            raise ValueError(f"{name} must be {what}, got {sorted(t.__name__ for t in types)}")
        try:
            a = a.astype(dtype)
        except OverflowError:  # a Python int beyond the largest float
            raise ValueError(f"{name} must be {what} within float range") from None
    if ndim is not None and a.ndim != ndim:
        raise ValueError(f"{name} must be a {ndim}-D array, got a {a.ndim}-D input")
    return a


def scaled_norm(a: np.ndarray) -> tuple[float, float]:
    """(||s A||, s): the Frobenius norm of A, s = 1, unless it overflows; then of
    A times s = 2^-e, e from np.frexp of the largest |entry| of a finite A."""
    with np.errstate(over="ignore"):
        norm = float(np.linalg.norm(a))
    if math.isfinite(norm) or not np.isfinite(a).all():
        return norm, 1.0
    s = 2.0 ** -int(np.frexp(np.abs(a).max())[1])
    return float(np.linalg.norm(a * s)), s


def is_hermitian(a, tol: float = UNITARY_TOL) -> bool:
    """True when the Frobenius residual of A - A* is at most tol."""
    a = as_numbers("a", a, np.complex128, 2)
    if a.shape[0] != a.shape[1]:
        return False
    with np.errstate(invalid="ignore", over="ignore"):  # a non-finite residual is not <= tol
        return float(np.linalg.norm(a - a.conj().T)) <= tol


def is_unitary(u, tol: float = UNITARY_TOL) -> bool:
    """True when the Frobenius residual of U*U - I is at most tol."""
    u = as_numbers("u", u, np.complex128, 2)
    if u.shape[0] != u.shape[1]:
        return False
    with np.errstate(invalid="ignore", over="ignore"):  # a non-finite residual is not <= tol
        return float(np.linalg.norm(u.conj().T @ u - np.eye(u.shape[0]))) <= tol


def hermitian_eig(a) -> tuple[np.ndarray, np.ndarray]:
    """Eigendecomposition A = V diag(w) V* of a Hermitian matrix, as (w, V).

    w is real and ascending; column i of V is a unit eigenvector for w[i],
    and the columns are orthonormal. Requires the input to be Hermitian
    within UNITARY_TOL, with finite eigenvalues (ValueError otherwise), and
    guarantees the reconstruction residual ||A - V diag(w) V*|| <= UNITARY_TOL
    * max(||A||, 1), or raises ArithmeticError; where ||A|| overflows, both
    sides are measured on A and w scaled by scaled_norm's power of two.
    """
    a = as_numbers("a", a, np.complex128, 2)
    if not is_hermitian(a):
        raise ValueError("matrix is not Hermitian within tolerance")
    w, v = np.linalg.eigh(a)
    if not np.isfinite(w).all():  # finite entries whose eigenvalue overflows
        raise ValueError("matrix has an eigenvalue beyond float range")
    norm, s = scaled_norm(a)  # the residual and bound of s A and s w, the bound's 1 as s
    sa, sw = (a, w) if s == 1.0 else (a * s, w * s)
    with np.errstate(invalid="ignore", over="ignore"):
        residual = float(np.linalg.norm((v * sw) @ v.conj().T - sa))
    if not residual <= UNITARY_TOL * max(norm, s):
        raise ArithmeticError(f"eigendecomposition residual {residual:.3e} exceeds tolerance")
    return w, v


def unitary_from_hamiltonian(h, t: float) -> np.ndarray:
    """The unitary exp(-i t H) of a Hermitian generator H, for one finite real
    t (as_numbers's rule, checked first), through the eigendecomposition of H,
    which checks that H is Hermitian, with every t * eigenvalue finite; the
    result is checked to be unitary.
    """
    s = as_numbers("t", t, ndim=0)
    if not np.isfinite(s):
        raise ValueError(f"t must be finite, got {t!r}")
    w, v = hermitian_eig(as_numbers("h", h, np.complex128, 2))
    with np.errstate(over="ignore"):
        phase = t * w
    if not np.isfinite(phase).all():
        raise ValueError(f"t * H has an eigenvalue beyond float range at t = {t!r}")
    u = (v * np.exp(-1j * phase)) @ v.conj().T
    if not is_unitary(u):
        raise ArithmeticError("exponential drifted off the unitary group")
    return u
