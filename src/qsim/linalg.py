"""Dense complex linear algebra kernel.

Matrices are numpy arrays with dtype complex128 in row-major layout;
vectors are one-dimensional arrays of the same dtype. All functions are
pure and never mutate their inputs.

Tolerances are named module constants: UNITARY_TOL (1e-10) for
unitarity and hermiticity, EIG_CLUSTER_REL_TOL (1e-9, relative) for
eigenvalue clustering. Only the predicates take a tolerance argument.

Arguments are read by as_count (an integer), as_counts (a column of them)
and as_reals (real numbers), each raising a ValueError naming the argument.
"""

from __future__ import annotations

import numpy as np

UNITARY_TOL = 1e-10
# Eigenvalues closer than this (relative to the Hilbert-Schmidt norm of the
# matrix) are treated as one degenerate eigenvalue of a measurement law.
EIG_CLUSTER_REL_TOL = 1e-9


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
    entry, least, most); otherwise as_count's ValueError for the first that fails."""
    a = x if isinstance(x, np.ndarray) else np.array(x, dtype=object)
    types = set(map(type, a.ravel())) if a.dtype == object else {a.dtype.type}
    if not (all(issubclass(t, (int, np.integer)) and t is not bool for t in types)
            and (least is None or (a >= least).all()) and (most is None or (a <= most).all())):
        for entry in a.ravel():  # only to name the first failure
            as_count(name, entry, least, most)
    column = a.astype(np.int64)
    column.setflags(write=False)
    return column


def as_reals(name: str, x) -> np.ndarray:
    """x as a new float64 array when each entry is a real number, Python or
    numpy, not a bool, str or complex, and within float range; ValueError
    otherwise. Every angle, time and density number passes this rule."""
    # A list is read as objects: np.array(x) would read True among floats as 1.0.
    a = x if isinstance(x, np.ndarray) else np.array(x, dtype=object)
    types = set(map(type, a.ravel())) if a.dtype == object else {a.dtype.type}
    real = (int, float, np.integer, np.floating)
    if not all(issubclass(t, real) and not issubclass(t, bool) for t in types):
        raise ValueError(f"{name} must be real numbers, got {sorted(t.__name__ for t in types)}")
    try:
        return a.astype(np.float64)
    except OverflowError:  # a Python int beyond the largest float
        raise ValueError(f"{name} must be real numbers within float range") from None


def as_matrix(a) -> np.ndarray:
    """Coerce input to a 2-D complex128 array (no copy when already one)."""
    m = np.asarray(a, dtype=np.complex128)
    if m.ndim != 2:
        raise ValueError(f"expected a 2-D matrix, got a {m.ndim}-D input")
    return m


def as_vector(psi) -> np.ndarray:
    """Coerce input to a 1-D complex128 array."""
    v = np.asarray(psi, dtype=np.complex128)
    if v.ndim != 1:
        raise ValueError(f"expected a 1-D vector, got a {v.ndim}-D input")
    return v


def is_hermitian(a, tol: float = UNITARY_TOL) -> bool:
    """True when the Frobenius residual of A - A* is at most tol."""
    a = as_matrix(a)
    if a.shape[0] != a.shape[1]:
        return False
    return float(np.linalg.norm(a - a.conj().T)) <= tol


def is_unitary(u, tol: float = UNITARY_TOL) -> bool:
    """True when the Frobenius residual of U*U - I is at most tol."""
    u = as_matrix(u)
    if u.shape[0] != u.shape[1]:
        return False
    n = u.shape[0]
    return float(np.linalg.norm(u.conj().T @ u - np.eye(n))) <= tol


def hermitian_eig(a) -> tuple[np.ndarray, np.ndarray]:
    """Eigendecomposition A = V diag(w) V* of a Hermitian matrix, as (w, V).

    w is real and ascending; column i of V is a unit eigenvector for w[i],
    and the columns are orthonormal. Requires the input to be Hermitian
    within UNITARY_TOL and guarantees the reconstruction residual
    ||A - V diag(w) V*|| <= UNITARY_TOL * max(||A||, 1).
    """
    a = as_matrix(a)
    if not is_hermitian(a):
        raise ValueError("matrix is not Hermitian within tolerance")
    w, v = np.linalg.eigh(a)
    residual = float(np.linalg.norm((v * w) @ v.conj().T - a))
    if residual > UNITARY_TOL * max(float(np.linalg.norm(a)), 1.0):
        raise ArithmeticError(f"eigendecomposition residual {residual:.3e} exceeds tolerance")
    return w, v


def unitary_from_hamiltonian(h, t: float) -> np.ndarray:
    """The unitary exp(-i t H) of a Hermitian generator H, for one finite real
    t (as_reals's rule, checked first), through the eigendecomposition of H,
    which checks that H is Hermitian; the result is checked to be unitary.
    """
    s = as_reals("t", t)
    if s.ndim != 0:
        raise ValueError(f"t must be a single number, got shape {s.shape}")
    if not np.isfinite(s):
        raise ValueError(f"t must be finite, got {t!r}")
    w, v = hermitian_eig(h)
    u = (v * np.exp(-1j * t * w)) @ v.conj().T
    if not is_unitary(u):
        raise ArithmeticError("exponential drifted off the unitary group")
    return u
