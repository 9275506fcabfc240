"""States, observables, and measurement laws on dense matrices.

A state is a density matrix: Hermitian, positive semidefinite, trace one.
Positivity is certified by a Cholesky factorization of rho + STATE_TOL * I,
which exists exactly when every eigenvalue exceeds -STATE_TOL; the spectrum
is computed only for validate_state's rank and for a failure's message.
An observable (random variable) is a Hermitian matrix, kept read-only with
its eigenpairs so that one can be shared; measuring it in a state produces
its eigenvalues with probabilities Re tr(rho P), where P projects onto the
eigenspace. law sums <v|rho|v> over each eigenspace's eigenvectors v, so no
projector is formed. Matrices, vectors and probabilities are read by
linalg.as_numbers: a str or a bool is no number.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import EIG_CLUSTER_REL_TOL, as_numbers
from .linalg import UNITARY_TOL, hermitian_eig, is_hermitian, is_unitary

STATE_TOL = 1e-10
# Probabilities in [-NEGATIVE_PROB_TOL, 0) are rounding noise and clamp to
# zero; anything more negative indicates an invalid state and is an error.
NEGATIVE_PROB_TOL = 1e-12
LAW_SUM_TOL = 1e-9


class StateValidationError(ValueError):
    """A density-matrix condition failed.

    condition is one of "hermitian", "eigenvalues", "trace", naming which
    of the three defining requirements was violated.
    """

    def __init__(self, condition: str, message: str):
        super().__init__(message)
        self.condition = condition


@dataclass(frozen=True)
class DensityMatrix:
    """A quantum state: mat, read by linalg.as_numbers and checked square when
    built (StateValidationError "hermitian"); validate_state checks the rest."""

    mat: np.ndarray

    def __post_init__(self):
        mat = as_numbers("mat", self.mat, np.complex128, 2)
        if mat.shape[0] != mat.shape[1]:
            raise StateValidationError("hermitian", "state matrix is not square")
        self.__dict__["mat"] = mat

    @property
    def dim(self) -> int:
        return self.mat.shape[0]


@dataclass(frozen=True, eq=False, init=False)
class Observable:
    """A Hermitian matrix with its ascending eigenvalues and eigenvectors,
    all three read-only.

    The eigendecomposition is computed once at construction, from a copy of
    the caller's matrix, so instances are values, safe to share across
    threads; hermitian_eig rejects a matrix that is not Hermitian within
    UNITARY_TOL with ValueError.
    """

    mat: np.ndarray
    eigenvalues: np.ndarray
    eigenvectors: np.ndarray

    def __init__(self, mat):
        m = as_numbers("mat", mat, np.complex128, 2)
        m = m.copy() if m is mat else m  # frozen below, never the caller's array
        self._freeze(m, *hermitian_eig(m))

    @classmethod
    def from_eig(cls, mat, w, v) -> Observable:
        """Observable(mat) from eigenpairs (w ascending) stored as given,
        frozen in place, with no copy, no eigensolve and no check on mat.

        qpu_observable passes fresh Kronecker products of factors A_j whose
        pairs passed hermitian_eig's checks. Telescoping the product one
        factor at a time bounds ||A - V diag(w) V*|| by
        n * UNITARY_TOL * prod(max(||A_j||, 1)), times (1 + UNITARY_TOL)^(n-1).
        """
        obs = cls.__new__(cls)
        obs._freeze(as_numbers("mat", mat, np.complex128, 2), w, v)
        return obs

    def _freeze(self, mat, w, v) -> None:
        for a in (mat, w, v):
            a.setflags(write=False)
        self.__dict__.update(mat=mat, eigenvalues=w, eigenvectors=v)

    @property
    def dim(self) -> int:
        return self.mat.shape[0]


@dataclass(frozen=True)
class Law:
    """Discrete distribution over an observable's eigenvalues.

    outcomes is a tuple of (value, probability) pairs with ascending,
    distinct values and probabilities summing to one.
    """

    outcomes: tuple[tuple[float, float], ...]

    def values(self) -> list[float]:
        return [v for v, _ in self.outcomes]

    def probabilities(self) -> list[float]:
        return [p for _, p in self.outcomes]


def pure_state(psi) -> DensityMatrix:
    """The rank-one state |psi><psi| of a unit vector."""
    psi = as_numbers("psi", psi, np.complex128, 1)
    with np.errstate(over="ignore"):  # an overflowing norm is not 1
        norm = float(np.linalg.norm(psi))
    if not abs(norm - 1.0) <= STATE_TOL:
        raise ValueError(f"state vector norm {norm} is not 1 within {STATE_TOL}")
    return DensityMatrix(np.outer(psi, psi.conj()))


def _check_state(mat: np.ndarray) -> np.ndarray:
    """validate_state's three checks, in its order, on a square complex matrix;
    returns the hermitized matrix (A + A*) / 2.

    Positivity holds when the Cholesky factorization of the hermitized
    matrix plus STATE_TOL on its diagonal exists. Only when it does not is
    the smallest eigenvalue computed, which decides within rounding of
    -STATE_TOL and is named in the message.
    """
    if not is_hermitian(mat, STATE_TOL):
        raise StateValidationError(
            "hermitian", "state is not Hermitian within tolerance"
        )
    # Hermitize before factorizing so roundoff in the input cannot leak
    # imaginary parts into the factor or the eigenvalues. An entry near the
    # float limit overflows here; a factor that is not finite certifies
    # nothing, and the negated comparisons reject the NaN eigenvalue and trace.
    with np.errstate(invalid="ignore", over="ignore"):
        sym = mat + mat.conj().T
        sym /= 2.0
        # Shift the diagonal in place, not on a copy, and restore it exactly:
        # eigvalsh and validate_state's rank read the unshifted matrix.
        diag = sym.diagonal().copy()
        np.fill_diagonal(sym, diag + STATE_TOL)
        try:
            certified = bool(np.isfinite(np.linalg.cholesky(sym)).all())
        except np.linalg.LinAlgError:
            certified = False
        np.fill_diagonal(sym, diag)
        if not certified:
            low = float(np.linalg.eigvalsh(sym)[0])
            if not low >= -STATE_TOL:
                raise StateValidationError("eigenvalues", "eigenvalues beyond float range"
                                           if np.isnan(low) else f"negative eigenvalue {low:.3e}")
        tr = complex(np.trace(mat))
    if not abs(tr - 1.0) <= STATE_TOL:
        raise StateValidationError("trace", f"trace {tr} is not 1")
    return sym


def validate_state(rho: DensityMatrix) -> int:
    """Check the three density-matrix conditions and return the rank.

    Raises StateValidationError naming the violated condition: "hermitian"
    (A = A*), "eigenvalues" (all >= -STATE_TOL, certified by a Cholesky
    factorization of A + STATE_TOL * I), or "trace" (tr = 1). The rank is
    the number of eigenvalues exceeding STATE_TOL.
    """
    sym = _check_state(rho.mat)
    return int(np.count_nonzero(np.linalg.eigvalsh(sym) > STATE_TOL))


def law_probabilities(raw) -> np.ndarray:
    """Raw outcome probabilities, checked and clamped into a law's.

    Entries that are not real numbers (linalg.as_numbers) or not a nonempty
    1-D array raise ValueError; one not finite or below -NEGATIVE_PROB_TOL
    raises StateValidationError("eigenvalues"), a total off 1 by more than
    LAW_SUM_TOL StateValidationError("trace"). The entries are then clamped
    into [0, 1]; every law and basis distribution returns through this check.
    """
    p = as_numbers("probabilities", raw)
    if p.ndim != 1 or len(p) == 0:
        raise ValueError("probabilities must be a nonempty 1-D array")
    ok = np.isfinite(p) & (p >= -NEGATIVE_PROB_TOL)
    if not ok.all():
        raise StateValidationError(
            "eigenvalues", f"probability {float(p[~ok][0])!r} is negative or not finite"
        )
    total = float(p.sum())
    if not abs(total - 1.0) <= LAW_SUM_TOL:
        raise StateValidationError("trace", f"probabilities sum to {total!r}, not 1")
    return np.clip(p, 0.0, 1.0)


def law(a: Observable, rho: DensityMatrix) -> Law:
    """Measurement distribution of observable a in state rho.

    One outcome per run of eigenvalues within EIG_CLUSTER_REL_TOL * max(||A||, 1)
    of the next, valued at its mean, with probability Re tr(rho P) for the projector
    P onto its eigenspace, by law_probabilities; rho passes validate_state's checks.
    """
    _check_state(rho.mat)
    if a.dim != rho.dim:
        raise ValueError(f"dimension mismatch: {a.dim} vs {rho.dim}")
    v, w = a.eigenvectors, a.eigenvalues
    # <v_j| rho |v_j> for every eigenvector column j, from one product.
    expectations = np.einsum("ij,ij->j", v.conj(), rho.mat @ v).real
    tol = EIG_CLUSTER_REL_TOL * max(float(np.linalg.norm(a.mat)), 1.0)
    starts = np.flatnonzero(np.diff(w, prepend=-np.inf) > tol)  # after each gap above tol
    values = np.add.reduceat(w, starts) / np.diff(starts, append=len(w))
    probs = law_probabilities(np.add.reduceat(expectations, starts))
    return Law(outcomes=tuple(zip(values.tolist(), probs.tolist())))


def conjugate(m, v) -> np.ndarray:
    """V M V* for a unitary V and a square M of V's dimension; preserves laws
    of states and observables."""
    m, v = as_numbers("m", m, np.complex128, 2), as_numbers("v", v, np.complex128, 2)
    if not is_unitary(v, UNITARY_TOL):
        raise ValueError("conjugating matrix is not unitary within tolerance")
    if m.shape != v.shape:
        dim = m.shape[0] if m.shape[0] == m.shape[1] else f"shape {m.shape}"
        raise ValueError(f"dimension mismatch: {len(v)} vs {dim}")
    return v @ m @ v.conj().T
