"""States, observables, and measurement laws on dense matrices.

A state is a density matrix: Hermitian, positive semidefinite, trace one.
Positivity is certified by a Cholesky factorization of rho + STATE_TOL * I,
which exists exactly when every eigenvalue exceeds -STATE_TOL; the spectrum
is computed only for validate_state's rank and for a failure's message.
An observable (random variable) is a Hermitian matrix, kept read-only with
its eigenpairs so that one can be shared; measuring it in a state produces
its eigenvalues with probabilities Re tr(rho P), where P projects onto the
eigenspace. law sums <v|rho|v> over each eigenspace's eigenvectors v, so no
projector is formed; for a ProductObservable, a Kronecker product of 2x2
observables, it reads them from the diagonal of rho turned wire by wire,
and its mat and eigenvectors are reduce(np.kron, ...) of the factors' on
each read. Matrices, vectors and probabilities are read by linalg.as_numbers:
a str or a bool is no number.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce

import numpy as np

from .linalg import EIG_CLUSTER_REL_TOL, as_numbers
from .linalg import UNITARY_TOL, hermitian_eig, is_hermitian, is_unitary, scaled_norm

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
    UNITARY_TOL with ValueError. ProductObservable is the lazy product form.
    """

    mat: np.ndarray
    eigenvalues: np.ndarray
    eigenvectors: np.ndarray

    def __init__(self, mat):
        m = as_numbers("mat", mat, np.complex128, 2)
        m = m.copy() if m is mat else m  # frozen below, never the caller's array
        w, v = hermitian_eig(m)
        for a in (m, w, v):
            a.setflags(write=False)
        self.__dict__.update(mat=m, eigenvalues=w, eigenvectors=v)

    @property
    def dim(self) -> int:
        return len(self.eigenvalues)


_IDENTITY = np.eye(2, dtype=np.complex128).tobytes()  # a wire that needs no turn


@dataclass(frozen=True, eq=False, init=False, repr=False)
class ProductObservable(Observable):
    """A_1 (x) ... (x) A_n of 2x2 Observables (a matrix factor is made one),
    A_1 the leftmost: it keeps the factors, the ascending eigenvalues (the
    products of the factors', in array-position order, sorted stably) and
    that order, read-only. mat and eigenvectors (the columns in eigenvalue
    order) are built read-only on each read and not kept; no check runs on a
    2^n x 2^n matrix. Telescoping the product one factor at a time bounds
    ||A - V diag(w) V*|| by n * UNITARY_TOL * prod(max(||A_j||, 1)), times
    (1 + UNITARY_TOL)^(n-1).
    """

    factors: tuple[Observable, ...]
    order: np.ndarray

    def __init__(self, factors):
        fs = tuple(f if isinstance(f, Observable) else Observable(f) for f in factors)
        for f in fs:
            if f.dim != 2:
                raise ValueError(f"factor dimension {f.dim} is not 2")
        if not fs:
            raise ValueError("at least one factor is required")
        w = reduce(np.multiply.outer, [f.eigenvalues for f in fs]).ravel()
        order = np.argsort(w, kind="stable")
        w = w[order]
        for a in (w, order):
            a.setflags(write=False)
        self.__dict__.update(factors=fs, eigenvalues=w, order=order)

    def __repr__(self) -> str:
        return f"ProductObservable(factors={self.factors!r})"

    def _kron(self, name: str, columns=slice(None)) -> np.ndarray:
        """The Kronecker product of the factors' name arrays, read-only, from a copy of
        the first: a 1x1 start of ones would turn zeros' signs (1 * (-0 - 1j) is 0 - 1j)."""
        first, *rest = [getattr(f, name) for f in self.factors]
        a = reduce(np.kron, rest, first.copy())[:, columns]
        a.setflags(write=False)
        return a

    @property
    def mat(self) -> np.ndarray:
        return self._kron("mat")

    @property
    def eigenvectors(self) -> np.ndarray:
        return self._kron("eigenvectors", self.order)

    def _expectations(self, rho: np.ndarray) -> np.ndarray:
        """<v_j| rho |v_j> for each eigenvector column v_j, in eigenvalue
        order: the diagonal of V* rho V. Wire by wire, its row and column
        indices k, l contract into one index a through conj(V_j[k, a]) V_j[l, a],
        halving the array, O(4^n) in all; an identity V_j takes the diagonal
        as a view, and when every V_j is one, rho's diagonal is read as it is."""
        n, t = len(self.factors), rho.diagonal()
        vs = [f.eigenvectors for f in self.factors]
        if any(v.tobytes() != _IDENTITY for v in vs):
            t = rho
            for j, v in enumerate(vs):
                m = 2 ** (n - j - 1)
                t = t.reshape(t.shape[:j] + (2, m, 2, m))  # wire j's k and l split off
                t = (np.einsum("...kxky->...kxy", t) if v.tobytes() == _IDENTITY else
                     np.einsum("kla,...kxly->...axy", v.conj()[:, None] * v, t))
            t = t.reshape(2**n)
        return t.real[self.order] + 0.0  # -0.0 to 0.0, as a sum from 0.0 gives


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
    of the next (by linalg.scaled_norm), valued at its mean, with probability
    Re tr(rho P) for the projector P onto its eigenspace, by law_probabilities;
    rho passes validate_state's checks. A dense Observable's expectations
    come from one product rho V, O(8^n) at dimension 2^n; a ProductObservable's
    from rho's diagonal, turned wire by wire (O(4^n), none for a diagonal one),
    with ||A|| = ||eigenvalues||, so the Cholesky check of rho is most of it.
    """
    _check_state(rho.mat)
    if a.dim != rho.dim:
        raise ValueError(f"dimension mismatch: {a.dim} vs {rho.dim}")
    w = a.eigenvalues
    if isinstance(a, ProductObservable):
        expectations = a._expectations(rho.mat)
        norm, s = scaled_norm(w)  # ||A||_F = ||w||_2
    else:
        v = a.eigenvectors
        # <v_j| rho |v_j> for every eigenvector column j, from one product.
        expectations = np.einsum("ij,ij->j", v.conj(), rho.mat @ v).real
        norm, s = scaled_norm(a.mat)  # s = 1 unless ||A|| overflows, then 2^-e: exact
    tol = EIG_CLUSTER_REL_TOL * max(norm, s) / s
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
