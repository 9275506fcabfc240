"""Dense quantum register simulation with synthesis and decomposition.

Layers, lowest first:

* linalg: integer and number rules, unitarity, Hermitian spectra, exp(-itH).
* algprob: density matrices, observables, measurement laws.
* qpu: n-qubit encodings, register observables, evolution, seeded sampling.
* gates: wire gates (a block on a target wire under a control mask) and
  two-level gates, circuits and factor lists as columns, their text.
* udecomp: factoring any unitary into N(N-1)/2 two-level gates.
* grover_rudolph: circuits loading a probability density into n qubits.
* cli: the qsim command-line tool wrapping all of the above.
"""

from . import algprob, cli, gates, grover_rudolph, linalg, qpu, udecomp

__version__ = "0.1.0"

__all__ = [
    "algprob",
    "cli",
    "gates",
    "grover_rudolph",
    "linalg",
    "qpu",
    "udecomp",
    "__version__",
]
