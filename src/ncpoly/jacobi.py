"""Block Jacobi operators on the truncated word space.

Each generator acts on span{phi_sigma : |sigma| <= L} as a block tridiagonal
Hermitian matrix assembled from the recurrence blocks: A_{n,k} on the
diagonal, B_{n,k} below it, B*_{n,k} above. Moments of the truncated family
against the vacuum e_0 agree with the functional's moments for every word of
length <= 2L + 1, since a product of L+1 or fewer band matrices cannot move
e_0 past level L and back in a way that feels the cut.

``hamburger_check`` answers the positivity question for a finite moment set:
a PSD kernel is necessary and sufficient, and strict positivity comes with a
constructive witness (the recurrence blocks themselves).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DataIncompleteError, ValidationError
from .functional import MomentFunctional, _involution_defect, gram
from .orthopoly import orthogonalize
from .recurrence import RecurrenceCoeffs, extract
from .words import EMPTY, Word, level_offsets

SYMMETRY_TOL = 1e-10


@dataclass
class BlockJacobi:
    """One generator's matrix on the level <= L truncation, row/col graded-lex."""

    generator: int
    level: int
    n_generators: int
    matrix: np.ndarray

    @property
    def size(self) -> int:
        return self.matrix.shape[0]


def build(coeffs: RecurrenceCoeffs, level: int) -> list[BlockJacobi]:
    """Assemble J_1..J_N at truncation ``level`` from recurrence blocks.

    Needs blocks through A_{level,k}, i.e. coeffs.levels >= level + 1.
    The assembled matrices are exactly Hermitian: the diagonal blocks are
    symmetrized (they are Hermitian to extraction tolerance already) and the
    off-diagonal bands are transplanted as B / B*.
    """
    if level < 0:
        raise ValidationError("level must be >= 0")
    if coeffs.levels < level + 1:
        raise ValidationError(
            f"need recurrence blocks to level {level + 1}, have {coeffs.levels}")
    N = coeffs.n_generators
    offs = level_offsets(N, level)
    S = offs[level + 1]
    out = []
    for k in range(1, N + 1):
        J = np.zeros((S, S), dtype=complex)
        for n in range(level + 1):
            a = coeffs.A[n, k]
            J[offs[n]:offs[n + 1], offs[n]:offs[n + 1]] = (a + a.conj().T) / 2.0
        for n in range(level):
            b = coeffs.B[n, k]
            J[offs[n + 1]:offs[n + 2], offs[n]:offs[n + 1]] = b
            J[offs[n]:offs[n + 1], offs[n + 1]:offs[n + 2]] = b.conj().T
        out.append(BlockJacobi(generator=k, level=level, n_generators=N, matrix=J))
    return out


def word_apply(family: list[BlockJacobi], sigma: Word, v: np.ndarray) -> np.ndarray:
    """J_sigma v = J_{i_1} (J_{i_2} (... J_{i_m} v))."""
    out = np.asarray(v, dtype=complex)
    for letter in reversed(sigma.letters):
        out = family[letter - 1].matrix @ out
    return out


@dataclass
class MomentValue:
    value: complex
    truncated: bool


def moment(family: list[BlockJacobi], sigma: Word) -> MomentValue:
    """<J_sigma e_0, e_0> with a flag once |sigma| exceeds the truncation level.

    The flag is conservative: the value is still exact up to |sigma| =
    2*level + 1 by the band argument, but past the truncation level the
    caller should not extend trust without checking.
    """
    if not family:
        raise ValidationError("empty operator family")
    e0 = np.zeros(family[0].size, dtype=complex)
    e0[0] = 1.0
    val = complex(np.vdot(e0, word_apply(family, sigma, e0)))
    return MomentValue(value=val, truncated=len(sigma) > family[0].level)


@dataclass
class HamburgerResult:
    positive: bool
    strictly_positive: bool
    min_eigenvalue: float
    witness: RecurrenceCoeffs | None = None
    certificate: dict[Word, complex] | None = None
    reason: str | None = None


def hamburger_check(moments: dict[Word, complex], n_generators: int, level: int,
                    tol: float = 1e-9) -> HamburgerResult:
    """Decide whether a finite moment set extends to a positive functional.

    Answer is yes iff the kernel K(sigma, tau) = s_{I(sigma).tau} is PSD on
    words of length <= level; the involution symmetry s_{I(w)} = conj(s_w)
    is a necessary condition checked first and reported as a refusal rather
    than an input error. Strict positivity additionally yields a witness: the
    recurrence blocks of the orthonormal family, from which a concrete
    operator model can be assembled.
    """
    vals = {Word.parse(w) if isinstance(w, str) else w: complex(s)
            for w, s in moments.items()}
    defect = _involution_defect(vals, n_generators, SYMMETRY_TOL)
    if defect is not None:
        what, w, rev = defect
        if what == "missing":
            raise DataIncompleteError(str(rev), f"moment for {rev} missing "
                                      f"(involution partner of {w})")
        return HamburgerResult(
            positive=False, strictly_positive=False, min_eigenvalue=float("nan"),
            reason=f"involution symmetry fails at {w}: "
                   f"s_I(w) = {vals[rev]:.6g}, conj(s_w) = {np.conj(vals[w]):.6g}")
    if EMPTY not in vals:
        raise DataIncompleteError("e", "empty-word moment missing")
    max_deg = max(len(w) for w in vals)
    f = MomentFunctional(n_generators=n_generators, kind="hankel",
                         max_degree=max_deg, moments=vals)
    G = gram(f, level)
    eig = np.linalg.eigvalsh(G.entries)
    lam = float(eig[0])
    thr = tol * max(1.0, float(np.max(np.abs(np.diag(G.entries)).real)))
    if lam < -thr:
        vecs = np.linalg.eigh(G.entries)[1]
        cert = {w: complex(vecs[i, 0]) for i, w in enumerate(G.words)
                if abs(vecs[i, 0]) > 1e-12}
        return HamburgerResult(positive=False, strictly_positive=False,
                               min_eigenvalue=lam, certificate=cert,
                               reason=f"kernel has eigenvalue {lam:.6g} < 0 "
                                      f"at level {level}")
    strict = lam > thr
    witness = None
    if strict:
        basis = orthogonalize(f, level, G=G)
        witness = extract(f, basis, level, G=G)
    return HamburgerResult(positive=True, strictly_positive=strict,
                           min_eigenvalue=lam, witness=witness)
