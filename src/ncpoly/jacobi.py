"""Block Jacobi operators on the truncated word space.

Each generator acts on span{phi_sigma : |sigma| <= L} as a block tridiagonal
Hermitian matrix assembled from the recurrence blocks by ``recurrence._band``
(shared with ``favard``): A_{n,k} on the diagonal, B_{n,k} below it, B*_{n,k}
above. Moments of the truncated family against the vacuum e_0 agree with the
functional's moments for every word of length <= 2L + 1, since a product of
L+1 or fewer band matrices cannot move e_0 past level L and back in a way
that feels the cut.

A family is built once and read many times, so it keeps its vacuum orbit:
the columns J_q e_0 for |q| <= L + 1 and the rows e_0^T J_p for |p| <= L,
by graded-lex rank (the columns by ``functional._orbit``). A word sigma =
p.b.q then has <J_sigma e_0, e_0> = (e_0^T J_p) (J_b (J_q e_0)), with b
empty whenever |sigma| <= 2L + 1.

``hamburger_check`` answers the positivity question for a finite moment set:
a PSD kernel is necessary and sufficient, and strict positivity comes with a
constructive witness (the recurrence blocks themselves).
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass
from functools import cached_property
from itertools import product, repeat

import numpy as np

from .errors import DataIncompleteError, ValidationError
from .functional import (SYMMETRY_TOL, MomentFunctional, _complex_moments,
                         _involution_defect, _min_eigenvalue, _orbit, gram)
from .orthopoly import _cholesky_basis
from .recurrence import RecurrenceCoeffs, _band, extract
from .words import EMPTY, Word, rank_groups


@dataclass(frozen=True)
class BlockJacobi:
    """One generator's matrix on the level <= L truncation, row/col graded-lex.

    The matrix is a read-only copy, so a family's cached orbit cannot go stale.
    """

    generator: int
    level: int
    n_generators: int
    matrix: np.ndarray

    def __post_init__(self):
        m = np.array(self.matrix, dtype=complex)
        m.flags.writeable = False
        object.__setattr__(self, "matrix", m)

    @property
    def size(self) -> int:
        return self.matrix.shape[0]


class JacobiFamily(tuple):
    """J_1..J_N of one truncation: an immutable sequence of ``BlockJacobi``.

    ``orbit`` is computed on first use and kept: the rows e_0^T J_p for
    |p| <= level and the columns J_q e_0 for |q| <= level + 1, keyed by the
    letters of p and q. Together they hold about (N + 1) / N times the
    entries of the matrices.
    """

    def __new__(cls, operators):
        family = super().__new__(cls, operators)
        if not family:
            raise ValidationError("empty operator family")
        return family

    @cached_property
    def orbit(self) -> tuple[dict[tuple[int, ...], np.ndarray],
                             dict[tuple[int, ...], np.ndarray]]:
        """(rows, cols) with rows[p.letters] = e_0^T J_p and cols[q.letters] = J_q e_0."""
        N, level, S = len(self), self[0].level, self[0].size
        e0 = np.eye(1, S, dtype=complex)
        # R_{p.k} = R_p J_k sits at rank(p) N + k - 1; C_{k.q} = J_k C_q at (k - 1) N^n + rank(q)
        rows = [e0]
        for _ in range(level):
            rows.append(np.stack([rows[-1] @ J.matrix for J in self], axis=1).reshape(-1, S))
        cols = _orbit([J.matrix for J in self], e0, level + 1)
        # key each rank's vector by its letters, so a lookup also rejects a foreign letter
        return tuple({key: vec for n, arr in enumerate(stack) for key, vec in
                      zip(product(range(1, N + 1), repeat=n), arr)}
                     for stack in (rows, cols))


def build(coeffs: RecurrenceCoeffs, level: int) -> JacobiFamily:
    """Assemble J_1..J_N at truncation ``level`` from recurrence blocks.

    Needs blocks through A_{level,k}, i.e. coeffs.levels >= level + 1, and
    refuses a non-finite entry in any block, as ``RecurrenceCoeffs.validate``
    does; the other checks of ``validate`` are not run.
    The assembled matrices are exactly Hermitian: the diagonal blocks are
    symmetrized (they are Hermitian to extraction tolerance already) and the
    off-diagonal bands are transplanted as B / B*.
    """
    if level < 0:
        raise ValidationError("level must be >= 0")
    if coeffs.levels < level + 1:
        raise ValidationError(
            f"need recurrence blocks to level {level + 1}, have {coeffs.levels}")
    coeffs._require_finite()
    N = coeffs.n_generators
    return JacobiFamily(BlockJacobi(generator=k, level=level, n_generators=N, matrix=J)
                        for k, J in enumerate(_band(coeffs, level), 1))


def word_apply(family: Sequence[BlockJacobi], sigma, v: np.ndarray) -> np.ndarray:
    """J_sigma v = J_{i_1} (J_{i_2} (... J_{i_m} v)); sigma is a Word or its letters."""
    out = np.asarray(v, dtype=complex)
    for letter in reversed(tuple(sigma)):
        out = family[letter - 1].matrix @ out
    return out


@dataclass
class MomentValue:
    value: complex
    truncated: bool


def moment(family: Sequence[BlockJacobi], sigma: Word) -> MomentValue:
    """<J_sigma e_0, e_0> with a flag once |sigma| exceeds the truncation level.

    The flag is conservative: the value is still exact up to |sigma| =
    2*level + 1 by the band argument, but past the truncation level the
    caller should not extend trust without checking. The value is read from
    the family's cached orbit (a plain list is wrapped for the call): sigma
    splits as p.b.q with |q| = min(|sigma|, level + 1) and |p| =
    min(|sigma| - |q|, level), and p and q are looked up by their letters.
    The middle b is empty up to length 2*level + 1; past it, each of its
    letters costs one matvec.
    """
    if not isinstance(family, JacobiFamily):
        family = JacobiFamily(family)
    N, level = len(family), family[0].level
    letters = sigma.letters
    n = len(letters)
    # min() by comparison: the builtin's call is a tenth of this function's time
    c = n if n <= level + 1 else level + 1
    a = n - c if n - c <= level else level
    rows, cols = family.orbit
    row, col = rows.get(letters[:a]), cols.get(letters[n - c:])
    if row is None or col is None or (a + c < n and max(letters) > N):
        raise ValidationError(f"word {sigma} uses letters beyond {N} generators")
    if a + c < n:
        col = word_apply(family, letters[a:n - c], col)
    return MomentValue(complex(row.dot(col)), n > level)


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

    The moments are copied once, as by the ``MomentFunctional`` constructor,
    and their ranks read once: the involution check, the classification of
    its refusal and the Gram gather share that read.
    """
    if any(map(isinstance, moments, repeat(str))):
        moments = {Word.parse(w) if isinstance(w, str) else w: s for w, s in moments.items()}
    # the refusals in order: a foreign letter is an input error, a missing
    # partner or s_e an input gap, an asymmetric pair a "no"; then the
    # constructor's field and unit checks
    vals = _complex_moments(moments)
    ranks = rank_groups(vals, n_generators)
    defect = _involution_defect(vals, n_generators, SYMMETRY_TOL, ranks)
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
    # with no foreign word, every stored length is a key of the rank groups
    top = max(ranks[0])
    f = MomentFunctional._exact_hankel(n_generators, top, vals, ranks=ranks)
    G = gram(f, level)
    lam, thr = _min_eigenvalue(G, tol)
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
        # decided above under the caller's tol: factor without a second test
        witness = extract(f, _cholesky_basis(n_generators, G), level, G=G)
    return HamburgerResult(positive=True, strictly_positive=strict,
                           min_eigenvalue=lam, witness=witness)
