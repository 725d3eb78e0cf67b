"""Block Jacobi operators on the truncated word space.

Each generator acts on span{phi_sigma : |sigma| <= L} as a block tridiagonal
Hermitian matrix assembled from the recurrence blocks by ``recurrence._band``
(shared with ``favard``): A_{n,k} on the diagonal, B_{n,k} below it, B*_{n,k}
above. Moments of the truncated family against the vacuum e_0 agree with the
functional's moments for every word of length <= 2L + 1, since a product of
L+1 or fewer band matrices cannot move e_0 past level L and back in a way
that feels the cut.

A family is built once and read many times, so on first use it keeps its
column orbit J_q e_0 for |q| <= L + 1 by graded-lex rank
(``functional._orbit``) and the moments to length 2L + 1 read off it by
``functional._hankel_moments``, as one flat graded-lex list. Letters go to
their graded-lex index through ``words._letter_ranks(N, 2L + 1)``, one dict
per shape that every family of that shape shares. A word of length
<= 2L + 1 is then one dict lookup and one list read. The rows are not
kept: the J_k are Hermitian, so e_0^T J_p = conj(J_{I(p)} e_0)^T. A longer
word sigma = p.b.q, |p| = L, |q| = L + 1, has <J_sigma e_0, e_0> =
<J_b J_q e_0, J_{I(p)} e_0>, with the ranks of q and I(p) read off the same
table.

``hamburger_check`` answers the positivity question for a finite moment set:
a PSD kernel is necessary and sufficient, and strict positivity comes with a
constructive witness (the recurrence blocks themselves).
"""

from __future__ import annotations

from collections.abc import Mapping, Sequence
from dataclasses import dataclass
from functools import cached_property
from itertools import repeat

import numpy as np

from .errors import DataIncompleteError, ValidationError
from .functional import (CERTIFICATE_CUTOFF, STRICT_TOL, SYMMETRY_TOL, MomentFunctional,
                         _complex_moments, _hankel_moments, _involution_defect,
                         _min_eigenvalue, _orbit, _ranked, _require_tol, _view_arrays, gram)
from .orthopoly import _cholesky_basis
from .recurrence import RecurrenceCoeffs, _band, extract
from .words import EMPTY, Word, _letter_ranks, level_offsets


@dataclass(frozen=True)
class BlockJacobi:
    """One generator's matrix on the level <= L truncation, row/col graded-lex.

    The matrix is a read-only copy, so a family's cached moments cannot go stale.
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

    ``_vacuum`` is computed on first use and kept: the column orbit J_q e_0
    for |q| <= level + 1 by graded-lex rank, and the moments to length
    2 level + 1 that ``functional._hankel_moments`` reads off it, as one
    flat graded-lex list. The row orbit is not kept: e_0^T J_p =
    conj(J_{I(p)} e_0)^T. The letters-to-rank table is not the family's
    own: ``words._letter_ranks`` keeps one per (N, 2 level + 1), at about
    180 bytes a word, for every family of that shape.
    """

    def __new__(cls, operators):
        family = super().__new__(cls, operators)
        if not family:
            raise ValidationError("empty operator family")
        return family

    @cached_property
    def _vacuum(self) -> tuple[list[np.ndarray], list[complex],
                               dict[tuple[int, ...], int], list[int]]:
        """(cols, moments, ranks, offs).

        cols[n][r] = J_q e_0 for the length-n q of rank r, |q| <= level + 1;
        moments[ranks[w.letters]] = <J_w e_0, e_0> for |w| <= 2 level + 1,
        where ranks is the shared ``words._letter_ranks(N, 2 level + 1)``;
        offs[n] is the graded-lex index of the first word of length n, so
        ranks[q.letters] - offs[|q|] is the rank of q within its length.
        Letters beyond N are not in ranks.
        """
        N, level = len(self), self[0].level
        top = 2 * level + 1
        cols = _orbit([J.matrix for J in self], np.eye(1, self[0].size, dtype=complex),
                      level + 1)
        moments = np.concatenate(_hankel_moments(cols, N, top)).tolist()
        return cols, moments, _letter_ranks(N, top), level_offsets(N, level + 1)


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
    the family's cached vacuum data (a plain list is wrapped for the call):
    up to length 2*level + 1 it is the list entry at sigma's graded-lex
    index. Past it, sigma splits as p.b.q with |p| = level and |q| =
    level + 1, and each letter of b costs one matvec on J_q e_0, paired with
    J_{I(p)} e_0.
    """
    if not isinstance(family, JacobiFamily):
        family = JacobiFamily(family)
    cols, moments, ranks, offs = family._vacuum
    letters = sigma.letters
    level = family[0].level
    r = ranks.get(letters)
    if r is not None:
        return MomentValue(moments[r], len(letters) > level)
    N, n = len(family), len(letters)
    if n <= 2 * level + 1 or max(letters) > N:
        raise ValidationError(f"word {sigma} uses letters beyond {N} generators")
    c = level + 1
    col = word_apply(family, letters[level:n - c], cols[c][ranks[letters[n - c:]] - offs[c]])
    row = cols[level][ranks[letters[:level][::-1]] - offs[level]]
    return MomentValue(complex(np.vdot(row, col)), True)


@dataclass
class HamburgerResult:
    positive: bool
    strictly_positive: bool
    min_eigenvalue: float
    witness: RecurrenceCoeffs | None = None
    certificate: dict[Word, complex] | None = None
    reason: str | None = None


def hamburger_check(moments: Mapping[Word, complex], n_generators: int, level: int,
                    tol: float = STRICT_TOL) -> HamburgerResult:
    """Decide whether a finite moment set extends to a positive functional.

    Answer is yes iff the kernel K(sigma, tau) = s_{I(sigma).tau} is PSD on
    words of length <= level; the involution symmetry s_{I(w)} = conj(s_w)
    is a necessary condition checked first and reported as a refusal rather
    than an input error. Strict positivity, lambda_min > tol * max(1, largest
    diagonal entry), additionally yields a witness: the recurrence blocks of
    the orthonormal family, from which a concrete operator model can be
    assembled. At the default tol, STRICT_TOL, the verdict is that of
    ``functional.strict_positivity``. A tol that is NaN, infinite or negative
    raises ValidationError.

    An unwritten moment view of the library (``from_representation``,
    ``recurrence.favard``) is read through its rank arrays, with no copy and
    no word built; any other mapping is copied once, as by the
    ``MomentFunctional`` constructor, and its ranks read once. Either way
    the involution check, the classification of its refusal and the Gram
    gather share that one read.
    """
    _require_tol(tol)
    if _view_arrays(moments, n_generators) is None:
        if any(map(isinstance, moments, repeat(str))):
            moments = {Word.parse(w) if isinstance(w, str) else w: s
                       for w, s in moments.items()}
        moments = _complex_moments(moments)
    # the refusals in order: a foreign letter is an input error, a missing
    # partner or s_e an input gap, an asymmetric pair a "no"; then the
    # constructor's field and unit checks
    ranks = _ranked(moments, n_generators)
    defect = _involution_defect(moments, n_generators, SYMMETRY_TOL, ranks)
    if defect is not None:
        what, w, rev = defect
        if what == "missing":
            raise DataIncompleteError(str(rev), f"moment for {rev} missing "
                                      f"(involution partner of {w})")
        return HamburgerResult(
            positive=False, strictly_positive=False, min_eigenvalue=float("nan"),
            reason=f"involution symmetry fails at {w}: "
                   f"s_I(w) = {moments[rev]:.6g}, conj(s_w) = {np.conj(moments[w]):.6g}")
    if EMPTY not in moments:
        raise DataIncompleteError("e", "empty-word moment missing")
    # with no foreign word, every stored length is below lex or a key of the groups
    top = max(ranks[0], default=ranks[3] - 1)
    f = MomentFunctional._exact_hankel(n_generators, top, moments, ranks)
    G = gram(f, level)
    lam, thr = _min_eigenvalue(G, tol)
    if lam < -thr:
        vecs = np.linalg.eigh(G.entries)[1]
        cert = {w: complex(vecs[i, 0]) for i, w in enumerate(G.words)
                if abs(vecs[i, 0]) > CERTIFICATE_CUTOFF}
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
