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
(``functional._orbit``), the moments to length 2L + 1 read off it by
``functional._hankel_moments``, one array per length, and a prefix and a
suffix index from letters to rank. The rows are not kept: the J_k are
Hermitian, so e_0^T J_p = conj(J_{I(p)} e_0)^T. A word sigma = p.b.q then
has <J_sigma e_0, e_0> = <J_b J_q e_0, J_{I(p)} e_0>; b is empty whenever
|sigma| <= 2L + 1, and the moment is one array entry, at the rank of p.q.

``hamburger_check`` answers the positivity question for a finite moment set:
a PSD kernel is necessary and sufficient, and strict positivity comes with a
constructive witness (the recurrence blocks themselves).
"""

from __future__ import annotations

from collections.abc import Mapping, Sequence
from dataclasses import dataclass
from functools import cached_property
from itertools import product, repeat

import numpy as np

from .errors import DataIncompleteError, ValidationError
from .functional import (CERTIFICATE_CUTOFF, STRICT_TOL, SYMMETRY_TOL, MomentFunctional,
                         _complex_moments, _hankel_moments, _involution_defect,
                         _min_eigenvalue, _orbit, _ranked, _require_tol, _view_arrays, gram)
from .orthopoly import _cholesky_basis
from .recurrence import RecurrenceCoeffs, _band, extract
from .words import EMPTY, Word


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
    for |q| <= level + 1 by graded-lex rank, the moments to length
    2 level + 1 that ``functional._hankel_moments`` reads off it, one array
    per length, and a prefix and a suffix index from letters to rank. The
    row orbit is not kept: e_0^T J_p = conj(J_{I(p)} e_0)^T. Together they
    hold about (2N - 1) / N times the entries of the matrices.
    """

    def __new__(cls, operators):
        family = super().__new__(cls, operators)
        if not family:
            raise ValidationError("empty operator family")
        return family

    @cached_property
    def _vacuum(self) -> tuple[list[np.ndarray], list[np.ndarray],
                               dict[tuple[int, ...], int], dict[tuple[int, ...], int]]:
        """(cols, moments, prefix, suffix).

        cols[n][r] = J_q e_0 and moments[n][r] = <J_w e_0, e_0> for the
        length-n q and w of rank r; suffix[q.letters] = rank(q) for
        |q| <= level + 1 and prefix[p.letters] = rank(p) N^(level + 1) for
        |p| <= level, so a word p.q with |q| = level + 1 (or p empty) has
        rank prefix[p] + suffix[q]. Letters beyond N are in neither index.
        """
        N, level = len(self), self[0].level
        cols = _orbit([J.matrix for J in self], np.eye(1, self[0].size, dtype=complex),
                      level + 1)
        suffix = {key: r for n in range(level + 2)
                  for r, key in enumerate(product(range(1, N + 1), repeat=n))}
        step = N ** (level + 1)
        prefix = {key: r * step for key, r in suffix.items() if len(key) <= level}
        return cols, _hankel_moments(cols, N, 2 * level + 1), prefix, suffix


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
    sigma splits as p.b.q with |q| = min(|sigma|, level + 1) and |p| =
    min(|sigma| - |q|, level). The middle b is empty up to length
    2*level + 1, where the moment is read by the rank of p.q; past it, each
    letter of b costs one matvec on J_q e_0, paired with J_{I(p)} e_0.
    """
    if not isinstance(family, JacobiFamily):
        family = JacobiFamily(family)
    N, level = len(family), family[0].level
    letters = sigma.letters
    n = len(letters)
    # min() by comparison: the builtin's call is a tenth of this function's time
    c = n if n <= level + 1 else level + 1
    a = n - c if n - c <= level else level
    cols, moments, prefix, suffix = family._vacuum
    p, q = prefix.get(letters[:a]), suffix.get(letters[n - c:])
    if p is None or q is None or (a + c < n and max(letters) > N):
        raise ValidationError(f"word {sigma} uses letters beyond {N} generators")
    if a + c == n:
        return MomentValue(moments[n].item(p + q), n > level)
    col = word_apply(family, letters[a:n - c], cols[c][q])
    row = cols[a][suffix[letters[:a][::-1]]]
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
