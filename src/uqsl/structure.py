"""Root data for the superalgebras sl(M|N) in the distinguished grading.

Indices run 1..M+N; the first M basis directions are even (nu = +1), the
last N odd (nu = -1).  RootData.weight is the one pairing (h_i, eps_l - eps_m)
of a Cartan generator with a coordinate: the Cartan matrix, the theta sums of
the finite realization and the affine K_i all read it.  With the generator
parities and graded bracket signs below it drives both realizations and the
relation checkers.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class RootData:
    M: int
    N: int

    def __post_init__(self):
        if self.M < 1 or self.N < 0 or self.M + self.N < 2:
            raise ValueError(f"unsupported shape ({self.M}|{self.N})")

    @property
    def total(self) -> int:
        return self.M + self.N

    @property
    def rank(self) -> int:
        return self.M + self.N - 1

    def nu(self, i: int) -> int:
        """Sign of basis direction i (1-based)."""
        if not 1 <= i <= self.total:
            raise ValueError(f"index {i} out of range 1..{self.total}")
        return 1 if i <= self.M else -1

    def weight(self, i: int, l: int, m: int) -> int:
        """(h_i, eps_l - eps_m), the weight of the coordinate x_lm under h_i:
        nu_i (delta_il - delta_im) - nu_{i+1} (delta_{i+1,l} - delta_{i+1,m})."""
        if not 1 <= i <= self.rank:
            raise ValueError(f"node {i} out of range 1..{self.rank}")
        return (self.nu(i) * ((i == l) - (i == m))
                - self.nu(i + 1) * ((i + 1 == l) - (i + 1 == m)))

    def cartan(self, i: int, j: int) -> int:
        """Entry a_ij = (h_i, alpha_j) of the Cartan matrix, i, j in 1..rank."""
        if not (1 <= i <= self.rank and 1 <= j <= self.rank):
            raise ValueError(f"Cartan indices ({i},{j}) out of range")
        return self.weight(i, j, j + 1)

    def cartan_matrix(self) -> tuple:
        return tuple(
            tuple(self.cartan(i, j) for j in range(1, self.rank + 1))
            for i in range(1, self.rank + 1)
        )

    def gen_parity(self, i: int) -> int:
        """Parity of the raising/lowering generators at node i: 1 iff odd."""
        if not 1 <= i <= self.rank:
            raise ValueError(f"node {i} out of range 1..{self.rank}")
        return 1 if i == self.M else 0

    def var_parity(self, i: int, j: int) -> int:
        """Parity of the flag coordinate x_ij (i < j): odd iff the indices
        straddle the even/odd boundary."""
        if not 1 <= i < j <= self.total:
            raise ValueError(f"bad coordinate pair ({i},{j})")
        return 1 if (i <= self.M) != (j <= self.M) else 0

    def serre_pairs(self) -> tuple:
        """Node pairs (i, j) of the cubic Serre relation: i != j adjacent
        (|a_ij| = 1) with X_i even (i != M)."""
        nodes = range(1, self.rank + 1)
        return tuple(
            (i, j) for i in nodes for j in nodes
            if i != j and abs(self.cartan(i, j)) == 1 and i != self.M
        )

    @property
    def dual_coxeter_shift(self) -> int:
        """The integer g entering level-shifted mode brackets."""
        return self.M - self.N


def build_root_data(M: int, N: int) -> RootData:
    return RootData(M, N)


def graded_bracket_sign(parity_a: int, parity_b: int) -> int:
    """Koszul sign in [A, B] = AB - (-1)^(|A||B|) BA."""
    return -1 if (parity_a & 1) and (parity_b & 1) else 1
