"""Finite prefixes of zero-limit real sequences and their characteristic ranks.

A finite array u_0 .. u_{n-1} stands for the infinite sequence obtained by
extending it with zeros, which always has limit zero. Under that reading the
supremum is exactly computable, as are the four ranks that locate it:

  k_geq  first index with u_k >= 0
  k_gt   first index with u_k > 0
  K_geq  first index k where sup(u_0..u_k) >= sup(u_{k+1}..)
  K_gt   first index k where sup(u_0..u_k) >  sup(u_{k+1}..)

Rank searches are restricted to stored indices. A rank whose only witness
would sit inside the zero padding says nothing about the data that was
actually provided and is reported as BEYOND_PREFIX (this happens for the
">=" ranks exactly when every stored term is negative). The strict ranks
never gain a witness from padding, so when no stored index qualifies they
are genuinely INFINITE.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Union

import numpy as np


class NoRank(enum.Enum):
    """Non-finite outcomes of a rank search."""

    INFINITE = "infinite"
    BEYOND_PREFIX = "beyond-prefix"


INFINITE = NoRank.INFINITE
BEYOND_PREFIX = NoRank.BEYOND_PREFIX

Rank = Union[int, NoRank]


@dataclass(eq=False)
class FiniteC0Sequence:
    """Finite real prefix, implicitly extended by zeros."""

    terms: np.ndarray

    def __post_init__(self):
        self.terms = np.atleast_1d(np.asarray(self.terms, dtype=float))
        if self.terms.ndim != 1:
            raise ValueError("sequence must be a flat array of numbers")
        if self.terms.size == 0:
            raise ValueError("sequence needs at least one stored term")
        if not np.all(np.isfinite(self.terms)):
            raise ValueError("sequence terms must be finite")

    def __len__(self) -> int:
        return self.terms.size


@dataclass(eq=False)
class RankProfile:
    """The four ranks of a sequence plus its supremum and attaining indices.

    argmax_set lists the stored indices attaining sup_value; it is empty when
    the supremum (necessarily 0) is approached only through the padded tail.
    """

    k_geq: Rank
    k_gt: Rank
    K_geq: Rank
    K_gt: Rank
    sup_value: float
    argmax_set: frozenset[int]


def _first_index(mask: np.ndarray) -> int | None:
    hits = np.flatnonzero(mask)
    return int(hits[0]) if hits.size else None


def rank_profile(u: FiniteC0Sequence) -> RankProfile:
    """Exact ranks, supremum, and argmax set of the zero-extended sequence.

    All comparisons between terms are exact floating comparisons: plateau
    ranks are integer-valued decisions and any tolerance would corrupt them.
    """
    t = u.terms
    n = t.size

    sup_value = max(0.0, float(np.max(t)))
    argmax_set = frozenset(int(i) for i in np.flatnonzero(t == sup_value))

    prefix = np.maximum.accumulate(t)
    # tail_sup[k] = sup over indices > k, zero padding included
    smax = np.maximum.accumulate(t[::-1])[::-1]
    tail = np.empty(n)
    tail[: n - 1] = np.maximum(smax[1:], 0.0)
    tail[n - 1] = 0.0

    k_geq = _first_index(t >= 0.0)
    k_gt = _first_index(t > 0.0)
    cap_geq = _first_index(prefix >= tail)
    cap_gt = _first_index(prefix > tail)

    return RankProfile(
        k_geq=BEYOND_PREFIX if k_geq is None else k_geq,
        k_gt=INFINITE if k_gt is None else k_gt,
        K_geq=BEYOND_PREFIX if cap_geq is None else cap_geq,
        K_gt=INFINITE if cap_gt is None else cap_gt,
        sup_value=sup_value,
        argmax_set=argmax_set,
    )
