"""Property tests: generated inputs checked against enumeration oracles.

Runs are derandomized and keep no example database, so every run draws the
same examples for the same source tree.
"""

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings
from hypothesis import strategies as st

from reachmax import Box
from reachmax.linalg import eig_decompose

from support import assert_zonogon_maxima_match


@settings(derandomize=True, database=None, deadline=None, max_examples=200)
@given(d=st.integers(1, 8), seed=st.integers(0, 2**32 - 1), collapsed=st.integers(0, 3))
def test_zonogon_maxima_match_corner_enumeration(d, seed, collapsed):
    """The mode maxima from the sorted edges are those of every corner, with up to 3 coordinates collapsed."""
    rng = np.random.default_rng(seed)
    dec = eig_decompose(rng.uniform(-1.0, 1.0, size=(d, d)))
    lower = rng.uniform(-2.0, 1.0, size=d)
    upper = lower + rng.uniform(0.1, 3.0, size=d)
    cols = rng.choice(d, size=min(collapsed, d), replace=False)
    upper[cols] = lower[cols]
    assert_zonogon_maxima_match(dec.U_inv, Box(lower, upper))
