"""Metamorphic relations of the density/coverage pipeline.

Every ball decision and k-NN radius is exact, so some changes of the input
must leave the pairwise matrix and every evaluation bit-equal, with no
oracle to compare against (Chen et al., "Metamorphic Testing: A Review of
Challenges and Opportunities", ACM CSUR 51(1), 2018):

- every set scaled by 2^e, which float32 takes exactly while every value
  stays normal: distances and radii scale by 2^e, in the raw frame and in
  the real set's standardized one;
- a far generator appended last in canonical order: the entries and the
  evaluations that leave it out stay, though its norm raises sigma and the
  x-side slack of every chunk that reaches it.

Small chunk caps split the pool into chunks of one or several sets, each
estimated under its own sigma.
"""
import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import make_pool
from ganens import EnsembleEvaluator, EnsembleGenome, MetricConfig, pairwise_matrix
import ganens.metrics


@st.composite
def small_pools(draw):
    """A real set and 2 to 4 generators ``g0``, ``g1``, ... of float32 rows, and k.

    Integer-grid rows sit on one another's radii. A drawn shift moves every
    generator away from the real set's mean, the estimate's centre, so
    their squared norms dwarf their distances and the estimate's error
    reaches its bound.
    """
    dim = draw(st.integers(1, 4))
    counts = draw(st.lists(st.integers(4, 10), min_size=3, max_size=5))
    shift = draw(st.sampled_from([0.0, 1e3]))
    grid = draw(st.booleans())
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    sets = [rng.integers(-2, 3, (n, dim)) if grid else rng.standard_normal((n, dim)) for n in counts]
    real, *generators = [(s + (i > 0) * shift).astype(np.float32) for i, s in enumerate(sets)]
    k = draw(st.integers(1, min(counts) - 1))
    return real, {f"g{i}": g for i, g in enumerate(generators)}, k


def outputs(real, generators, k, standardize, cap_rows):
    """The dnc pairwise matrix's values, and the objectives by bits of every genome
    with no more members than the union has rows."""
    pool = make_pool(generators, real)
    cfg = MetricConfig(k=k, standardize=standardize)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(ganens.metrics, "_CHUNK_ENTRIES", cap_rows * (real.shape[1] + 2))
        values = pairwise_matrix(pool, cfg).values
        evaluator = EnsembleEvaluator(pool, cfg, seed=0)
    evaluations = {}
    for bits in itertools.product((0, 1), repeat=pool.size):
        if 0 < sum(bits) <= evaluator.total:
            objectives = evaluator.evaluate(EnsembleGenome(bits))
            evaluations[bits] = (objectives.intra, objectives.inter, objectives.member_count)
    return values, evaluations


@pytest.mark.filterwarnings("ignore::ganens.ShortfallWarning")  # small members run short
@settings(max_examples=150)
@given(pool=small_pools(), exponent=st.sampled_from([-30, 20]), standardize=st.booleans(),
       cap_rows=st.integers(0, 30))
def test_scaling_every_set_by_a_power_of_two_moves_nothing(pool, exponent, standardize, cap_rows):
    real, generators, k = pool
    factor = np.float32(2.0**exponent)
    values, evaluations = outputs(real, generators, k, standardize, cap_rows)
    scaled = {gid: rows * factor for gid, rows in generators.items()}
    scaled_values, scaled_evaluations = outputs(real * factor, scaled, k, standardize, cap_rows)
    assert np.array_equal(scaled_values, values)
    assert scaled_evaluations == evaluations


@pytest.mark.filterwarnings("ignore::ganens.ShortfallWarning")  # small members run short
@settings(max_examples=150)
@given(pool=small_pools(), standardize=st.booleans(), cap_rows=st.integers(0, 30))
def test_a_far_generator_moves_no_entry_without_it(pool, standardize, cap_rows):
    real, generators, k = pool
    values, evaluations = outputs(real, generators, k, standardize, cap_rows)
    far = generators["g0"] * np.float32(3.0) + np.float32(1e5)
    # "zz" sorts after every "g<i>", so the far set comes last in canonical order.
    far_values, far_evaluations = outputs(real, {**generators, "zz": far}, k, standardize, cap_rows)
    n = len(generators)
    assert np.array_equal(far_values[:n, :n], values)
    assert {bits[:n]: v for bits, v in far_evaluations.items() if not bits[n]} == evaluations
