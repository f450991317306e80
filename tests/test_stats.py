import math

import numpy as np
import pytest
from scipy import stats as scipy_stats

from strainchain.stats import (
    critical_values,
    normal_upper,
    ordered_total,
    regularized_incomplete_beta,
    student_t_sf,
    student_t_upper,
)


def test_published_table_values():
    t, z = critical_values(0.01, 29)
    assert t == pytest.approx(2.462, abs=1e-3)
    assert z == pytest.approx(2.3263, abs=1e-3)
    t2, _ = critical_values(0.01, 2)
    assert t2 == pytest.approx(6.965, abs=1e-3)
    t5, z5 = critical_values(0.05, 10)
    assert t5 == pytest.approx(1.812, abs=1e-3)
    assert z5 == pytest.approx(1.6449, abs=1e-3)


def test_matches_reference_library_to_1e6():
    rng = np.random.default_rng(1)
    for _ in range(200):
        alpha = float(rng.uniform(0.001, 0.49))
        dof = int(rng.integers(1, 150))
        t, z = critical_values(alpha, dof)
        assert t == pytest.approx(scipy_stats.t.ppf(1 - alpha, dof), abs=1e-6)
        assert z == pytest.approx(scipy_stats.norm.ppf(1 - alpha), abs=1e-6)


def test_normal_critical_value_matches_reference_library_for_small_alpha():
    # 1 - alpha rounds for a small alpha, so the quantile is taken in the lower tail
    rng = np.random.default_rng(2)
    for alpha in 10.0 ** rng.uniform(-15.0, np.log10(0.49), 200):
        assert normal_upper(alpha) == pytest.approx(scipy_stats.norm.isf(alpha), abs=1e-6)


def test_values_shrink_to_zero_near_half():
    prev_t, prev_z = np.inf, np.inf
    for alpha in (0.3, 0.4, 0.45, 0.49, 0.499, 0.4999):
        t = student_t_upper(alpha, 7)
        z = normal_upper(alpha)
        assert 0.0 < t < prev_t
        assert 0.0 < z < prev_z
        prev_t, prev_z = t, z
    assert student_t_upper(0.4999, 7) < 1e-3
    assert normal_upper(0.4999) < 1e-3


def test_tail_probability_is_consistent_with_its_inverse():
    for alpha in (0.01, 0.05, 0.2):
        for dof in (1, 3, 30, 200):
            t = student_t_upper(alpha, dof)
            assert student_t_sf(t, dof) == pytest.approx(alpha, rel=1e-9)


def test_incomplete_beta_endpoints_and_symmetry():
    assert regularized_incomplete_beta(2.0, 3.0, 0.0) == 0.0
    assert regularized_incomplete_beta(2.0, 3.0, 1.0) == 1.0
    x = 0.37
    left = regularized_incomplete_beta(2.5, 1.5, x)
    right = regularized_incomplete_beta(1.5, 2.5, 1.0 - x)
    assert left == pytest.approx(1.0 - right, rel=1e-12)


def test_domain_errors():
    with pytest.raises(ValueError):
        critical_values(0.0, 5)
    with pytest.raises(ValueError):
        critical_values(0.5, 5)
    with pytest.raises(ValueError):
        critical_values(0.01, 0)
    with pytest.raises(ValueError):
        student_t_sf(1.0, -1)


def test_ordered_total_adds_one_term_at_a_time():
    values = [0.1] * 10 + [1e16, 1.0, -1e16]
    total = 0
    for value in values:
        total += value
    assert ordered_total(values) == total != math.fsum(values)
    assert ordered_total(iter(values)) == total
    assert ordered_total([2, 3]) == 5 and isinstance(ordered_total([2, 3]), int)
    assert ordered_total([]) == 0
