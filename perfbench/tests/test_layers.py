import pytest

import layers


def _tree():
    # main [0, 10]
    #   step [1, 5]              children cover 1..2 and 3..4.5 -> self 1.5
    #     solve [1, 2]
    #     matmul [3, 4.5]
    #   step [6, 9.5]            solves and products cover 6..8 -> 1.5
    #     pressure_solve [6, 9]  a wrapper: its time stays in the step
    #       solve [6, 8]
    #         solve [6.5, 7]     nested in its own group: not counted again
    #       project_mean [8, 9]  not a solve or product: stays in the step
    return [
        ["cli.main", 0.0, 10.0, -1],
        ["schemes.step_inc", 1.0, 5.0, 0],
        ["sparsela.FactorizedSpd.solve", 1.0, 2.0, 1],
        ["sparse.matmul", 3.0, 4.5, 1],
        ["schemes.step_inc", 6.0, 9.5, 0],
        ["schemes.SchemeOperators.pressure_solve", 6.0, 9.0, 4],
        ["sparsela.FactorizedSpd.solve", 6.0, 8.0, 5],
        ["sparsela.PinnedSingularSolver.solve", 6.5, 7.0, 6],
        ["sparsela.project_mean", 8.0, 9.0, 5],
    ]


def test_self_time_is_duration_minus_children():
    assert layers.self_times(_tree()) == pytest.approx(
        [2.5, 1.5, 1.0, 1.5, 0.5, 0.0, 1.5, 0.5, 1.0]
    )


def test_step_self_time_removes_only_solves_and_products():
    assert layers.step_self_times(_tree(), [1, 4]) == pytest.approx([1.5, 1.5])


def test_covered_merges_overlapping_intervals():
    assert layers.covered([(0, 2), (1, 3), (5, 6)]) == pytest.approx(4.0)
    assert layers.covered([]) == 0.0


def test_layer_metrics_on_synthetic_tree():
    m = layers.layer_metrics(_tree(), {"sparsela.factor_nnz": 7})
    assert m["schemes.steps"] == 2
    assert m["schemes.step_self_s"] == pytest.approx(3.0)
    assert m["schemes.step_ms_p50"] == pytest.approx(3500.0)
    assert m["schemes.step_ms_p99"] == pytest.approx(4000.0)
    assert m["sparsela.tri_solve_calls"] == 2
    assert m["sparsela.tri_solve_s"] == pytest.approx(3.0)
    assert m["cli.self_s"] == pytest.approx(2.5)
    assert m["sparsela.factor_nnz"] == 7
    assert m["sparsela.saddle_refinements"] == 0
    assert set(m) == {name for name, _ in layers.PER_LAYER} - {"trace.overhead_s"}


def test_percentile_nearest_rank():
    assert layers.percentile([], 99) == 0.0
    assert layers.percentile(list(range(1, 101)), 99) == 99
    assert layers.percentile([5.0], 50) == 5.0
