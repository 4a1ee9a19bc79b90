import pytest
import scipy.sparse.linalg as spla

import layers
import tracer
from stokesproj import cli, mesh, sparsela

CONFIG = """experiment = stability_probe
allow_unstable = true
[stability_probe]
n_values = 6
dt_ratios = 1.0 4.0
step_budget = 40
"""


def test_traced_run_records_layers_and_removes_its_wrappers(tmp_path):
    config = tmp_path / "probe.cfg"
    config.write_text(CONFIG)
    originals = (cli.build_grid, cli.main, mesh.build_grid, spla.splu,
                 sparsela.FactorizedSpd.solve)
    trace = tracer.Tracer()
    trace.install()
    try:
        assert cli.build_grid is not originals[0]
        assert sparsela.spla.splu is not originals[3]
        assert tracer.installed_wrappers()
        rc = cli.main(["stability-probe", "--config", str(config),
                       "--out", str(tmp_path / "out.csv")])
    finally:
        trace.uninstall()
    assert rc == 0
    assert tracer.installed_wrappers() == []
    assert (cli.build_grid, cli.main, mesh.build_grid, spla.splu,
            sparsela.FactorizedSpd.solve) == originals

    names = {span[0] for span in trace.spans}
    assert {"cli.main", "mesh.build_grid", "sparsela.splu", "schemes.step_noninc",
            "sparse.matmul"} <= names
    for name, start, end, parent in trace.spans:
        assert start <= end
        assert parent < 0 or trace.spans[parent][1] <= start <= end <= trace.spans[parent][2]
    m = layers.layer_metrics(trace.spans, trace.counters)
    assert m["mesh.build_grid_calls"] == 1
    assert m["sparsela.factor_nnz"] > 0
    assert m["sparsela.saddle_calls"] == m["steady.operators_calls"] == 2
    assert 0 < m["schemes.steps"] < 80
    assert 0 < m["schemes.step_self_s"] < m["schemes.steps"] * m["schemes.step_ms_p99"] / 1e3
    assert 0 < trace.overhead_s() < 0.1 * (trace.spans[0][2] - trace.spans[0][1])


def test_install_twice_is_refused():
    trace = tracer.Tracer()
    trace.install()
    try:
        with pytest.raises(RuntimeError):
            trace.install()
    finally:
        trace.uninstall()
    assert tracer.installed_wrappers() == []
