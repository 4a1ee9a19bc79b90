import contextlib
import dataclasses
import importlib.util
import io
import os
import pathlib
import re
import subprocess
import sys
import tempfile
import tracemalloc
import warnings
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import stokesproj
from stokesproj import assembly, cli, metrics, sparsela, steady


def write(tmp_path, text, name="exp.cfg"):
    path = tmp_path / name
    path.write_text(text)
    return path


# --- config parsing ----------------------------------------------------------


def test_empty_file_gives_steady_defaults(tmp_path):
    config = cli.parse_config(write(tmp_path, ""))
    assert config.kind == "steady_sweep"
    assert config.nu == 0.01
    assert config.tol == 1e-10
    assert config.rho_values == (100.0,)
    assert config.n_values == (20, 40, 80, 160)


def test_transient_defaults():
    config = cli.parse_config_text("", kind="transient_init")
    assert config.rho_values == (10.0,)
    assert config.T == 6.0
    assert config.dt_law == "equal_delta"


def test_sections_and_top_level_keys():
    text = """
nu = 0.02
[steady_sweep]
n_values = 10 20
rho_values = 1 10
[transient_init]
n_values = 5
"""
    config = cli.parse_config_text(text)
    assert config.nu == 0.02
    assert config.n_values == (10, 20)
    assert config.rho_values == (1.0, 10.0)
    other = cli.parse_config_text(text, kind="transient_init")
    assert other.n_values == (5,)
    assert other.nu == 0.02


def test_unknown_key_rejected_with_line_number():
    with pytest.raises(cli.ConfigError) as err:
        cli.parse_config_text("nproc = 4\n")
    assert "line 1" in str(err.value)


def test_unknown_section_rejected():
    with pytest.raises(cli.ConfigError):
        cli.parse_config_text("[magic]\n")


def test_malformed_line_rejected():
    with pytest.raises(cli.ConfigError) as err:
        cli.parse_config_text("nu\n")
    assert "line 1" in str(err.value)


def test_bad_value_rejected():
    with pytest.raises(cli.ConfigError) as err:
        cli.parse_config_text("nu = fast\n")
    assert "line 1" in str(err.value)


@pytest.mark.parametrize("value", ["nan", "-inf"])
@pytest.mark.parametrize(
    "key", ["nu", "tol", "dt", "T", "energy_ceiling", "rho_values", "dt_ratios"]
)
def test_non_finite_float_rejected(key, value):
    kind = "transient_init" if key in ("dt", "T") else "stability_probe"
    with pytest.raises(cli.ConfigError) as err:
        cli.parse_config_text(f"# comment\n[{kind}]\n{key} = {value}\n", kind=kind)
    # an unknown key is refused on its line too, so name the value error
    assert "line 3" in str(err.value) and f"bad value for {key!r}" in str(err.value)


def test_duplicate_key_rejected():
    with pytest.raises(cli.ConfigError):
        cli.parse_config_text("nu = 0.01\nnu = 0.02\n")


def test_comments_ignored():
    config = cli.parse_config_text("# a comment\nnu = 0.5  # inline\n")
    assert config.nu == 0.5


def test_guard_rejects_large_fixed_dt():
    # dt = 3 delta without the override: rejected, message cites the threshold
    text = """
experiment = transient_init
[transient_init]
n_values = 20
dt_law = fixed
dt = 0.0075
"""
    # delta = h^2/(nu rho^2) = 0.0025 at N=20, rho=10  ->  dt = 3 delta
    with pytest.raises(cli.ConfigError) as err:
        cli.parse_config_text(text)
    assert "2*delta" in str(err.value)
    cfg = cli.parse_config_text(text, overrides={"allow_unstable": True})
    assert cfg.allow_unstable


def test_probe_ratios_beyond_two_need_flag():
    with pytest.raises(cli.ConfigError):
        cli.parse_config_text("", kind="stability_probe")
    cli.parse_config_text("allow_unstable = true\n", kind="stability_probe")


@pytest.mark.parametrize(
    "ratio, accepted",
    [
        (1.0, {"transient-init": True, "stability-probe": True}),
        (2.0 * (1.0 + 1e-12), {"transient-init": False, "stability-probe": True}),
        (2.0 * (1.0 + 1e-9), {"transient-init": False, "stability-probe": False}),
    ],
    ids=["delta", "2delta-within-slack", "2delta-beyond-slack"],
)
def test_guard_edges(tmp_path, capsys, ratio, accepted):
    # dt = ratio * delta; doubling is exact, so dt = 2 delta (1 + 1e-12) lies
    # exactly on the guard's slackened edge.  The probe accepts ratios up to
    # 2; the transient kinds accept dt > delta only with allow_unstable.
    dt = ratio * steady.choose_delta(1.0 / 20, 0.01, 10.0)
    texts = {
        "transient-init": f"[transient_init]\nn_values = 20\ndt_law = fixed\ndt = {dt!r}\n",
        "stability-probe": f"[stability_probe]\nn_values = 20\ndt_ratios = {ratio!r}\n",
    }
    for command, text in texts.items():
        kind = command.replace("-", "_")
        if accepted[command]:
            cli.parse_config_text(text, kind=kind)
            continue
        with pytest.raises(cli.ConfigError):
            cli.parse_config_text(text, kind=kind)
        assert cli.main([command, "--config", str(write(tmp_path, text))]) == 2
        assert "2*delta" in capsys.readouterr().err


def test_guard_band_is_config_error(tmp_path, capsys):
    # N = 4, rho = 10: delta = 1/16, dt = 1.5 delta; T = 2 dt keeps the run short
    text = "[transient_init]\nn_values = 4\ndt_law = fixed\ndt = 0.09375\nT = 0.1875\n"
    cfg = write(tmp_path, text)
    assert cli.main(["transient-init", "--config", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert "allow_unstable" in err and "N = 4: dt = 0.09375 exceeds 1*delta = 0.0625" in err
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # validation only checks, never warns
        cli.parse_config_text(text, kind="transient_init",
                              overrides={"allow_unstable": True})
    out = tmp_path / "band.csv"
    assert cli.main(["transient-init", "--config", str(cfg), "--allow-unstable",
                     "--out", str(out)]) == 0
    assert "init,N,n,t" in out.read_text()


@pytest.mark.parametrize(
    "command, text",
    [
        # dt = delta = 0.0625 at N = 4, rho = 10
        ("transient-init", "[transient_init]\nn_values = 4\nT = 0.1\n"),
        ("transient-init", "[transient_init]\nn_values = 4\nT = -1\n"),
        ("transient-init", "[transient_init]\nn_values = 4\nrho_values = 0\n"),
        ("transient-convergence", "[transient_convergence]\nn_values = 4\ninits =\n"),
        ("transient-init", "[transient_init]\nn_values = 4\nT = 0.125\ntol = -1\n"),
        ("stability-probe",
         "[stability_probe]\nn_values = 4\ndt_ratios = 0.5\nstep_budget = 5\n"
         "energy_ceiling = -1\n"),
        ("stability-probe",
         "allow_unstable = true\n[stability_probe]\nn_values = 4\ndt_ratios = 0.5 4\n"
         "step_budget = 5\nenergy_ceiling = nan\n"),
        ("steady-sweep", "[steady_sweep]\nn_values = 4\nnu = nan\n"),
        ("steady-sweep", "[steady_sweep]\nn_values = 4\nrho_values = nan\n"),
        ("steady-sweep", "[steady_sweep]\nn_values = 4\nrho_values = inf\n"),
        # delta = h^2/(nu rho^2) that is not a positive finite number
        ("steady-sweep", "[steady_sweep]\nn_values = 4\nrho_values = 10 1e-200\n"),
        ("transient-init", "[transient_init]\nn_values = 4\nrho_values = 1e-200\n"),
        ("steady-sweep", "[steady_sweep]\nn_values = 4\nrho_values = 1e200\n"),
        # lists that the runners ignored in part or that left nothing to run
        ("transient-init",
         "[transient_init]\ndegrees = 1 2\nn_values = 4\nT = 0.125\ndt_law = fixed\n"
         "dt = 0.0625\nrho_values = 1\n"),
        ("transient-init", "[transient_init]\ndegrees =\nn_values = 4\nT = 0.125\n"),
        ("steady-sweep", "[steady_sweep]\nn_values = 4\nrho_values =\n"),
        ("stability-probe", "[stability_probe]\nn_values = 4\ndt_ratios =\n"),
        ("transient-convergence",
         "[transient_convergence]\nn_values = 4\nT = 0.125\n"
         "inits = interpolant stabilized_stokes\n"),
    ],
    ids=["T-not-step-multiple", "T-negative", "rho-zero", "no-inits", "tol-negative",
         "ceiling-negative", "ceiling-nan", "nu-nan", "rho-nan", "rho-inf",
         "delta-inf", "transient-delta-inf", "delta-zero",
         "transient-degrees-list", "degrees-empty", "rho-empty", "dt_ratios-empty",
         "convergence-inits-list"],
)
def test_values_that_failed_at_run_time_are_config_errors(tmp_path, capsys, command, text):
    cfg = write(tmp_path, text)
    assert cli.main([command, "--config", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and "Traceback" not in err


_EDGE_RATIOS = st.sampled_from([1.0, 2.0, 2.0 * (1.0 + 1e-12), 2.0 * (1.0 - 1e-12)])


@settings(max_examples=50, deadline=None)
@given(
    ratio=st.floats(0.25, 5.0) | _EDGE_RATIOS,
    k=st.integers(1, 3),
    allow_unstable=st.booleans(),
)
def test_parsed_transient_configs_run(ratio, k, allow_unstable):
    # parsing and running apply one guard: a config is refused with exit 2
    # or runs to completion, never fails at run time with exit 1
    dt = ratio * steady.choose_delta(1.0 / 4, 0.01, 10.0)
    text = (
        f"allow_unstable = {'true' if allow_unstable else 'false'}\n"
        f"[transient_init]\nn_values = 4\ndt_law = fixed\ndt = {dt!r}\nT = {k * dt!r}\n"
    )
    with tempfile.TemporaryDirectory() as tmp:
        cfg = write(pathlib.Path(tmp), text)
        with contextlib.redirect_stderr(io.StringIO()):
            code = cli.main(["transient-init", "--config", str(cfg),
                             "--out", os.path.join(tmp, "out.csv")])
    assert code in (0, 2)
    if allow_unstable or ratio <= 1.0:
        assert code == 0
    elif ratio > 1.0 + 1e-9:
        assert code == 2


def test_equal_delta_law_sets_dt_to_delta():
    config = cli.parse_config_text("", kind="transient_init")
    n = config.n_values[0]
    delta = steady.choose_delta(1.0 / n, config.nu, config.rho_values[0])
    assert config.dt_law == "equal_delta"
    # the runner uses dt = delta; consistency of the law is checked in rows
    assert delta == pytest.approx((1.0 / n) ** 2, rel=1e-12)


_ROUNDTRIP_SET = {
    "steady_sweep": "nu = 0.02\nout = x.csv\n[steady_sweep]\nn_values = 10 20\n"
                    "degrees = 1 2\nrho_values = 1 10\n",
    "transient_init": "tol = 1e-8\n[transient_init]\nn_values = 10\nrho_values = 1\n"
                      "dt_law = fixed\ndt = 0.01\nT = 0.1\nscheme = inc\n"
                      "inits = zero_pressure interpolant\nrecord_every = 3\n",
    "transient_convergence": "nu = 0.02\n[transient_convergence]\nn_values = 10 20\n"
                             "rho_values = 100\nT = 0.01\nscheme = noninc\n"
                             "delta2_law = zero\ninits = interpolant\n",
    "stability_probe": "allow_unstable = true\n[stability_probe]\nn_values = 8\ndegrees = 2\n"
                       "dt_ratios = 0.25 3\nstep_budget = 7\nenergy_ceiling = 100\n",
}


@pytest.mark.parametrize("values", ["defaults", "set"])
@pytest.mark.parametrize("kind", cli.KINDS)
def test_config_roundtrip(kind, values):
    # the probe's default ratio 4 needs allow_unstable
    text = {"defaults": "allow_unstable = true\n" if kind == "stability_probe" else "",
            "set": _ROUNDTRIP_SET[kind]}[values]
    config = cli.parse_config_text(text, kind=kind)
    again = cli.parse_config_text(cli.serialize_config(config))
    assert again == config


@pytest.mark.parametrize(
    "text, named",
    [
        # dt_law = equal_delta steps with dt = delta = 0.0625 at N = 4, not dt
        ("[transient_convergence]\nn_values = 4\nT = 0.125\ndt = 0.001\n", "dt_law"),
        # the convergence study integrates the error over every step
        ("[transient_convergence]\nn_values = 4\nT = 0.125\nrecord_every = 5\n",
         "record_every = 5 is unused"),
    ],
    ids=["dt-under-equal_delta", "record_every-under-convergence"],
)
def test_keys_a_run_would_ignore_are_config_errors(tmp_path, capsys, text, named):
    (kind,) = re.findall(r"^\[(\w+)\]", text, flags=re.MULTILINE)
    assert cli.main([kind.replace("_", "-"), "--config", str(write(tmp_path, text))]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and named in err


@pytest.mark.parametrize(
    "text",
    [
        "[steady_sweep]\nn_values = 4 4\n",
        "[steady_sweep]\nn_values = 4\ndegrees = 1 1\n",
        "[steady_sweep]\nn_values = 4\nrho_values = 10 10.0\n",
        "[stability_probe]\nn_values = 4\ndt_ratios = 0.5 0.5\n",
        "[transient_init]\nn_values = 4\nT = 0.125\ninits = interpolant interpolant\n",
    ],
    ids=["n_values", "degrees", "rho_values", "dt_ratios", "inits"],
)
def test_repeated_list_entry_is_config_error(tmp_path, capsys, text):
    # a repeated entry ran twice and wrote duplicate rows (and, for n_values,
    # a rate row fitted from a single mesh size)
    (kind,) = re.findall(r"^\[(\w+)\]", text, flags=re.MULTILINE)
    key = text.splitlines()[-1].split(" =")[0]
    assert cli.main([kind.replace("_", "-"), "--config", str(write(tmp_path, text))]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and key in err


def test_experiment_key_other_than_the_command_is_config_error(tmp_path, capsys):
    # the steady sweep would ignore every key of the probe's section
    text = "experiment = stability_probe\n[stability_probe]\nn_values = 8\n"
    with pytest.raises(cli.ConfigError) as err:
        cli.parse_config_text(text, kind="steady_sweep")
    assert "line 1" in str(err.value)
    assert "stability_probe" in str(err.value) and "steady_sweep" in str(err.value)
    same = cli.parse_config_text(text + "dt_ratios = 0.5\n", kind="stability_probe")
    assert same.n_values == (8,)
    probe = pathlib.Path(__file__).parent.parent / "scripts" / "stability_probe.cfg"
    assert cli.main(["steady-sweep", "--config", str(probe)]) == 2
    assert capsys.readouterr().err.startswith("config error: line 3:")


def test_repeated_experiment_key_is_config_error(tmp_path, capsys):
    # the last of two experiment lines used to win without complaint
    with pytest.raises(cli.ConfigError) as err:
        cli.parse_config_text("experiment = stability_probe\nexperiment = steady_sweep\n")
    assert str(err.value) == "line 2: duplicate key 'experiment'"
    # the same kind twice too, through the CLI
    path = write(tmp_path, "experiment = steady_sweep\nexperiment = steady_sweep\n")
    assert cli.main(["steady-sweep", "--config", str(path)]) == 2
    assert capsys.readouterr().err == "config error: line 2: duplicate key 'experiment'\n"


def test_readme_key_table_matches_key_table():
    # README "Config files": one row per key, naming the kinds whose sections
    # accept it and whether the top level does
    readme = (pathlib.Path(__file__).parent.parent / "README.md").read_text()
    section = readme.split("### Config files")[1].split("\n### ")[0]
    rows = re.findall(r"^\| `(\w+)` \| ([^|]*) \|", section, flags=re.MULTILINE)
    listed = {}
    for key, cell in rows:
        kinds = set(re.findall(r"`(\w+)`", cell))
        if "every kind" in cell:
            kinds |= set(cli.KINDS)
        listed[key] = (kinds, "top level" in cell)
    keys = {
        f.name: (set(f.metadata["kinds"]), f.metadata["top"])
        for f in dataclasses.fields(cli.ExperimentConfig) if f.metadata
    }
    assert listed == keys


# --- experiment runners ------------------------------------------------------


def steady_csv(nvals="10", rhos="100", degrees="1"):
    return cli.parse_config_text(
        f"[steady_sweep]\nn_values = {nvals}\nrho_values = {rhos}\ndegrees = {degrees}\n"
    )


def test_steady_sweep_row_counts():
    # a single (P1, N=20, rho=100) cell: exactly one data row plus one summary
    config = steady_csv(nvals="20")
    columns, rows = cli.run_steady_sweep(config)
    data = [r for r in rows if r[0] == "data"]
    rates = [r for r in rows if r[0] == "rate"]
    assert len(data) == 1
    assert len(rates) == 1
    assert rates[0][-1] == "insufficient data for a rate"


def test_experiment_script_configs_parse():
    root = pathlib.Path(__file__).parent.parent
    scripts = root / "scripts"
    fig1 = cli.parse_config(scripts / "fig1_linear.cfg")
    assert fig1.kind == "steady_sweep"
    assert fig1.n_values == (20, 40, 80, 160, 320)
    assert fig1.rho_values == (1.0, 10.0, 100.0, 1000.0)
    assert fig1.degrees == (1,)  # 5 N x 4 rho = 20 data rows when run
    quad = cli.parse_config(scripts / "fig1_quadratic.cfg")
    assert quad.degrees == (2,)
    assert quad.n_values == (10, 20, 40, 80, 160)
    fig2 = cli.parse_config(scripts / "fig2_init.cfg")
    assert fig2.kind == "transient_init"
    assert fig2.T == 6.0 and fig2.dt_law == "equal_delta"
    assert set(fig2.inits) == {"stabilized_stokes", "interpolant"}
    probe = cli.parse_config(scripts / "stability_probe.cfg")
    assert probe.allow_unstable
    conv = cli.parse_config(scripts / "transient_convergence.cfg")
    assert conv.scheme == "inc" and conv.rho_values == (100.0,)
    # the benchmark workloads must stay valid too (read only)
    kinds = {path.stem: cli.parse_config(path).kind
             for path in sorted((root / "perfbench" / "configs").glob("*.cfg"))}
    assert kinds == {
        "conv-inc-p1": "transient_convergence",
        "probe-p2": "stability_probe",
        "steady-p1": "steady_sweep",
    }


def test_run_all_experiments_runs_every_script_config(tmp_path, monkeypatch, capsys):
    # the driver takes each subcommand from the config's own experiment key
    scripts = pathlib.Path(__file__).parent.parent / "scripts"
    spec = importlib.util.spec_from_file_location("run_all", scripts / "run_all_experiments.py")
    run_all = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(run_all)
    calls = []
    monkeypatch.setattr(cli, "main", lambda argv: calls.append(argv) or 0)
    assert run_all.main(["run_all_experiments.py", str(tmp_path)]) == 0
    configs = sorted(scripts.glob("*.cfg"))
    assert [pathlib.Path(argv[2]) for argv in calls] == configs
    for argv, cfg in zip(calls, configs):
        (kind,) = re.findall(r"^experiment = (\w+)", cfg.read_text(), flags=re.MULTILINE)
        assert argv[0] == kind.replace("_", "-")
        assert argv[4] == str(tmp_path / f"{cfg.stem}.csv")
    # each config's exit line gives the peak RSS so far
    exits = [line for line in capsys.readouterr().out.splitlines() if "exit" in line]
    assert len(exits) == len(configs)
    assert all(re.fullmatch(r"   exit 0 in \d+\.\ds, peak RSS so far \d+ MB", line)
               for line in exits)


def test_steady_sweep_rate_rows():
    config = steady_csv(nvals="8 16")
    columns, rows = cli.run_steady_sweep(config)
    rates = [r for r in rows if r[0] == "rate"]
    assert len(rates) == 1
    assert isinstance(rates[0][columns.index("vel_l2_interp")], float)


def test_steady_sweep_frees_each_saddle_system_before_the_exact_fields(monkeypatch):
    # one steady solve per mesh gathers the rows K_r of each block's
    # representatives once for all its rho, and none are alive when a
    # field is evaluated at the quadrature points: the forcing load before
    # the mesh's solve, the two exact fields after it
    made, alive = [], []
    real_rows = sparsela._representative_rows
    real_at_points = assembly.Discretization.at_quadrature_points

    def rows(*args):
        k_r = real_rows(*args)
        made.append(weakref.ref(k_r))
        return k_r

    def at_points(disc, f):
        alive.append(sum(ref() is not None for ref in made))
        return real_at_points(disc, f)

    monkeypatch.setattr(sparsela, "_representative_rows", rows)
    monkeypatch.setattr(assembly.Discretization, "at_quadrature_points", at_points)
    cli.run_steady_sweep(steady_csv(nvals="4 6", rhos="1 10"))
    assert len(made) == 4 * 2
    assert alive == [0] * 6


def test_steady_sweep_factors_with_no_gathered_rows_alive(monkeypatch):
    # each block's rows K_r are dropped once its block is built, before it
    # is factored for any rho, so no gathered rows are alive at any
    # factorization
    made, alive = [], []
    real_rows, real_splu = sparsela._representative_rows, sparsela._splu

    def rows(*args):
        k_r = real_rows(*args)
        made.append(weakref.ref(k_r))
        return k_r

    def splu(m, *args):
        alive.append(sum(ref() is not None for ref in made))
        return real_splu(m, *args)

    monkeypatch.setattr(sparsela, "_representative_rows", rows)
    monkeypatch.setattr(sparsela, "_splu", splu)
    cli.run_steady_sweep(steady_csv(nvals="4 6", rhos="1 10"))
    assert alive == [0] * (4 * 2 * 2)
    assert len(made) == 4 * 2


# traced bytes alive when a P1 N=40 steady sweep first factors (measured
# 1,190,429-1,191,152 B; 1,213,500-1,214,206 B with the reference cycles
# that a nested dissection by a recursive closure left for the cyclic
# garbage collector, 1,596,631-1,618,090 B also with a free copy of the
# stiffness and the rows K_r of all four blocks alive, and 2,179,621 B
# also with edge tables on the mesh, copied P1 arrays, a scaled copy of
# A and float64 orbit weights)
STEADY_P1_N40_FACTOR_BYTES = 1_191_000


def test_steady_sweep_memory_at_its_first_factorization(monkeypatch):
    # a deterministic guard on what a steady sweep holds while SuperLU
    # factors, which heap placement does not move as it moves RSS: the
    # traced bytes alive when a P1 N=40 sweep hands its first symmetry
    # block to the factorization (the mesh, the space, the operators and
    # loads, the orbit tables that the solve built, the block and its
    # basis; no free copy of the stiffness, no gathered rows and no
    # garbage of the tables' build) stay within 10 % of the measured
    # value.  A sweep on N=4 warms the code paths first
    cli.run_steady_sweep(steady_csv(nvals="4"))
    traced = []
    real = sparsela._splu

    def spy(m, *args):
        if not traced:
            traced.append(tracemalloc.get_traced_memory()[0])
        return real(m, *args)

    monkeypatch.setattr(sparsela, "_splu", spy)
    tracemalloc.start()
    try:
        cli.run_steady_sweep(steady_csv(nvals="40"))
    finally:
        tracemalloc.stop()
    assert abs(traced[0] - STEADY_P1_N40_FACTOR_BYTES) <= 0.1 * STEADY_P1_N40_FACTOR_BYTES


def test_rho_delta_h_consistency():
    config = steady_csv(nvals="8 16", rhos="1 10")
    columns, rows = cli.run_steady_sweep(config)
    ih, irho, idelta = columns.index("h"), columns.index("rho"), columns.index("delta")
    for row in rows:
        if row[0] != "data":
            continue
        h, rho, delta = row[ih], row[irho], row[idelta]
        assert abs(rho - h / np.sqrt(config.nu * delta)) <= 1e-12 * rho


def test_csv_byte_stable():
    config = steady_csv(nvals="8 16")
    assert cli.run_experiment(config) == cli.run_experiment(config)


def test_csv_header_contains_config():
    config = steady_csv()
    text = cli.run_experiment(config)
    head = [line for line in text.splitlines() if line.startswith("#")]
    assert any("experiment = steady_sweep" in line for line in head)
    body = [line for line in text.splitlines() if not line.startswith("#")]
    assert body[0].startswith("row,degree,N,h,rho,delta")


def test_transient_init_rows():
    config = cli.parse_config_text(
        "[transient_init]\nn_values = 8\nT = 0.15625\ninits = stabilized_stokes interpolant\n",
        kind="transient_init",
    )
    # delta = h^2 = 1/64 -> 10 steps
    columns, rows = cli.run_transient_init(config)
    assert columns == ["init", "N", "n", "t", "pres_l2_interp", "vel_l2_interp"]
    for init in ("stabilized_stokes", "interpolant"):
        sub = [r for r in rows if r[0] == init]
        assert [r[2] for r in sub] == list(range(11))
        assert all(np.isfinite(r[4]) and r[4] >= 0 for r in sub)


def test_transient_convergence_rows():
    config = cli.parse_config_text(
        "[transient_convergence]\nn_values = 8 16\nT = 0.03125\nrho_values = 10\n",
        kind="transient_convergence",
    )
    columns, rows = cli.run_transient_convergence(config)
    data = [r for r in rows if r[0] == "data"]
    assert len(data) == 2
    assert all(r[-1] == "ok" for r in data)
    rate = [r for r in rows if r[0] == "rate"]
    assert len(rate) == 1


def test_stability_probe_rows():
    config = cli.parse_config_text(
        "allow_unstable = true\n[stability_probe]\nn_values = 16\ndt_ratios = 0.5 4\nstep_budget = 40\n",
        kind="stability_probe",
    )
    columns, rows = cli.run_stability_probe(config)
    summaries = {r[2]: r[5] for r in rows if r[0] == "summary"}
    assert summaries[0.5] == "completed"
    assert summaries[4.0] == "diverged"


def test_transient_convergence_reports_divergence(tmp_path, capsys, monkeypatch):
    # dt = 0.05 is 3.2 delta at N = 8: that run blows up before T, so its
    # row says so and the rate, with one completed mesh left, is not taken
    observed = []

    class Tracker(metrics.TransientErrorTracker):
        def __call__(self, state):
            record = super().__call__(state)
            observed.append(record.step)
            return record

    monkeypatch.setattr(metrics, "TransientErrorTracker", Tracker)
    cfg = write(
        tmp_path,
        "allow_unstable = true\n[transient_convergence]\nn_values = 4 8\nrho_values = 10\n"
        "dt_law = fixed\ndt = 0.05\nT = 30\n",
    )
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # the divergence is recorded, not warned about
        assert cli.main(["transient-convergence", "--config", str(cfg)]) == 0
    rows = [line.split(",") for line in capsys.readouterr().out.splitlines()[-3:]]
    assert [(row[0], row[2], row[-1]) for row in rows] == [
        ("data", "4", "ok"),
        ("data", "8", "diverged"),
        ("rate", "", "insufficient data for a rate"),
    ]
    assert int(rows[1][8]) < 600
    # the row's step count is the step of the errors it reports, those of
    # the N = 8 run's last record
    assert int(rows[1][8]) == observed[-1]


@pytest.mark.parametrize(
    "kind, extra, empty, rated",
    [
        ("steady_sweep", "",
         ["vel_l2_interp", "pres_l2_interp", "vel_l2_exact", "pres_l2_exact"],
         ["vel_l2_interp", "pres_l2_interp", "vel_l2_exact", "pres_l2_exact"]),
        ("transient_convergence", "T = 0.0625\n",
         ["steps", "pres_l2_time_integrated", "pres_l2_final", "vel_l2_final"],
         ["pres_l2_time_integrated"]),
    ],
    ids=["steady_sweep", "transient_convergence"],
)
def test_failed_mesh_is_recorded_and_left_out_of_the_rate(
    tmp_path, capsys, monkeypatch, kind, extra, empty, rated
):
    # the steady solve fails at N = 8 (the transient run's initial state is
    # one) and returns its error: the run goes on, that row says why, and
    # the rate is fitted to N = 4 and 16 only
    solve = steady.solve

    def failing(disc, nu, deltas, *args):
        if disc.mesh.n == 8:
            return [sparsela.LinearSolverError("planted failure") for _ in deltas]
        return solve(disc, nu, deltas, *args)

    monkeypatch.setattr(steady, "solve", failing)
    cfg = write(tmp_path, f"[{kind}]\nn_values = 4 8 16\nrho_values = 10\n{extra}")
    assert cli.main([kind.replace("_", "-"), "--config", str(cfg)]) == 0
    lines = [line for line in capsys.readouterr().out.splitlines() if not line.startswith("#")]
    rows = [dict(zip(lines[0].split(","), line.split(","))) for line in lines[1:]]
    data = [row for row in rows if row["row"] == "data"]
    assert [row["N"] for row in data] == ["4", "8", "16"]
    assert data[1]["status"] == "failed: planted failure"
    assert all(data[1][column] == "" for column in empty)
    assert data[0]["status"] == data[2]["status"] == "ok"
    (rate,) = [row for row in rows if row["row"] == "rate"]
    assert rate["status"] == "ok"
    hs = [float(data[i]["h"]) for i in (0, 2)]
    for column in rated:
        errors = [float(data[i][column]) for i in (0, 2)]
        assert float(rate[column]) == metrics.observed_rate(errors, hs)


DATA = pathlib.Path(__file__).parent / "data"
REFERENCES = sorted(DATA.glob("*.cfg"))


@pytest.mark.parametrize("cfg", REFERENCES, ids=[path.stem for path in REFERENCES])
def test_csv_matches_reference(capsys, cfg):
    # tests/data/<name>.csv is the exact stdout of
    #   PYTHONPATH=src python -m stokesproj <command> --config tests/data/<name>.cfg
    # with <command> the file's [section], written by an earlier commit; a
    # refactor must reproduce it byte for byte
    (kind,) = re.findall(r"^\[(\w+)\]", cfg.read_text(), flags=re.MULTILINE)
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # a diverging run is recorded, not warned about
        assert cli.main([kind.replace("_", "-"), "--config", str(cfg)]) == 0
    assert capsys.readouterr().out == cfg.with_suffix(".csv").read_text()


BENCH = pathlib.Path(__file__).parent.parent / "perfbench"
WORKLOADS = sorted((BENCH / "configs").glob("*.cfg"))


@pytest.mark.parametrize("cfg", WORKLOADS, ids=[path.stem for path in WORKLOADS])
def test_benchmark_workload_passes_the_benchmark_correctness_check(cfg):
    # the benchmark's check of each workload's CSV, run in-process: with
    # the output path the benchmark gives it (its "# out =" line), the CSV
    # has no failed row and matches perfbench/reference within the
    # tolerances of perfbench/csvcheck.py, loaded read-only; no file is
    # written
    spec = importlib.util.spec_from_file_location("perfbench_csvcheck", BENCH / "csvcheck.py")
    csvcheck = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(csvcheck)
    config = cli.parse_config(cfg, overrides={"out": f"perfbench/_work/{cfg.stem}.csv"})
    text = cli.run_experiment(config)
    assert csvcheck.failed_rows(text) == []
    assert csvcheck.mismatches(text, (BENCH / "reference" / f"{cfg.stem}.csv").read_text()) == []


# --- command line ------------------------------------------------------------


def test_main_writes_csv(tmp_path, capsys):
    cfg = write(
        tmp_path,
        "[steady_sweep]\nn_values = 8\nrho_values = 100\n",
    )
    out = tmp_path / "result.csv"
    code = cli.main(["steady-sweep", "--config", str(cfg), "--out", str(out)])
    assert code == 0
    text = out.read_text()
    assert "row,degree,N" in text


def test_main_stdout_when_no_out(tmp_path, capsys):
    cfg = write(tmp_path, "[steady_sweep]\nn_values = 8\n")
    assert cli.main(["steady-sweep", "--config", str(cfg)]) == 0
    assert "row,degree,N" in capsys.readouterr().out


def test_main_config_error_exit_code(tmp_path, capsys):
    cfg = write(tmp_path, "bogus = 1\n")
    assert cli.main(["steady-sweep", "--config", str(cfg)]) == 2
    assert "config error" in capsys.readouterr().err


def test_main_missing_config_file(tmp_path, capsys):
    assert cli.main(["steady-sweep", "--config", str(tmp_path / "none.cfg")]) == 1


def test_config_file_that_is_not_utf8_is_config_error(tmp_path, capsys):
    cfg = tmp_path / "exp.cfg"
    cfg.write_bytes(b"[steady_sweep]\nn_values = 4 # \xff\n")
    assert cli.main(["steady-sweep", "--config", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and "can't decode byte 0xff" in err


def test_delta_out_of_range_names_mesh_and_rho(tmp_path, capsys):
    cfg = write(tmp_path, "[steady_sweep]\nn_values = 4 8\nrho_values = 10 1e-200\n")
    assert cli.main(["steady-sweep", "--config", str(cfg)]) == 2
    assert "N = 4, rho = 1e-200: delta" in capsys.readouterr().err


ONE_CELL_CONFIGS = {
    "steady-sweep": "[steady_sweep]\nn_values = 1 2\ndegrees = {degree}\n",
    "transient-init": "[transient_init]\nn_values = 1 2\ndegrees = {degree}\nT = 2\n",
    "transient-convergence": "[transient_convergence]\nn_values = 1 2\ndegrees = {degree}\nT = 2\n",
    "stability-probe": (
        "[stability_probe]\nn_values = 1 2\ndegrees = {degree}\ndt_ratios = 1\nstep_budget = 20\n"
    ),
}


@pytest.mark.parametrize("command", sorted(ONE_CELL_CONFIGS))
def test_p1_on_one_cell_grid_is_config_error_and_p2_runs(tmp_path, capsys, command):
    # the P1 grid of N = 1 has no interior velocity node, so a config with
    # it is refused; the P2 one has the midpoint of the diagonal and runs
    p1 = write(tmp_path, ONE_CELL_CONFIGS[command].format(degree=1), "p1.cfg")
    assert cli.main([command, "--config", str(p1)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: N = 1, degree 1: the grid has no interior velocity node")
    p2 = write(tmp_path, ONE_CELL_CONFIGS[command].format(degree=2), "p2.cfg")
    out = tmp_path / "p2.csv"
    assert cli.main([command, "--config", str(p2), "--out", str(out)]) == 0
    assert "failed" not in out.read_text() and capsys.readouterr().err == ""


def test_singular_saddle_matrix_is_a_failed_row(tmp_path, capsys, monkeypatch):
    # both the symmetric and the pivoting factorization find it singular
    def singular(*args, **kwargs):
        raise RuntimeError("Factor is exactly singular")

    monkeypatch.setattr(sparsela.spla, "splu", singular)
    cfg = write(tmp_path, "[steady_sweep]\nn_values = 4\nrho_values = 10\n")
    assert cli.main(["steady-sweep", "--config", str(cfg)]) == 0
    out, err = capsys.readouterr()
    assert "failed: pivoting factorization failed: Factor is exactly singular" in out
    assert err == ""


def test_main_out_of_memory_is_solver_error(tmp_path, capsys, monkeypatch):
    def no_memory(*args, **kwargs):
        raise MemoryError("SuperLU: not enough memory")

    monkeypatch.setattr(sparsela.spla, "splu", no_memory)
    cfg = write(tmp_path, "[steady_sweep]\nn_values = 4\nrho_values = 100\n")
    assert cli.main(["steady-sweep", "--config", str(cfg)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("solver error: out of memory")
    assert "Traceback" not in err


def test_main_allow_unstable_flag(tmp_path):
    cfg = write(
        tmp_path,
        "[stability_probe]\nn_values = 8\ndt_ratios = 4\nstep_budget = 30\n",
    )
    out = tmp_path / "probe.csv"
    assert cli.main(["stability-probe", "--config", str(cfg)]) == 2
    assert (
        cli.main(
            ["stability-probe", "--config", str(cfg), "--allow-unstable", "--out", str(out)]
        )
        == 0
    )
    assert "diverged" in out.read_text()


def test_main_probe_divergence_still_exit_zero(tmp_path):
    # a recorded divergence is an outcome, not a failure
    cfg = write(
        tmp_path,
        "allow_unstable = true\n[stability_probe]\nn_values = 8\ndt_ratios = 4\nstep_budget = 30\n",
    )
    assert cli.main(["stability-probe", "--config", str(cfg), "--out",
                     str(tmp_path / "x.csv")]) == 0


def run_module(tmp_path, module):
    """``python -m <module> steady-sweep`` on a small config, in a fresh
    interpreter."""
    cfg = write(tmp_path, "[steady_sweep]\nn_values = 4\nrho_values = 100\n")
    src = os.path.dirname(os.path.dirname(stokesproj.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    return subprocess.run(
        [sys.executable, "-m", module, "steady-sweep", "--config", str(cfg)],
        capture_output=True, text=True, env=env, timeout=120,
    )


def test_python_m_stokesproj_runs_cleanly(tmp_path):
    proc = run_module(tmp_path, "stokesproj")
    assert proc.returncode == 0
    assert proc.stderr == ""
    assert "row,degree,N" in proc.stdout


def test_python_m_stokesproj_cli_runs_cleanly(tmp_path):
    # perfbench/README.md regenerates its references this way; importing
    # the package must not import cli before runpy executes it
    proc = run_module(tmp_path, "stokesproj.cli")
    assert proc.returncode == 0
    assert proc.stderr == ""
    assert proc.stdout == run_module(tmp_path, "stokesproj").stdout
