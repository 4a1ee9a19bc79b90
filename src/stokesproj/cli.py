"""Experiment driver.

Subcommands (also usable programmatically through ``run_experiment``); all
four walk one mesh loop, ``_meshes``, and differ only in the rows they record:

- ``steady-sweep``: steady solves over (degree, N, rho) grids with
  vs-interpolant and vs-exact errors plus per-(degree, rho) observed
  convergence rates;
- ``transient-init``: the initialization study, recording per-step
  pressure/velocity errors against the interpolated exact solution for
  each initialization strategy;
- ``transient-convergence``: time-stepping convergence study reporting
  the discrete time-integrated pressure error;
- ``stability-probe``: runs at several dt/delta ratios, recording the
  velocity energy history and a diverged/completed verdict per ratio.

Config files are plain text: ``key = value`` lines, ``#`` comments, and
optional ``[experiment_kind]`` sections.  Keys before any section apply
to every kind; section keys apply to that kind only.  Unknown keys,
malformed values and duplicate keys are rejected with line numbers.
Lists are space separated.  Each key is declared once, as a field of
``ExperimentConfig`` whose metadata holds its parser, the kinds that
accept it, its per-kind defaults and its rules; parsing, validation and
the CSV header all read those fields.  The full grammar and all defaults
are documented in the README.

Every run writes CSV: ``#``-prefixed lines with the resolved
configuration, one column-name row, then data rows.  Output is
byte-stable for a fixed config and a fixed BLAS thread count (the
benchmark pins one thread): a long dot product may be split across
BLAS threads, which moves the last digits of a cell.  Exit codes: 0
for a completed run (recorded divergences included), 2 for
configuration errors, 1 for solver or I/O failures.
"""

import argparse
import sys
from dataclasses import dataclass, field, fields, replace

import numpy as np

from . import femspace, metrics, schemes, sparsela, steady
from .assembly import Discretization
from .mesh import build_grid, mesh_size
from .mms import berrone_case

KINDS = ("steady_sweep", "transient_init", "transient_convergence", "stability_probe")
_TRANSIENT = ("transient_init", "transient_convergence")


class ConfigError(ValueError):
    pass


def _finite(text):
    value = float(text)
    if not np.isfinite(value):
        raise ValueError(f"{text!r} is not a finite number")
    return value


def _boolean(text):
    return {"true": True, "false": False}[text.lower()]


_POSITIVE = (lambda v: v > 0, "{key} must be positive")
_AT_LEAST_ONE = (lambda v: v >= 1, "{key} must be >= 1")


def _one_of(choices):
    return (lambda v: v in choices, "unknown {key} {value!r}; choose from " + str(choices))


def _each(rule):
    ok, message = rule
    return (lambda values: all(ok(v) for v in values), message)


def _key(default, parse, kinds=KINDS, top=False, rules=(), **kind_defaults):
    """One config key.  ``parse`` reads its text; the sections of
    ``kinds`` accept it, and so does the top level if ``top``; a kind
    named in ``kind_defaults`` defaults to that value instead of
    ``default``; each (ok, message) rule must hold for a set value."""
    meta = {"parse": parse, "kinds": kinds, "top": top, "rules": rules,
            "defaults": kind_defaults}
    return field(default=default, metadata=meta)


def _list_key(default, item, kinds=KINDS, top=False, rules=(), **kind_defaults):
    """A space-separated list key: it must not be empty or repeat an entry."""
    rules = (
        (bool, "{key} must not be empty"),
        (lambda v: len(set(v)) == len(v), "{key} = {value} repeats an entry"),
    ) + tuple(rules)
    return _key(default, lambda s: tuple(item(tok) for tok in s.split()), kinds, top, rules,
                **kind_defaults)


@dataclass(frozen=True)
class ExperimentConfig:
    """Fully resolved experiment description; see module docstring.

    Every field but ``kind`` is a config key, declared once here: its
    parser, the kinds that accept it, its defaults and its rules.
    """

    kind: str = "steady_sweep"
    nu: float = _key(0.01, _finite, top=True, rules=(_POSITIVE,))
    tol: float = _key(1e-10, _finite, top=True, rules=(_POSITIVE,))
    n_values: tuple = _list_key(
        (20, 40, 80, 160), int, top=True, rules=(_each(_POSITIVE),),
        transient_init=(20, 40, 80), transient_convergence=(20, 40, 80), stability_probe=(40,),
    )
    degrees: tuple = _list_key((1,), int, top=True, rules=(_each(_one_of((1, 2))),))
    rho_values: tuple = _list_key(
        (100.0,), _finite, rules=(_each(_POSITIVE),),
        transient_init=(10.0,), transient_convergence=(10.0,), stability_probe=(10.0,),
    )
    dt_law: str = _key("equal_delta", str, _TRANSIENT, rules=(_one_of(("equal_delta", "fixed")),))
    dt: float = _key(None, _finite, _TRANSIENT)
    T: float = _key(6.0, _finite, _TRANSIENT, transient_convergence=0.5)
    scheme: str = _key("noninc", str, _TRANSIENT, rules=(_one_of(schemes.SCHEMES),),
                       transient_convergence="inc")
    delta2_law: str = _key("equal_delta", str, ("transient_convergence",),
                           rules=(_one_of(("equal_delta", "zero")),))
    inits: tuple = _list_key(
        ("stabilized_stokes", "interpolant"), str, _TRANSIENT,
        rules=(_each(_one_of(schemes.INITS)),),
        transient_convergence=("stabilized_stokes",),
    )
    out: str = _key(None, str, top=True)
    allow_unstable: bool = _key(False, _boolean, top=True)
    dt_ratios: tuple = _list_key((0.5, 1.0, 4.0), _finite, ("stability_probe",))
    step_budget: int = _key(500, int, ("stability_probe",), rules=(_AT_LEAST_ONE,))
    # a multiple of the initial energy: below 1 flags decaying runs
    energy_ceiling: float = _key(1e12, _finite, ("stability_probe",), rules=(_AT_LEAST_ONE,))
    record_every: int = _key(1, int, _TRANSIENT, rules=(_AT_LEAST_ONE,))


_KEYS = {f.name: f.metadata for f in fields(ExperimentConfig) if f.metadata}


def _parse_lines(text):
    """Yield (lineno, section, key, raw_value) for every assignment."""
    section = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            section = line[1:-1].strip()
            if section not in KINDS:
                raise ConfigError(f"line {lineno}: unknown section [{section}]")
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        yield lineno, section, key, value


def parse_config(path, kind=None, overrides=None):
    """Parse a config file into a validated ExperimentConfig.

    ``kind`` (e.g. from the CLI subcommand) must agree with the file's
    ``experiment`` key, if it has one; ``overrides`` is a mapping of final
    field overrides (CLI flags).  An empty file yields the all-defaults
    steady_sweep configuration.
    """
    with open(path, encoding="utf-8") as fh:
        text = fh.read()
    return parse_config_text(text, kind=kind, overrides=overrides)


def parse_config_text(text, kind=None, overrides=None):
    file_kind = None
    top = {}
    sections = {k: {} for k in KINDS}
    for lineno, section, key, value in _parse_lines(text):
        if section is None and key == "experiment":
            if value not in KINDS:
                raise ConfigError(f"line {lineno}: unknown experiment kind {value!r}")
            if kind not in (None, value):
                raise ConfigError(f"line {lineno}: experiment = {value} conflicts with {kind}")
            if file_kind is not None:
                raise ConfigError(f"line {lineno}: duplicate key 'experiment'")
            file_kind = value
            continue
        meta = _KEYS.get(key)
        if meta is None or not (meta["top"] if section is None else section in meta["kinds"]):
            where = "top level" if section is None else f"section [{section}]"
            raise ConfigError(f"line {lineno}: unknown key {key!r} in {where}")
        scope = top if section is None else sections[section]
        if key in scope:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        try:
            scope[key] = meta["parse"](value)
        except (ValueError, KeyError) as exc:
            raise ConfigError(f"line {lineno}: bad value for {key!r}: {value!r}") from exc

    resolved_kind = kind or file_kind or "steady_sweep"
    values = {key: meta["defaults"][resolved_kind] for key, meta in _KEYS.items()
              if resolved_kind in meta["defaults"]}
    values.update(top)
    values.update(sections.get(resolved_kind, {}))
    if overrides:
        values.update({k: v for k, v in overrides.items() if v is not None})
    config = replace(ExperimentConfig(kind=resolved_kind), **values)
    validate_config(config)
    return config


def validate_config(config):
    if config.kind not in KINDS:
        raise ConfigError(f"unknown experiment kind {config.kind!r}")
    for key, meta in _KEYS.items():
        value = getattr(config, key)
        for ok, message in meta["rules"]:
            if value is not None and not ok(value):
                raise ConfigError(message.format(key=key, value=value))
    if config.dt_law == "fixed" and (config.dt is None or config.dt <= 0):
        raise ConfigError("dt law 'fixed' needs a positive dt")
    if config.dt_law == "equal_delta" and config.dt is not None:
        raise ConfigError(
            f"dt = {config.dt!r} is unused: dt law 'equal_delta' steps with dt = delta; "
            "set dt_law = fixed to use it"
        )
    if 1 in config.degrees and 1 in config.n_values:
        raise ConfigError("N = 1, degree 1: the grid has no interior velocity node; "
                          "P1 needs N >= 2")
    for n in config.n_values:
        for rho in config.rho_values:
            try:
                steady.choose_delta(1.0 / n, config.nu, rho)
            except ValueError as exc:
                raise ConfigError(f"N = {n}, rho = {rho!r}: {exc}") from exc
    if config.kind == "steady_sweep":
        return
    if len(config.degrees) != 1:
        raise ConfigError(f"{config.kind} runs one element degree; give one, not a list")
    if config.kind == "transient_convergence" and len(config.inits) != 1:
        raise ConfigError("transient_convergence runs one init; give one, not a list")
    if len(config.rho_values) != 1:
        raise ConfigError(
            f"{config.kind} uses a single stabilization law; give one rho, not a list"
        )
    if config.kind == "transient_convergence" and config.record_every != 1:
        raise ConfigError(
            f"record_every = {config.record_every} is unused: transient_convergence "
            "records every step"
        )
    # the runners step with exactly these parameters (h = 1/N, mesh_size of
    # the grid), and making them runs the guard and the T/dt check, so a
    # config that passes here cannot fail them at run time
    for n in config.n_values:
        try:
            _scheme_runs(config, 1.0 / n)
        except schemes.SchemeGuardError as exc:
            raise ConfigError(
                f"N = {n}: {exc}. Set allow_unstable (or pass --allow-unstable) "
                "to run it anyway."
            ) from exc
        except ValueError as exc:
            raise ConfigError(f"N = {n}: {exc}") from exc


def _fmt(value):
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    if isinstance(value, tuple):
        return " ".join(_fmt(v) for v in value)
    return str(value)


def serialize_config(config):
    """Round-trippable textual form of a config (parse_config_text inverse):
    every key the kind accepts, in name order, less the unset ones."""
    lines = [f"experiment = {config.kind}", f"[{config.kind}]"]
    for key in sorted(k for k, meta in _KEYS.items() if config.kind in meta["kinds"]):
        value = getattr(config, key)
        if value is None:
            continue
        lines.append(f"{key} = {_fmt(value)}")
    return "\n".join(lines) + "\n"


def _csv_text(config, columns, rows):
    lines = [f"# {line}" for line in serialize_config(config).strip().splitlines()]
    lines.append(",".join(columns))
    for row in rows:
        lines.append(",".join(_fmt(v) for v in row))
    return "\n".join(lines) + "\n"


def _meshes(config):
    """(degree, N, h, Discretization) of every mesh of the run, in run
    order: each degree, then each N.  The time kinds run one degree."""
    for degree in config.degrees:
        for n in config.n_values:
            grid = build_grid(n)
            yield degree, n, mesh_size(grid), Discretization(grid, degree)


def _rates(done, cols):
    """The observed rate of each error column in ``cols`` over the data rows
    ``done`` of the completed meshes (h is column 3), and the status cell."""
    if len(done) < 2:
        return [""] * len(cols), "insufficient data for a rate"
    hs = [row[3] for row in done]
    return [metrics.observed_rate([row[c] for row in done], hs) for c in cols], "ok"


# ---------------------------------------------------------------------------
# steady sweep


def _steady_rows(config, case, degree, n, h, disc):
    """The data rows of one mesh of the steady sweep: one steady solve
    for all its rho, then each exact field once, evaluated after the
    solve has returned, so that its values at the quadrature points are
    not held with a saddle block."""
    deltas = [steady.choose_delta(h, config.nu, rho) for rho in config.rho_values]
    solutions = steady.solve(disc, config.nu, deltas, disc.free_load(case.steady_forcing),
                             config.tol)
    fields = (case.steady_velocity, case.steady_pressure)
    interps = [femspace.interpolate(disc.space, f) for f in fields]
    exacts = [disc.at_quadrature_points(f) for f in fields]
    rows = []
    for rho, delta, solution in zip(config.rho_values, deltas, solutions):
        head = ["data", degree, n, h, rho, delta]
        if isinstance(solution, sparsela.LinearSolverError):
            rows.append(head + ["", "", "", "", f"failed: {solution}"])
            continue
        rows.append(head + [
            *(metrics.fe_norm_diff(u, i, matrix=disc.mass) for u, i in zip(solution, interps)),
            *(metrics.error_vs_exact(disc, u, e) for u, e in zip(solution, exacts)),
            "ok",
        ])
    return rows


def run_steady_sweep(config):
    case = berrone_case(config.nu)
    columns = (
        "row,degree,N,h,rho,delta,vel_l2_interp,pres_l2_interp,"
        "vel_l2_exact,pres_l2_exact,status"
    ).split(",")
    rows = []
    for degree, n, h, disc in _meshes(config):
        rows += _steady_rows(config, case, degree, n, h, disc)
    done = [row for row in rows if row[-1] == "ok"]
    for degree in config.degrees:
        for rho in config.rho_values:
            series = [row for row in done if row[1] == degree and row[4] == rho]
            rates, status = _rates(series, range(6, 10))
            rows.append(["rate", degree, "", "", rho, "", *rates, status])
    return columns, rows


# ---------------------------------------------------------------------------
# transient experiments


def _scheme_params(config, delta, dt, init):
    """The SchemeParams of one time-stepping run.  The stability probe
    steps the non-incremental scheme for ``step_budget`` steps and accepts
    dt up to 2 delta; the transient kinds accept dt > delta only with
    ``allow_unstable``."""
    probe = config.kind == "stability_probe"
    scheme = "noninc" if probe else config.scheme
    return schemes.SchemeParams(
        nu=config.nu,
        dt=dt,
        T=config.step_budget * dt if probe else config.T,
        delta=delta,
        delta2=0.0 if scheme == "inc" and config.delta2_law == "zero" else None,
        scheme=scheme,
        init=init,
        max_dt_ratio=np.inf if config.allow_unstable else 2.0 if probe else 1.0,
        tol=config.tol,
    )


def _scheme_runs(config, h):
    """SchemeParams of every run on the mesh of size ``h``, in run order:
    one per init (transient_init, transient_convergence) or one per dt/delta
    ratio (stability_probe)."""
    (rho,) = config.rho_values
    delta = steady.choose_delta(h, config.nu, rho)
    if config.kind == "stability_probe":
        return [
            _scheme_params(config, delta, ratio * delta, "stabilized_stokes")
            for ratio in config.dt_ratios
        ]
    dt = delta if config.dt_law == "equal_delta" else config.dt
    return [_scheme_params(config, delta, dt, init) for init in config.inits]


def run_transient_init(config):
    case = berrone_case(config.nu)
    columns = ["init", "N", "n", "t", "pres_l2_interp", "vel_l2_interp"]
    rows = []
    for _, n, h, disc in _meshes(config):
        # its moments depend on the mesh only, so every run of the mesh shares it
        tracker = metrics.TransientErrorTracker(disc, case)
        for result in schemes.run(_scheme_runs(config, h), case, disc, observe=tracker):
            last = len(result.records) - 1
            for i, rec in enumerate(result.records):
                if i <= 1 or i == last or i % config.record_every == 0:
                    rows.append([result.params.init, n, rec.step, rec.t, rec.pres_l2_interp,
                                 rec.vel_l2_interp])
    return columns, rows


def run_transient_convergence(config):
    """One data row per mesh and a rate row over the meshes whose run
    completed; a run that failed or diverged is recorded with its status
    and left out of the rate."""
    case = berrone_case(config.nu)
    columns = (
        "row,scheme,N,h,rho,delta,delta2,dt,steps,"
        "pres_l2_time_integrated,pres_l2_final,vel_l2_final,status"
    ).split(",")
    rows = []
    (rho,) = config.rho_values
    for _, n, h, disc in _meshes(config):
        (params,) = _scheme_runs(config, h)
        tracker = metrics.TransientErrorTracker(disc, case)
        try:
            (result,) = schemes.run([params], case, disc, observe=tracker.pres_l2_exact)
        except sparsela.LinearSolverError as exc:
            rows.append(["data", config.scheme, n, h, rho, params.delta, "", params.dt, "", "",
                         "", "", f"failed: {exc}"])
            continue
        press = metrics.discrete_time_norm(result.records[1:], params.dt)
        # a diverged run's final state is its last finite one
        final = tracker(result.final_state)
        rows.append(
            [
                "data",
                params.scheme,
                n,
                h,
                rho,
                params.delta,
                params.delta2,  # None, an empty cell, for the non-incremental scheme
                params.dt,
                final.step,
                press,
                final.pres_l2_exact,
                final.vel_l2_exact,
                "diverged" if result.diverged else "ok",
            ]
        )
    (rate,), status = _rates([row for row in rows if row[-1] == "ok"], [9])
    rows.append(["rate", config.scheme, *[""] * 7, rate, "", "", status])
    return columns, rows


def run_stability_probe(config):
    case = berrone_case(config.nu)
    columns = ["row", "N", "ratio", "n", "energy", "outcome"]
    rows = []
    for _, n, h, disc in _meshes(config):
        results = schemes.run(_scheme_runs(config, h), case, disc,
                              energy_ceiling=config.energy_ceiling)
        for ratio, result in zip(config.dt_ratios, results):
            for step, energy in enumerate(result.energies):
                rows.append(["data", n, ratio, step, energy, ""])
            outcome = "diverged" if result.diverged else "completed"
            rows.append(["summary", n, ratio, result.steps_completed, "", outcome])
    return columns, rows


_RUNNERS = {
    "steady_sweep": run_steady_sweep,
    "transient_init": run_transient_init,
    "transient_convergence": run_transient_convergence,
    "stability_probe": run_stability_probe,
}


def run_experiment(config):
    """Run the configured experiment; returns the CSV text."""
    columns, rows = _RUNNERS[config.kind](config)
    return _csv_text(config, columns, rows)


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="stokesproj",
        description="Stokes projection-scheme experiments (CSV output)",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for kind in KINDS:
        p = sub.add_parser(kind.replace("_", "-"), help=f"run the {kind} experiment")
        p.set_defaults(kind=kind)
        p.add_argument("--config", help="config file path")
        p.add_argument("--out", help="output CSV path (default: stdout)")
        p.add_argument(
            "--allow-unstable",
            action="store_true",
            default=None,
            help="permit time steps beyond the guard (dt > delta; probe ratios > 2)",
        )
    args = parser.parse_args(argv)
    overrides = {"out": args.out, "allow_unstable": args.allow_unstable}
    try:
        if args.config:
            config = parse_config(args.config, kind=args.kind, overrides=overrides)
        else:
            config = parse_config_text("", kind=args.kind, overrides=overrides)
    except (ConfigError, UnicodeDecodeError) as exc:  # a file that is not UTF-8 text
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"cannot read config: {exc}", file=sys.stderr)
        return 1
    try:
        text = run_experiment(config)
    except sparsela.LinearSolverError as exc:
        print(f"solver error: {exc}", file=sys.stderr)
        return 1
    except MemoryError as exc:
        detail = f" ({exc})" if str(exc) else ""
        print(f"solver error: out of memory{detail}; try smaller n_values", file=sys.stderr)
        return 1
    if config.out:
        try:
            with open(config.out, "w") as fh:
                fh.write(text)
        except OSError as exc:
            print(f"cannot write output: {exc}", file=sys.stderr)
            return 1
    else:
        sys.stdout.write(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
