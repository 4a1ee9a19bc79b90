"""Experiment driver.

Subcommands (also usable programmatically through ``run_experiment``):

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
Lists are space separated.  The full grammar and all defaults are
documented in the README.

Every run writes CSV: ``#``-prefixed lines with the resolved
configuration, one column-name row, then data rows.  Output is
byte-stable for a fixed config.  Exit codes: 0 for a completed run
(recorded divergences included), 2 for configuration errors, 1 for
solver or I/O failures.
"""

import argparse
import sys
import warnings
from dataclasses import dataclass, replace

import numpy as np

from . import femspace, metrics, schemes, sparsela, steady
from .assembly import Discretization
from .mesh import build_grid, mesh_size
from .mms import berrone_case

KINDS = ("steady_sweep", "transient_init", "transient_convergence", "stability_probe")

class ConfigError(ValueError):
    pass


@dataclass(frozen=True)
class ExperimentConfig:
    """Fully resolved experiment description; see module docstring."""

    kind: str = "steady_sweep"
    nu: float = 0.01
    tol: float = 1e-10
    n_values: tuple = (20, 40, 80, 160)
    degrees: tuple = (1,)
    rho_values: tuple = (100.0,)
    delta_h2: float = None
    dt_law: str = "equal_delta"
    dt: float = None
    T: float = 6.0
    scheme: str = "noninc"
    delta2_law: str = "equal_delta"
    inits: tuple = ("stabilized_stokes", "interpolant")
    out: str = None
    allow_unstable: bool = False
    dt_ratios: tuple = (0.5, 1.0, 4.0)
    step_budget: int = 500
    energy_ceiling: float = 1e12
    record_every: int = 1


_KIND_DEFAULTS = {
    "transient_init": {
        "n_values": (20, 40, 80),
        "rho_values": (10.0,),
    },
    "transient_convergence": {
        "n_values": (20, 40, 80),
        "rho_values": (10.0,),
        "T": 0.5,
        "scheme": "inc",
        "inits": ("stabilized_stokes",),
    },
    "stability_probe": {
        "n_values": (40,),
        "rho_values": (10.0,),
    },
}

_COMMON_KEYS = {"nu", "tol", "n_values", "degrees", "out", "allow_unstable"}
_KIND_KEYS = {
    "steady_sweep": _COMMON_KEYS | {"rho_values", "delta_h2"},
    "transient_init": _COMMON_KEYS
    | {"rho_values", "delta_h2", "dt_law", "dt", "T", "scheme", "inits", "record_every"},
    "transient_convergence": _COMMON_KEYS
    | {
        "rho_values",
        "delta_h2",
        "dt_law",
        "dt",
        "T",
        "scheme",
        "delta2_law",
        "inits",
        "record_every",
    },
    "stability_probe": _COMMON_KEYS
    | {"rho_values", "delta_h2", "dt_ratios", "step_budget", "energy_ceiling"},
}


def _finite(text):
    value = float(text)
    if not np.isfinite(value):
        raise ValueError(f"{text!r} is not a finite number")
    return value


_PARSERS = {
    "nu": _finite,
    "tol": _finite,
    "delta_h2": _finite,
    "dt": _finite,
    "T": _finite,
    "energy_ceiling": _finite,
    "step_budget": int,
    "record_every": int,
    "dt_law": str,
    "scheme": str,
    "delta2_law": str,
    "out": str,
    "n_values": lambda s: tuple(int(tok) for tok in s.split()),
    "degrees": lambda s: tuple(int(tok) for tok in s.split()),
    "rho_values": lambda s: tuple(_finite(tok) for tok in s.split()),
    "dt_ratios": lambda s: tuple(_finite(tok) for tok in s.split()),
    "inits": lambda s: tuple(s.split()),
    "allow_unstable": lambda s: {"true": True, "false": False}[s.lower()],
}


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

    ``kind`` (e.g. from the CLI subcommand) overrides the file's
    ``experiment`` key; ``overrides`` is a mapping of final field
    overrides (CLI flags).  An empty file yields the all-defaults
    steady_sweep configuration.
    """
    with open(path) as fh:
        text = fh.read()
    return parse_config_text(text, kind=kind, overrides=overrides)


def parse_config_text(text, kind=None, overrides=None):
    file_kind = None
    top = {}
    sections = {k: {} for k in KINDS}
    seen = set()
    for lineno, section, key, value in _parse_lines(text):
        if section is None and key == "experiment":
            if value not in KINDS:
                raise ConfigError(f"line {lineno}: unknown experiment kind {value!r}")
            file_kind = value
            continue
        scope_keys = _COMMON_KEYS if section is None else _KIND_KEYS[section]
        if key not in scope_keys:
            where = "top level" if section is None else f"section [{section}]"
            raise ConfigError(f"line {lineno}: unknown key {key!r} in {where}")
        if (section, key) in seen:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        seen.add((section, key))
        try:
            parsed = _PARSERS[key](value)
        except (ValueError, KeyError) as exc:
            raise ConfigError(f"line {lineno}: bad value for {key!r}: {value!r}") from exc
        (top if section is None else sections[section])[key] = parsed

    resolved_kind = kind or file_kind or "steady_sweep"
    values = dict(_KIND_DEFAULTS.get(resolved_kind, {}))
    values.update(top)
    values.update(sections[resolved_kind])
    if overrides:
        values.update({k: v for k, v in overrides.items() if v is not None})
    config = replace(ExperimentConfig(kind=resolved_kind), **values)
    validate_config(config)
    return config


def validate_config(config):
    if config.kind not in KINDS:
        raise ConfigError(f"unknown experiment kind {config.kind!r}")
    if config.nu <= 0:
        raise ConfigError("nu must be positive")
    if config.tol <= 0:
        raise ConfigError("tol must be positive")
    if config.energy_ceiling < 1:
        # a multiple of the initial energy: below 1 flags decaying runs
        raise ConfigError("energy_ceiling must be >= 1")
    if not config.n_values or any(n < 1 for n in config.n_values):
        raise ConfigError("n_values must be positive integers")
    for key in ("degrees", "rho_values", "dt_ratios"):
        if not getattr(config, key):
            raise ConfigError(f"{key} must not be empty")
    if any(d not in (1, 2) for d in config.degrees):
        raise ConfigError("degrees must be chosen from {1, 2}")
    if config.delta_h2 is not None and config.delta_h2 <= 0:
        # delta_h2 = c means delta = c h^2, equivalent to rho = 1/sqrt(nu c)
        raise ConfigError("delta_h2 must be positive")
    if config.dt_law not in ("equal_delta", "fixed"):
        raise ConfigError(f"unknown dt law {config.dt_law!r}")
    if config.dt_law == "fixed" and (config.dt is None or config.dt <= 0):
        raise ConfigError("dt law 'fixed' needs a positive dt")
    if config.scheme not in schemes.SCHEMES:
        raise ConfigError(f"unknown scheme {config.scheme!r}")
    if config.delta2_law not in ("equal_delta", "zero"):
        raise ConfigError(f"unknown delta2 law {config.delta2_law!r}")
    if not config.inits or any(i not in schemes.INITS for i in config.inits):
        raise ConfigError(f"inits must be chosen from {schemes.INITS}")
    if config.record_every < 1 or config.step_budget < 1:
        raise ConfigError("record_every and step_budget must be >= 1")
    if any(rho <= 0 for rho in config.rho_values):
        raise ConfigError("rho_values must be positive")
    if config.kind == "steady_sweep":
        return
    if len(config.degrees) != 1:
        raise ConfigError(f"{config.kind} runs one element degree; give one, not a list")
    if config.kind == "transient_convergence" and len(config.inits) != 1:
        raise ConfigError("transient_convergence runs one init; give one, not a list")
    if len(_rho_list(config)) != 1:
        raise ConfigError(
            f"{config.kind} uses a single stabilization law; give one rho "
            "(or delta_h2), not a list"
        )
    # the runners step with exactly these parameters, so a config that
    # passes here cannot fail the guard or the T/dt check at run time
    for n in config.n_values:
        try:
            for params in _scheme_runs(config, n):
                params.check_guard()
                params.num_steps()
        except schemes.SchemeGuardError as exc:
            raise ConfigError(
                f"N = {n}: {exc}. Set allow_unstable (or pass --allow-unstable) "
                "to run it anyway."
            ) from exc
        except ValueError as exc:
            raise ConfigError(f"N = {n}: {exc}") from exc


def _rho_list(config):
    if config.delta_h2 is not None:
        return (1.0 / np.sqrt(config.nu * config.delta_h2),)
    return config.rho_values


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
    """Round-trippable textual form of a config (parse_config_text inverse)."""
    lines = [f"experiment = {config.kind}", f"[{config.kind}]"]
    for key in sorted(_KIND_KEYS[config.kind]):
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


def _resolve_deltas(config, n):
    h = 1.0 / n
    out = []
    for rho in _rho_list(config):
        out.append((rho, steady.choose_delta(h, config.nu, rho)))
    return out


# ---------------------------------------------------------------------------
# steady sweep


def run_steady_sweep(config):
    case = berrone_case(config.nu)
    columns = (
        "row,degree,N,h,rho,delta,vel_l2_interp,pres_l2_interp,"
        "vel_l2_exact,pres_l2_exact,status"
    ).split(",")
    data_rows = []
    series = {}
    for degree in config.degrees:
        for n in config.n_values:
            grid = build_grid(n)
            h = mesh_size(grid)
            disc = Discretization(grid, degree)
            space = disc.space
            ops = steady.SteadyOperators(disc)
            rhs_v = ops.load(case.steady_forcing)
            interp_v = femspace.interpolate(space, case.steady_velocity)
            interp_p = femspace.interpolate(space, case.steady_pressure)
            for rho, delta in _resolve_deltas(config, n):
                try:
                    sol = ops.solve(config.nu, delta, rhs_v, tol=config.tol)
                    errors = {
                        "vel_l2_interp": metrics.fe_norm_diff(
                            sol.velocity, interp_v, matrix=disc.mass
                        ),
                        "pres_l2_interp": metrics.fe_norm_diff(
                            sol.pressure, interp_p, matrix=disc.mass
                        ),
                        "vel_l2_exact": metrics.error_vs_exact(
                            space, sol.velocity, case.steady_velocity
                        ),
                        "pres_l2_exact": metrics.error_vs_exact(
                            space, sol.pressure, case.steady_pressure
                        ),
                    }
                    status = "ok"
                except sparsela.LinearSolverError as exc:
                    errors = None
                    status = f"failed: {exc}"
                row = ["data", degree, n, h, rho, delta]
                if errors is None:
                    row += ["", "", "", ""]
                else:
                    row += [errors[c] for c in columns[6:10]]
                    series.setdefault((degree, rho), []).append((h, errors))
                data_rows.append(row + [status])

    rate_rows = []
    for degree in config.degrees:
        for rho in _rho_list(config):
            pts = series.get((degree, rho), [])
            row = ["rate", degree, "", "", rho, ""]
            if len(pts) >= 2:
                hs = [h for h, _ in pts]
                for col in columns[6:10]:
                    row.append(metrics.observed_rate([e[col] for _, e in pts], hs))
                row.append("ok")
            else:
                row += ["", "", "", "", "insufficient data for a rate"]
            rate_rows.append(row)
    return columns, data_rows + rate_rows


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
        allow_dt_up_to_2delta=probe or config.allow_unstable,
        allow_unstable=config.allow_unstable,
        tol=config.tol,
    )


def _scheme_runs(config, n):
    """SchemeParams of every run on mesh ``n``, in run order: one per init
    (transient_init, transient_convergence) or one per dt/delta ratio
    (stability_probe)."""
    ((_, delta),) = _resolve_deltas(config, n)
    if config.kind == "stability_probe":
        return [
            _scheme_params(config, delta, ratio * delta, "stabilized_stokes")
            for ratio in config.dt_ratios
        ]
    dt = delta if config.dt_law == "equal_delta" else config.dt
    return [_scheme_params(config, delta, dt, init) for init in config.inits]


def _recorded(records, every):
    last = len(records) - 1
    for i, rec in enumerate(records):
        if i <= 1 or i == last or i % every == 0:
            yield rec


def run_transient_init(config):
    case = berrone_case(config.nu)
    columns = ["init", "N", "n", "t", "pres_l2_interp", "vel_l2_interp"]
    rows = []
    (degree,) = config.degrees
    for n in config.n_values:
        disc = Discretization(build_grid(n), degree)
        # its moments depend on the mesh only, so every run of the mesh shares it
        tracker = metrics.TransientErrorTracker(disc, case)
        for result in schemes.run(_scheme_runs(config, n), case, disc, observe=tracker):
            for rec in _recorded(result.records, config.record_every):
                rows.append(
                    [result.params.init, n, rec.step, rec.t, rec.pres_l2_interp,
                     rec.vel_l2_interp]
                )
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
    (degree,) = config.degrees
    (rho,) = _rho_list(config)
    hs, discrete_errors = [], []
    for n in config.n_values:
        grid = build_grid(n)
        h = mesh_size(grid)
        (params,) = _scheme_runs(config, n)
        disc = Discretization(grid, degree)
        tracker = metrics.TransientErrorTracker(disc, case)
        last = []

        def pressure_error(state):
            last[:] = [state]
            return tracker.pres_l2_exact(state)

        try:
            (result,) = schemes.run([params], case, disc, observe=pressure_error)
        except sparsela.LinearSolverError as exc:
            rows.append(["data", config.scheme, n, h, rho, params.delta, "", params.dt, "", "",
                         "", "", f"failed: {exc}"])
            continue
        resolved = result.params
        press = metrics.discrete_time_norm(result.records[1:], resolved.dt)
        # the full errors of the last state observed: a diverged run's
        # last finite one
        final = tracker(last[0])
        rows.append(
            [
                "data",
                resolved.scheme,
                n,
                h,
                rho,
                resolved.delta,
                "" if resolved.delta2 is None else resolved.delta2,
                resolved.dt,
                final.step,
                press,
                final.pres_l2_exact,
                final.vel_l2_exact,
                "diverged" if result.diverged else "ok",
            ]
        )
        if not result.diverged:
            hs.append(h)
            discrete_errors.append(press)
    rate_row = ["rate", config.scheme, "", "", "", "", "", "", ""]
    if len(discrete_errors) >= 2:
        rate_row += [metrics.observed_rate(discrete_errors, hs), "", "", "ok"]
    else:
        rate_row += ["", "", "", "insufficient data for a rate"]
    rows.append(rate_row)
    return columns, rows


def run_stability_probe(config):
    case = berrone_case(config.nu)
    columns = ["row", "N", "ratio", "n", "energy", "outcome"]
    rows = []
    (degree,) = config.degrees
    for n in config.n_values:
        disc = Discretization(build_grid(n), degree)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            results = schemes.run(_scheme_runs(config, n), case, disc,
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
    for command, kind in (
        ("steady-sweep", "steady_sweep"),
        ("transient-init", "transient_init"),
        ("transient-convergence", "transient_convergence"),
        ("stability-probe", "stability_probe"),
    ):
        p = sub.add_parser(command, help=f"run the {kind} experiment")
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
    except ConfigError as exc:
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
