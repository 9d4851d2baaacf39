"""Command-line front end.

    georank <rank|quantile|reconstruct|contour|content|selftest> [flags]

Measures come from --family/--dim (closed-form radial) or --csv (empirical
atoms).  Identical flags produce bit-identical output files.  A JSON file of
flag defaults can be supplied with --config; explicitly passed flags win.

Exit codes: 0 ok, 1 selftest failure, 2 configuration error (an `-o` path
that cannot be written included), 3 numeric failure (out of memory
included), 4 solver non-convergence.
"""

import argparse
import functools
import json
import sys

import numpy as np

from . import _write
from . import selftest as selftest_mod
from .depth import contour as depth_contour
from .depth import probability_content_surface, radial_content_oracle
from .errors import (BudgetError, ConfigError, GeorankError,
                     NonConvergenceError, ParityError, ParseError)
from .measures import RadialClosedForm, _read_table, empirical_from_csv
from .quantile import QuantileQuery, solve_quantile
from .rankfield import (_GRID_NODE_CAP, RankEvaluator, _grid_nodes,
                        _pair_sums)
from .reconstruct import ReconstructionConfig, reconstruct_density

_EXIT_OK = 0
_EXIT_SELFTEST = 1
_EXIT_CONFIG = 2
_EXIT_NUMERIC = 3
_EXIT_NONCONV = 4
_FORMATS = ("csv", "json")

# flag table per subcommand: (name, type, default, help)
_COMMON_FLAGS = [
    ("--family", str, None, "closed-form family: gaussian | cauchy"),
    ("--dim", int, None, "ambient dimension d"),
    ("--csv", str, None, "empirical atoms CSV (d or d+1 numeric columns)"),
    ("--out", str, None, "output path (default: stdout)"),
    ("--format", str, "csv", "output format: csv | json"),
    ("--config", str, None, "JSON file of flag defaults; flags win"),
]

_FLAGS = {
    "rank": _COMMON_FLAGS + [
        ("--points", str, None, "CSV of evaluation points (d columns)"),
        ("--grid", str, None, "grid spec lo:hi:n per axis"),
    ],
    "quantile": _COMMON_FLAGS + [
        ("--alpha", float, None, "quantile order in [0,1)"),
        ("--direction", str, None, "unit direction, comma-separated"),
        ("--tol", float, 1e-8, "residual tolerance"),
    ],
    "reconstruct": _COMMON_FLAGS + [
        ("--method", str, None,
         "odd-local | singular | hankel | extension"),
        ("--radii", str, None, "evaluation radii a:b:step"),
        ("--points", str, None,
         "CSV of evaluation points (singular, extension)"),
        ("--reference", bool, False,
         "add closed-form density and error columns"),
        ("--eta", float, 1e-3, "inner cutoff of the singular integral"),
        ("--rmax", float, 50.0, "outer truncation radius"),
        ("--height", float, 0.01, "extension height t"),
    ],
    "contour": _COMMON_FLAGS + [
        ("--beta", float, None, "contour level in [0,1)"),
        ("--rays", int, 64, "number of rays"),
        ("--tol", float, 1e-10, "per-ray root tolerance"),
    ],
    # content writes one JSON object, and cmd_content refuses csv
    "content": [f if f[0] != "--format" else
                ("--format", str, "json", "output format: json")
                for f in _COMMON_FLAGS] + [
        ("--radius", float, None, "ball radius R"),
        ("--path", str, "analytic", "surface-integrand path: analytic | grid"),
    ],
    "selftest": [
        ("--json", bool, False, "machine-readable results array"),
        ("--out", str, None, "output path (default: stdout)"),
    ],
}


@functools.cache
def _build_parser():
    # built once per process: parse_args returns a fresh namespace per call
    parser = argparse.ArgumentParser(
        prog="georank",
        description="geometric ranks, quantiles, depth contours, and "
                    "density reconstruction from the rank field")
    sub = parser.add_subparsers(dest="command", required=True)
    for cmd, flags in _FLAGS.items():
        p = sub.add_parser(cmd, help=f"{cmd} computation")
        for name, typ, default, help_text in flags:
            aliases = ("-o", name) if name == "--out" else (name,)
            if typ is bool:
                p.add_argument(*aliases, action="store_true", default=None,
                               help=help_text)
            else:
                p.add_argument(*aliases, type=typ, default=None,
                               help=help_text)
    return parser


def _config_value(key, typ, val):
    """A --config value as its flag's type: any other value acts as its
    text would on the command line, and a boolean flag takes only true or
    false.  null is the flag's default.  A value that does not convert is a
    ConfigError naming the key."""
    if val is None or type(val) is typ:
        return val
    try:
        if typ is not bool and not isinstance(val, bool):
            return typ(str(val))
    except ValueError:
        pass
    raise ConfigError(f"--config value for {key} is not "
                      f"{'an' if typ is int else 'a'} {typ.__name__}")


def _merge_config(args):
    """Apply --config JSON defaults, then the flag-table defaults.  A key
    that names no flag of the subcommand, a value that is not of its
    flag's type, or a format other than csv and json, is a ConfigError."""
    table = {name.lstrip("-").replace("-", "_"): (typ, default)
             for name, typ, default, _ in _FLAGS[args.command]}
    cfg = {}
    if getattr(args, "config", None):
        try:
            with open(args.config, encoding="utf-8") as fh:
                cfg = json.load(fh)
        except (OSError, ValueError) as exc:
            raise ConfigError(f"cannot read --config: {exc}") from exc
        if not isinstance(cfg, dict):
            raise ConfigError("--config must hold a JSON object")
        unknown = sorted(set(cfg) - set(table))
        if unknown:
            raise ConfigError(f"--config keys that name no flag of "
                              f"{args.command}: {', '.join(unknown)}")
    merged = argparse.Namespace()
    for key, (typ, default) in table.items():
        val = getattr(args, key, None)
        if val is None:
            val = _config_value(key, typ, cfg.get(key))
        setattr(merged, key, default if val is None else val)
    if getattr(merged, "format", "csv") not in _FORMATS:
        raise ConfigError(f"--format must be csv or json, got "
                          f"{merged.format!r}")
    merged.command = args.command
    return merged


def _require(args, *names):
    for n in names:
        if getattr(args, n, None) is None:
            raise ConfigError(f"missing required flag --{n.replace('_','-')}")


def _measure(args):
    has_family = args.family is not None
    has_csv = getattr(args, "csv", None) is not None
    if has_family == has_csv:
        raise ConfigError("exactly one measure source: "
                          "--family/--dim or --csv")
    if has_family:
        _require(args, "dim")
        try:
            return RadialClosedForm(args.family, args.dim)
        except GeorankError as exc:
            raise ConfigError(str(exc)) from exc
    return empirical_from_csv(args.csv, d=getattr(args, "dim", None))


def _positive_tol(args):
    if not 0.0 < args.tol < np.inf:
        raise ConfigError(f"--tol must be positive and finite, got {args.tol}")


def _parse_range(spec, what):
    try:
        a, b, step = (float(tok) for tok in spec.split(":"))
    except ValueError as exc:
        raise ConfigError(f"bad {what} spec {spec!r}; want a:b:step") from exc
    if not np.isfinite([a, b, step]).all():
        raise ConfigError(f"bad {what} spec {spec!r}; want finite a, b and "
                          "step")
    if step <= 0 or b < a:
        raise ConfigError(f"bad {what} spec {spec!r}")
    # the length of the arange below, checked before anything is allocated
    count = np.ceil((b + step / 2.0 - a) / step)
    if not count <= _GRID_NODE_CAP:
        raise BudgetError(f"{what} spec {spec!r} asks for {count:.3g} "
                          f"values, beyond the cap of {_GRID_NODE_CAP}")
    return np.arange(a, b + step / 2.0, step)


def load_table(path, d=None):
    """Read a CSV table, such as any georank command writes, through the one
    table parser: (header cells or None, data array).  With `d`, the rows
    must have d columns."""
    names, data = _read_table(path)
    if d is not None and data.shape[1] != d:
        raise ConfigError(f"{path}: points have {data.shape[1]} columns, "
                          f"expected {d}")
    return names, data


def _emit(args, text):
    if getattr(args, "out", None):
        try:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            raise ConfigError(f"cannot write {args.out}: "
                              f"{exc.strerror or exc}") from exc
    else:
        sys.stdout.write(text)


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_rank(args):
    measure = _measure(args)
    ev = RankEvaluator(measure)
    if args.points:
        _, pts = load_table(args.points, ev.d)
    elif args.grid:
        try:
            lo, hi, n = args.grid.split(":")
            lo, hi, n = float(lo), float(hi), int(n)
            if not (np.isfinite([lo, hi]).all() and n >= 1):
                raise ValueError("want finite lo and hi, and n >= 1")
        except ValueError as exc:
            raise ConfigError(f"bad grid spec {args.grid!r}: {exc}") from exc
        if n ** ev.d > _GRID_NODE_CAP:
            raise BudgetError(f"{n}^{ev.d} grid nodes exceed the cap of "
                              f"{_GRID_NODE_CAP}")
        pts = _grid_nodes([np.linspace(lo, hi, n)] * ev.d)
    else:
        raise ConfigError("missing required flag --points or --grid")
    d = ev.d
    names = [f"x{i+1}" for i in range(d)] + [f"r{i+1}" for i in range(d)]
    payload = {"points": pts, "rank": ev.rank_many(pts)}
    if ev.profile is None:
        near = _pair_sums(pts, ev.atoms()[0], lambda _, dist, cols:
                          np.count_nonzero(dist < 1e-12, axis=1),
                          np.zeros(pts.shape[0], dtype=int))
        names.append("at_atom")
        payload["at_atom"] = (near > 0).astype(int)
    if args.format == "json":
        _emit(args, _write.json_text(payload))
    else:                            # columns in payload order
        _emit(args, _write.csv_text(names,
                                    np.column_stack(list(payload.values()))))
    return _EXIT_OK


def cmd_quantile(args):
    measure = _measure(args)
    ev = RankEvaluator(measure)
    _require(args, "alpha", "direction")
    try:
        u = np.array([float(t) for t in args.direction.split(",")])
    except ValueError as exc:
        raise ConfigError(f"bad --direction {args.direction!r}; want "
                          "comma-separated numbers") from exc
    if not np.isfinite(u).all():
        raise ConfigError(f"--direction {args.direction!r} has a component "
                          "that is not finite")
    if u.shape[0] != ev.d:
        raise ConfigError(f"direction has {u.shape[0]} components, "
                          f"measure dimension is {ev.d}")
    nrm = np.linalg.norm(u)
    if nrm == 0:
        raise ConfigError("direction must be nonzero")
    try:
        q = QuantileQuery(args.alpha, u / nrm)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    _positive_tol(args)
    x = solve_quantile(ev, q, args.tol)
    residual = float(np.linalg.norm(ev.rank(x) - q.alpha * q.u))
    if args.format == "json":
        _emit(args, _write.json_text({"quantile": x, "residual": residual}))
    else:
        names = [f"q{i+1}" for i in range(ev.d)] + ["residual"]
        _emit(args, _write.csv_text(names, [list(x) + [residual]]))
    return _EXIT_OK


def cmd_reconstruct(args):
    measure = _measure(args)
    _require(args, "method")
    ev = RankEvaluator(measure)
    radii = _parse_range(args.radii, "radii") if args.radii else None
    points = load_table(args.points, measure.d)[1] if args.points else None
    try:
        cfg = ReconstructionConfig(
            method=args.method, eta=args.eta, r_max=args.rmax,
            extension_height=args.height, radii=radii, points=points)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    rep = reconstruct_density(ev, cfg)
    if not args.reference:
        rep.f_reference = None
    if args.format == "json":
        _emit(args, _write.json_text(rep.to_json_dict()))
    else:
        _emit(args, rep.csv_text())
    return _EXIT_OK


def cmd_contour(args):
    measure = _measure(args)
    ev = RankEvaluator(measure)
    _require(args, "beta")
    if not 0.0 <= args.beta < 1.0:
        raise ConfigError("beta must lie in [0, 1)")
    if args.rays < 1:
        raise ConfigError(f"--rays must be at least 1, got {args.rays}")
    _positive_tol(args)
    c = depth_contour(ev, args.beta, n_rays=args.rays, tol=args.tol)
    if c.kind == "rayfan" and args.format != "json":
        _emit(args, c.csv_text())
    else:
        payload = c.summary()
        if c.kind == "rayfan":
            payload.update(directions=c.directions, radii=c.radii,
                           rank_norm=c.achieved)
        _emit(args, _write.json_text(payload))
    return _EXIT_OK


def cmd_content(args):
    if args.format != "json":
        raise ConfigError(f"content writes JSON; --format {args.format} "
                          "is refused")
    measure = _measure(args)
    ev = RankEvaluator(measure)
    _require(args, "radius")
    if not 0.0 <= args.radius < np.inf:
        raise ConfigError(f"--radius must be finite and at least 0, got "
                          f"{args.radius}")
    if args.path not in ("analytic", "grid"):
        raise ConfigError(f"bad --path {args.path!r}; want analytic or grid")
    if ev.d not in (1, 3):
        raise ConfigError(f"content is implemented for d = 1 or 3, got {ev.d}")
    if ev.d == 1 and args.path == "grid":
        raise ConfigError("--path grid does not apply in d = 1, where the "
                          "analytic path is exact")
    if ev.d == 3 and args.path == "analytic" and ev.profile is None:
        raise ConfigError("--path analytic needs a closed form; use grid")
    value = probability_content_surface(ev, args.radius, path=args.path)
    payload = {"radius": args.radius, "content": value, "path": args.path}
    if ev.profile is not None:
        payload["oracle"] = radial_content_oracle(measure, args.radius)
        payload["abs_error"] = abs(value - payload["oracle"])
    _emit(args, _write.json_text(payload))
    return _EXIT_OK


def cmd_selftest(args):
    passed, results, notes = selftest_mod.run_selftest()
    if getattr(args, "json", False):
        _emit(args, _write.json_text({"passed": passed, "checks": results,
                                      "notes": notes}))
    else:
        lines = []
        for c in results:
            status = "pass" if c["passed"] else "FAIL"
            lines.append(f"[{status}] {c['name']:<45s} "
                         f"err={c['error']:.3e} tol={c['tolerance']:.1e}")
        lines.append(f"{sum(c['passed'] for c in results)}/{len(results)} "
                     "checks passed")
        for note in notes:
            lines.append(f"note: {note}")
        _emit(args, "\n".join(lines) + "\n")
    return _EXIT_OK if passed else _EXIT_SELFTEST


_HANDLERS = {
    "rank": cmd_rank,
    "quantile": cmd_quantile,
    "reconstruct": cmd_reconstruct,
    "contour": cmd_contour,
    "content": cmd_content,
    "selftest": cmd_selftest,
}


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        merged = _merge_config(args)
        return _HANDLERS[merged.command](merged)
    except (ConfigError, ParityError, ParseError) as exc:
        print(f"georank: configuration error: {exc}", file=sys.stderr)
        return _EXIT_CONFIG
    except NonConvergenceError as exc:
        print(f"georank: solver did not converge: {exc}", file=sys.stderr)
        return _EXIT_NONCONV
    except (GeorankError, ValueError) as exc:
        print(f"georank: numeric failure: {exc}", file=sys.stderr)
        return _EXIT_NUMERIC
    except MemoryError:
        print("georank: numeric failure: out of memory", file=sys.stderr)
        return _EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
