"""Spans around georank's layers, recorded from outside the package.

`Tracer.install()` replaces every public function of the georank modules --
the module attribute, every name other modules imported it under, and the
package namespace -- and the RankEvaluator methods on the class, with
wrappers that record a span: name, start, end, parent, plus a work count
and a category taken from the arguments.  Closed-form radial profiles are
wrapped when `radial_profile` hands them out, so evaluators built after
install() are traced.  Spans stay in memory in compact arrays; `layer_metrics`
turns the spans of one round into the per-layer metrics.

A layer's self time is its spans' durations minus the time covered by their
direct child spans.
"""

import contextlib
import dataclasses
import functools
import inspect
import types
from array import array
from time import perf_counter_ns

import numpy as np

import georank
from georank import (_quadrature, cli, depth, measures, quantile, rankfield,
                     reconstruct, specfun)

MODULES = (specfun, _quadrature, measures, rankfield, quantile, reconstruct,
           depth, cli)
EVALUATOR_METHODS = ("__init__", "atoms", "rank", "rank_many",
                     "rank_derivative", "divergence", "divergence_many",
                     "jacobian")
PROFILE = "measures.profile"


def short(module_name):
    return module_name.rsplit(".", 1)[-1]


class Tracer:
    def __init__(self):
        self.names = []                  # span-name id -> name
        self._ids = {}
        self.name = array("i")
        self.parent = array("q")
        self.start = array("q")
        self.end = array("q")
        self.work = array("d")
        self.tag = array("i")            # name id of the category, -1 if none
        self._stack = []
        self._saved = []
        self.enabled = True

    def intern(self, name):
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def __len__(self):
        return len(self.name)

    # -- wrapping -------------------------------------------------------------

    def wrap(self, fn, name, hook=None):
        """fn, recording one span per call; hook(args, kwargs, result)
        returns (work, category)."""
        sid = self.intern(name)
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            stack = tracer._stack
            i = len(tracer.name)
            tracer.name.append(sid)
            tracer.parent.append(stack[-1] if stack else -1)
            tracer.work.append(0.0)
            tracer.tag.append(-1)
            stack.append(i)
            t0 = perf_counter_ns()
            tracer.start.append(t0)
            tracer.end.append(t0)
            try:
                out = fn(*args, **kwargs)
            finally:
                tracer.end[i] = perf_counter_ns()
                stack.pop()
            if hook is not None:
                work, tag = hook(args, kwargs, out)
                tracer.work[i] = work
                if tag is not None:
                    tracer.tag[i] = tracer.intern(tag)
            return out

        return traced

    def _set(self, owner, attr, value):
        self._saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self):
        wrappers = {}
        for mod in MODULES:
            for attr, fn in list(vars(mod).items()):
                if (not isinstance(fn, types.FunctionType)
                        or not fn.__module__.startswith("georank.")
                        or (attr.startswith("_") and fn is not cli._emit)):
                    continue
                if fn not in wrappers:
                    name = f"{short(fn.__module__)}.{fn.__name__}"
                    if fn is measures.radial_profile:
                        wrappers[fn] = self.wrap(self._profile_wrapper(fn),
                                                 name)
                    else:
                        wrappers[fn] = self.wrap(fn, name, _hook(name, fn))
                self._set(mod, attr, wrappers[fn])
        for attr, fn in list(vars(georank).items()):
            if isinstance(fn, types.FunctionType) and fn in wrappers:
                self._set(georank, attr, wrappers[fn])
        cls = rankfield.RankEvaluator
        for meth in EVALUATOR_METHODS:
            fn = vars(cls)[meth]
            self._set(cls, meth, self.wrap(fn, f"rankfield.RankEvaluator."
                                           f"{meth.strip('_')}",
                                           _evaluator_hook(meth)))
        return self

    def uninstall(self):
        while self._saved:
            owner, attr, value = self._saved.pop()
            setattr(owner, attr, value)

    @contextlib.contextmanager
    def installed(self):
        self.install()
        try:
            yield self
        finally:
            self.uninstall()

    def _profile_wrapper(self, radial_profile):
        tracer = self

        @functools.wraps(radial_profile)
        def wrapped(m):
            prof = radial_profile(m)
            if not tracer.enabled:
                return prof
            fields = {f.name: tracer.wrap(getattr(prof, f.name), PROFILE,
                                          _size_hook)
                      for f in dataclasses.fields(prof)
                      if callable(getattr(prof, f.name))}
            return dataclasses.replace(prof, **fields)
        return wrapped


# ---------------------------------------------------------------------------
# Work counts
# ---------------------------------------------------------------------------

def _size_hook(args, kwargs, out):
    return (float(np.size(args[0])) if args else 1.0), None


def _hook(name, fn):
    if name.startswith("specfun."):
        return _size_hook
    if name == "_quadrature.bessel_j0_integral":
        sig = inspect.signature(fn)

        def j0_nodes(args, kwargs, out):
            b = sig.bind(*args, **kwargs)
            b.apply_defaults()
            a = b.arguments
            return float(np.size(a["rho"]) * a["n_cells"] * a["n_gl"]), None
        return j0_nodes
    if name == "measures.sample":
        return lambda args, kwargs, out: (float(np.shape(out)[0]), None)
    if name in ("measures.empirical_from_csv", "cli.load_table"):
        def rows(args, kwargs, out):
            data = out.atoms if name.startswith("measures") else out[1]
            return float(data.shape[0]), None
        return rows
    if name == "depth.contour":
        def rays(args, kwargs, out):
            if out.kind != "rayfan":
                return 0.0, None
            return float(len(out.radii) + len(out.skipped)), None
        return rays
    if name == "reconstruct.poisson_smooth":
        def pairs(args, kwargs, out):
            m, pts = args[0], np.atleast_2d(args[1])
            if isinstance(m, measures.Empirical):
                return float(pts.shape[0] * m.atoms.shape[0]), "atoms"
            return 0.0, "density"
        return pairs
    if name == "cli._emit":
        return lambda args, kwargs, out: (float(len(args[1].encode())), None)
    if name in ("rankfield.sample_grid", "rankfield.fd_derivative",
                "rankfield.fd_divergence", "rankfield.fd_laplacian"):
        return lambda args, kwargs, out: (0.0, "fd")
    return None


def _evaluator_hook(meth):
    """Work of an evaluator call: points (radial mode) or point x atom pairs;
    category radial | point | batch | init."""
    def hook(args, kwargs, out):
        ev = args[0]
        if meth == "__init__":
            return 0.0, "init"
        if meth == "atoms":
            return 0.0, None
        m = (np.atleast_2d(args[1]).shape[0]
             if meth in ("rank_many", "divergence_many") else 1)
        if ev.mode == "radial":
            return float(m), "radial"
        n = ev._atoms.shape[0] if ev._atoms is not None else ev.mc_n
        return float(m * n), ("point" if m == 1 else "batch")
    return hook


# ---------------------------------------------------------------------------
# Per-round layer metrics
# ---------------------------------------------------------------------------

LAYER_METRICS = (
    "specfun.self_ms", "specfun.args", "specfun.ns_per_arg",
    "quadrature.j0_nodes", "quadrature.self_ms", "quadrature.ns_per_node",
    "measures.profile_args", "measures.profile_self_ms", "measures.sample_ms",
    "measures.csv_rows", "measures.csv_ms",
    "rankfield.batch_pairs", "rankfield.batch_ms",
    "rankfield.batch_ns_per_pair", "rankfield.point_calls",
    "rankfield.point_pairs", "rankfield.point_ns_per_pair",
    "rankfield.radial_points", "rankfield.radial_ms", "rankfield.fd_ms",
    "quantile.solves", "quantile.rank_calls_per_solve",
    "quantile.jacobian_calls_per_solve", "quantile.objective_calls_per_solve",
    "quantile.self_ms",
    "depth.rays", "depth.rank_calls_per_ray", "depth.self_ms",
    "depth.content_ms",
    "reconstruct.hankel_ms", "reconstruct.singular_ms",
    "reconstruct.singular_u_points", "reconstruct.odd_local_ms",
    "reconstruct.extension_ms", "reconstruct.self_ms",
    "reconstruct.poisson_pairs", "reconstruct.poisson_ns_per_pair",
    "cli.main_ms", "cli.read_ms", "cli.compute_ms", "cli.write_ms",
    "cli.bytes_out", "cli.write_ns_per_byte",
)

_CLI_READ = ("measures.empirical_from_csv", "cli.load_table")
_EVALUATOR = "rankfield.RankEvaluator."


def _ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(tr, lo, hi):
    """Layer metrics of the spans with index in [lo, hi): one round."""
    names = [tr.names[k] for k in tr.name[lo:hi]]
    parent = [p - lo if p >= lo else -1 for p in tr.parent[lo:hi]]
    dur = [e - s for s, e in zip(tr.start[lo:hi], tr.end[lo:hi])]
    work = tr.work[lo:hi]
    tags = [tr.names[t] if t >= 0 else None for t in tr.tag[lo:hi]]
    n = len(names)
    self_ns = list(dur)
    for i in range(n):
        if parent[i] >= 0:
            self_ns[parent[i]] -= dur[i]
    module = [s.split(".", 1)[0] for s in names]
    # an evaluator span without a category inherits its evaluator parent's
    for i in range(n):
        if tags[i] is None and names[i].startswith(_EVALUATOR):
            p = parent[i]
            if p >= 0 and names[p].startswith(_EVALUATOR):
                tags[i] = tags[p]

    def outer(i):
        """True unless the parent is a span of the same module."""
        p = parent[i]
        return p < 0 or module[p] != module[i]

    def total(pred, values):
        return float(sum(v for i, v in enumerate(values) if pred(i)))

    def ancestor(i, name):
        p = parent[i]
        while p >= 0:
            if names[p] == name:
                return True
            p = parent[p]
        return False

    def children_of(parent_name, child_names):
        return float(sum(1 for i in range(n) if names[i] in child_names
                         and parent[i] >= 0
                         and names[parent[i]] == parent_name))

    ms = 1e-6
    out = {}
    is_mod = lambda m: (lambda i: module[i] == m)
    spec_ns = total(is_mod("specfun"), self_ns)
    spec_args = total(lambda i: module[i] == "specfun" and outer(i), work)
    out["specfun.self_ms"] = spec_ns * ms
    out["specfun.args"] = spec_args
    out["specfun.ns_per_arg"] = _ratio(spec_ns, spec_args)

    is_j0 = lambda i: names[i] == "_quadrature.bessel_j0_integral"
    j0_nodes = total(is_j0, work)
    out["quadrature.j0_nodes"] = j0_nodes
    out["quadrature.self_ms"] = total(is_mod("_quadrature"), self_ns) * ms
    out["quadrature.ns_per_node"] = _ratio(total(is_j0, self_ns), j0_nodes)

    is_prof = lambda i: names[i] == PROFILE
    out["measures.profile_args"] = total(
        lambda i: is_prof(i) and (parent[i] < 0 or not is_prof(parent[i])),
        work)
    out["measures.profile_self_ms"] = total(is_prof, self_ns) * ms
    out["measures.sample_ms"] = total(
        lambda i: names[i] == "measures.sample", dur) * ms
    is_csv = lambda i: names[i] == "measures.empirical_from_csv"
    out["measures.csv_rows"] = total(is_csv, work)
    out["measures.csv_ms"] = total(is_csv, dur) * ms

    is_ev = lambda i: names[i].startswith(_EVALUATOR)
    for cat in ("batch", "point", "radial"):
        in_cat = lambda i, cat=cat: module[i] == "rankfield" and tags[i] == cat
        top = lambda i, cat=cat: is_ev(i) and tags[i] == cat and (
            parent[i] < 0 or not is_ev(parent[i]))
        cat_ns = total(in_cat, self_ns)
        cat_work = total(top, work)
        if cat == "batch":
            out["rankfield.batch_pairs"] = cat_work
            out["rankfield.batch_ms"] = cat_ns * ms
            out["rankfield.batch_ns_per_pair"] = _ratio(cat_ns, cat_work)
        elif cat == "point":
            out["rankfield.point_calls"] = total(top, [1.0] * n)
            out["rankfield.point_pairs"] = cat_work
            out["rankfield.point_ns_per_pair"] = _ratio(cat_ns, cat_work)
        else:
            out["rankfield.radial_points"] = cat_work
            out["rankfield.radial_ms"] = cat_ns * ms
    out["rankfield.fd_ms"] = total(lambda i: tags[i] == "fd", self_ns) * ms

    solves = total(lambda i: names[i] == "quantile.solve_quantile", [1.0] * n)
    rank_calls = (_EVALUATOR + "rank", _EVALUATOR + "rank_many")
    out["quantile.solves"] = solves
    out["quantile.rank_calls_per_solve"] = _ratio(
        children_of("quantile.solve_quantile", rank_calls), solves)
    out["quantile.jacobian_calls_per_solve"] = _ratio(
        children_of("quantile.solve_quantile", (_EVALUATOR + "jacobian",)),
        solves)
    out["quantile.objective_calls_per_solve"] = _ratio(
        children_of("quantile.solve_quantile", ("quantile.objective",)),
        solves)
    out["quantile.self_ms"] = total(is_mod("quantile"), self_ns) * ms

    rays = total(lambda i: names[i] == "depth.contour", work)
    out["depth.rays"] = rays
    out["depth.rank_calls_per_ray"] = _ratio(
        children_of("depth.contour", rank_calls), rays)
    out["depth.self_ms"] = total(is_mod("depth"), self_ns) * ms
    out["depth.content_ms"] = total(
        lambda i: names[i] == "depth.probability_content_surface", dur) * ms

    for key, fn in (("hankel", "reconstruct_isotropic_hankel"),
                    ("singular", "reconstruct_even_singular"),
                    ("odd_local", "reconstruct_odd_local"),
                    ("extension", "reconstruct_extension")):
        out[f"reconstruct.{key}_ms"] = total(
            lambda i, fn=fn: names[i] == f"reconstruct.{fn}", dur) * ms
    out["reconstruct.singular_u_points"] = total(
        lambda i: names[i] == _EVALUATOR + "divergence_many"
        and ancestor(i, "reconstruct.half_laplacian_singular"), work)
    out["reconstruct.self_ms"] = total(is_mod("reconstruct"), self_ns) * ms
    is_kde = lambda i: (names[i] == "reconstruct.poisson_smooth"
                        and tags[i] == "atoms")
    kde_pairs = total(is_kde, work)
    out["reconstruct.poisson_pairs"] = kde_pairs
    out["reconstruct.poisson_ns_per_pair"] = _ratio(total(is_kde, self_ns),
                                                    kde_pairs)

    is_main = lambda i: names[i] == "cli.main"
    under_main = lambda i: parent[i] >= 0 and is_main(parent[i])
    main_ns = total(is_main, dur)
    read_ns = total(lambda i: under_main(i) and names[i] in _CLI_READ, dur)
    compute_ns = total(lambda i: under_main(i) and names[i] not in _CLI_READ
                       and names[i] != "cli._emit", dur)
    write_ns = main_ns - read_ns - compute_ns
    bytes_out = total(lambda i: names[i] == "cli._emit", work)
    out["cli.main_ms"] = main_ns * ms
    out["cli.read_ms"] = read_ns * ms
    out["cli.compute_ms"] = compute_ns * ms
    out["cli.write_ms"] = write_ns * ms
    out["cli.bytes_out"] = bytes_out
    out["cli.write_ns_per_byte"] = _ratio(write_ns, bytes_out)
    return out


def write_spans(tr, path):
    """All recorded spans as tab-separated rows: index, parent, name,
    start_ns, end_ns, work, category."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("index\tparent\tname\tstart_ns\tend_ns\twork\tcategory\n")
        for i in range(len(tr)):
            tag = tr.names[tr.tag[i]] if tr.tag[i] >= 0 else ""
            fh.write(f"{i}\t{tr.parent[i]}\t{tr.names[tr.name[i]]}\t"
                     f"{tr.start[i]}\t{tr.end[i]}\t{tr.work[i]:g}\t{tag}\n")
