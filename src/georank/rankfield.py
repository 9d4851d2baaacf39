"""Evaluation of the geometric rank field R(x) = E[(x-Z)/|x-Z|], its
divergence and Jacobian, plus uniform-grid sampling and centered finite
differences.

Each derivative has one source.  The Jacobian, and its trace the divergence,
is exact: the kernel's first derivative (I - u u^T)/|x - z| summed over
atoms, or the closed form's profile g and g'.  Higher derivatives are finite
differences of a sampled grid.  A sum over atoms has no pointwise density
off the atoms (for P = delta_0 the reconstruction of x/|x| is a point mass
at 0), so exact higher kernel derivatives are not evaluated; the weak form
answers there.
"""

from dataclasses import dataclass
from functools import cached_property, partial

import numpy as np

from . import _threads
from ._quadrature import _EVAL_BLOCK
from .errors import (BudgetError, DomainError, SingularityError,
                     StencilOverflowError, UnsupportedVariantError)
from .measures import (Empirical, GenericDensity, Measure, RadialClosedForm,
                       _row_norms, radial_profile, sample)

_ATOM_TOL = 1e-12
_GRID_NODE_CAP = 10_000_000


# ---------------------------------------------------------------------------
# Point x atom kernel sums
# ---------------------------------------------------------------------------

def _atom_chunks(atoms: np.ndarray, n_blk: int):
    """Yields (cols, z) per chunk of n_blk atoms of atoms (n, d): cols
    slices the atoms, and z is the chunk's coordinates, (d, 1, chunk),
    copied into one buffer that the next chunk overwrites, so no allocation
    is proportional to the cloud."""
    n, d = atoms.shape
    chunk = np.empty((d, n_blk))
    for a_lo in range(0, n, n_blk):
        cols = slice(a_lo, a_lo + n_blk)
        z = chunk[:, :min(n - a_lo, n_blk)]
        np.copyto(z, atoms[cols].T)
        yield cols, z[:, None, :]


def _pair_block(pts, rows, z, buf):
    """The block arithmetic behind every kernel sum, for the rows of pts
    (m, d) against the chunk z: the differences x_k - z_k as d contiguous
    (rows, cols) arrays, and |x - z|, both in buf, which callers may
    overwrite and the next block reuses: fresh arrays cost page faults,
    half the time of a block."""
    d = z.shape[0]
    x = pts[rows].T[:, :, None]
    shape = (x.shape[1], z.shape[2])
    size = shape[0] * shape[1]
    diff = np.subtract(x, z, out=buf[:d * size].reshape((d,) + shape))
    dist = buf[d * size:(d + 1) * size].reshape(shape)
    np.sqrt(np.einsum("kmn,kmn->mn", diff, diff, out=dist), out=dist)
    return diff, dist


def _pair_sums(pts, atoms, block_fn, out):
    """out[rows] += block_fn(diff, dist, cols) over every block of
    _pair_block, and out: the one loop over row blocks x atom chunks, at
    most _EVAL_BLOCK pairs a block.  Its callers: the many-point rank,
    divergence and Poisson sums, the one-point second-order pass, Weiszfeld
    step and nearest-atom search, and the CLI's pairs within 1e-12 (at_atom).

    Each row meets the chunks in index order, so the sums have the same
    bits as with the rows outside.  With 4 or more row blocks (fewer do not
    repay a handoff) and 2 CPUs, the helper thread of _threads takes the
    odd row blocks of each chunk into a second pair buffer, both threads
    reading the one chunk copy, and both finish before the next chunk is
    copied: every row meets the same blocks in the same order, so the bits
    are those of one thread.  block_fn runs on the helper too: private
    arithmetic and raw ufuncs only.
    """
    (m, d), n = pts.shape, atoms.shape[0]
    n_blk = max(1, min(n, _EVAL_BLOCK))
    m_blk = _EVAL_BLOCK // n_blk
    starts = range(0, m, m_blk)
    step = 2 if len(starts) >= 4 and _threads.parallel() else 1
    # the helper allocates its own buffer, in its own malloc arena: two
    # buffers freed from the caller's heap at once got it trimmed, and the
    # caller's next allocations page-faulted (192 more faults a cloud-solve
    # round)
    size = (d + 1) * min(m, m_blk) * n_blk
    bufs = [np.empty(size), None]
    for cols, z in _atom_chunks(atoms, n_blk):
        def share(k, cols=cols, z=z):
            if bufs[k] is None:
                bufs[k] = np.empty(size)
            for lo in starts[k::step]:
                rows = slice(lo, lo + m_blk)
                diff, dist = _pair_block(pts, rows, z, bufs[k])
                out[rows] += block_fn(diff, dist, cols)
        if step == 2:
            _threads.both(partial(share, 0), partial(share, 1))
        else:
            share(0)
    return out


def _rank_block(diff, dist, w):
    """One block's sum_i w_i (x - z_i)/|x - z_i|, (rows, d); the kernel
    vanishes on the diagonal x = z_i.  Overwrites diff and dist."""
    if dist.min() > 0.0:
        np.divide(1.0, dist, out=dist)
    else:
        # a point on an atom: keep its zero distance, so its term is 0
        np.divide(1.0, dist, out=dist, where=dist > 0.0)
    diff *= dist
    return (diff @ w).T


def _jacobian_block(diff, dist, w):
    """One block's sum_i w_i/|y| (I - y y^T/|y|^2), y = x - z_i, for the
    block's single point x."""
    y, r = diff[:, 0], dist[0]
    wn = w / r
    return wn.sum() * np.eye(len(y)) - (y * (wn / (r * r))) @ y.T


def _rank_sum(pts, atoms, weights):
    """sum_i w_i (x - z_i)/|x - z_i| at every row x of pts."""
    return _pair_sums(pts, atoms,
                      lambda diff, dist, cols:
                      _rank_block(diff, dist, weights[cols]),
                      np.zeros_like(pts))


def _row_blocks(m):
    """Slices of at most _EVAL_BLOCK // 2 rows covering range(m): the pieces
    in which closed-form fields are evaluated, row by row, into one
    preallocated output."""
    step = _EVAL_BLOCK // 2
    return (slice(lo, lo + step) for lo in range(0, m, step))


def _finite_points(x):
    """x as a float array; DomainError if a coordinate is nan or inf."""
    x = np.asarray(x, dtype=float)
    if not np.isfinite(x).all():
        raise DomainError("evaluation points must be finite")
    return x


_AT_ATOM = f"point within {_ATOM_TOL} of an atom; derivative undefined"


# ---------------------------------------------------------------------------
# Grid fields
# ---------------------------------------------------------------------------

def _grid_nodes(axes):
    """The nodes of the grid with these axes, row-major, shape (prod of the
    axis lengths, d): `meshgrid(*axes, indexing="ij")` stacked, bit for bit,
    written column by column without the meshgrid copies."""
    d = len(axes)
    pts = np.empty(tuple(len(ax) for ax in axes) + (d,))
    for i, ax in enumerate(axes):
        pts[..., i] = np.reshape(ax, (-1,) + (1,) * (d - 1 - i))
    return pts.reshape(-1, d)


@dataclass
class VectorGridField:
    """Field sampled on a uniform rectangular grid.

    ``values`` has shape ``shape`` for a scalar field or ``shape + (k,)`` for
    a field with k components.  Spacing is identical along every axis.
    """

    origin: np.ndarray
    spacing: float
    shape: tuple
    values: np.ndarray

    def __post_init__(self):
        self.origin = np.asarray(self.origin, dtype=float)
        self.shape = tuple(int(n) for n in self.shape)
        self.values = np.asarray(self.values, dtype=float)

    @property
    def grid_dim(self) -> int:
        return len(self.shape)

    @property
    def n_components(self) -> int:
        return 0 if self.values.ndim == len(self.shape) else self.values.shape[-1]

    def axes(self):
        return [self.origin[i] + self.spacing * np.arange(self.shape[i])
                for i in range(self.grid_dim)]

    def nodes(self) -> np.ndarray:
        """All node coordinates, row-major, shape (prod(shape), d)."""
        return _grid_nodes(self.axes())


# ---------------------------------------------------------------------------
# Rank evaluator
# ---------------------------------------------------------------------------

class RankEvaluator:
    """Evaluate the rank field of a measure.

    The constructor decides once what the field is, and every route reads
    that decision: a sum over atoms (``profile`` is None), an Empirical's
    own or the ``mc_n``-atom sample of a GenericDensity (``sampled``),
    drawn with ``seed`` on first use and once per evaluator, bit for bit
    ``Empirical(sample(measure, mc_n, seed))``; or the closed-form radial
    profile of a RadialClosedForm, which holds no atoms: ``atoms()`` and
    so the second-order pass raise UnsupportedVariantError.  A sum over
    atoms has no pointwise density.  ``mode`` names the decision.
    """

    def __init__(self, measure: Measure, mc_n: int = 200_000, seed: int = 0):
        self.measure = measure
        self.mc_n = int(mc_n)
        self.seed = int(seed)
        self._profile = self._atoms = self._weights = None
        self.sampled = isinstance(measure, GenericDensity)
        if isinstance(measure, RadialClosedForm):
            self._profile = radial_profile(measure)
        elif isinstance(measure, Empirical):
            self._atoms, self._weights = measure.atoms, measure.weights
        elif not self.sampled:
            raise UnsupportedVariantError(
                f"cannot evaluate ranks of {type(measure).__name__}")

    @property
    def mode(self) -> str:
        """The decision by name, derived and read-only: "exact", "mc" or
        "radial"."""
        if self._profile is not None:
            return "radial"
        return "mc" if self.sampled else "exact"

    @property
    def d(self) -> int:
        return self.measure.d

    @property
    def profile(self):
        """The closed-form radial profile, or None for a sum over atoms."""
        return self._profile

    def atoms(self):
        """(atoms, weights) of a sum over atoms, sampled on the first call
        for a GenericDensity."""
        if self._atoms is None:
            if self._profile is not None:
                raise UnsupportedVariantError(
                    "a closed-form radial field holds no atoms, and the "
                    "second-order pass and the quantile objective need them")
            cloud = Empirical(sample(self.measure, self.mc_n, self.seed))
            self._atoms, self._weights = cloud.atoms, cloud.weights
        return self._atoms, self._weights

    @cached_property
    def atom_norms(self) -> np.ndarray:
        """|z| of every atom of atoms(), computed once."""
        return np.linalg.norm(self.atoms()[0], axis=1)

    @cached_property
    def coordinatewise_median(self) -> np.ndarray:
        """Coordinatewise median of atoms(), computed once; read-only."""
        out = np.median(self.atoms()[0], axis=0).astype(float)
        out.flags.writeable = False
        return out

    @cached_property
    def atoms_collinear(self) -> bool:
        """Whether atoms() lie on one line (fewer than 3 atoms count as
        collinear), computed once."""
        atoms = self.atoms()[0]
        if atoms.shape[0] < 3:
            return True
        s = np.linalg.svd(atoms - atoms.mean(axis=0), compute_uv=False)
        return bool(s[1] <= 1e-12 * max(s[0], 1.0))

    # -- rank ---------------------------------------------------------------

    def rank(self, x, *, second_order: bool = False):
        """R(x).  With second_order, the triple (phi, R(x), J) from one pass
        over the atoms, with the arithmetic and order of rank_many() and
        jacobian(): phi(x) = sum_i w_i (|x - z_i| - |z_i|), whose gradient
        is R and whose Hessian is the rank Jacobian J.  J is None within
        _ATOM_TOL of an atom, where it is undefined.  Sums over atoms
        only."""
        if not second_order:
            return self.rank_many(np.asarray(x, dtype=float)[None, :])[0]
        x = _finite_points(x)
        atoms, weights = self.atoms()
        norms, d = self.atom_norms, self.d
        # phi, the chunks with a pair within _ATOM_TOL, R, J row by row
        row = np.empty(2 + d + d * d)

        def block(diff, dist, cols):
            w = weights[cols]
            row[0] = (dist[0] - norms[cols]) @ w
            row[1] = near = dist.min() < _ATOM_TOL
            row[2 + d:] = (0.0 if near else
                           _jacobian_block(diff, dist, w).ravel())
            row[2:2 + d] = _rank_block(diff, dist, w)   # overwrites dist
            return row
        out = _pair_sums(x[None, :], atoms, block, np.zeros((1, row.size)))[0]
        jac = None if out[1] else out[2 + d:].reshape(d, d)
        return float(out[0]), out[2:2 + d], jac

    def rank_many(self, pts: np.ndarray) -> np.ndarray:
        pts = _finite_points(pts)
        if self._profile is not None:
            out = np.empty_like(pts)
            for rows in _row_blocks(pts.shape[0]):
                x = pts[rows]
                np.multiply(self._profile.g_over_r(_row_norms(x))[:, None], x,
                            out=out[rows])
            return out
        return _rank_sum(pts, *self.atoms())

    # -- derivatives ----------------------------------------------------------

    def rank_derivative(self, x, alpha) -> np.ndarray:
        """d^alpha R at x for a length-d multi-index alpha with |alpha| <= 1:
        R(x), or for alpha = e_j column j of jacobian(x).  Higher orders are
        finite differences of a sampled grid (sample_grid, then
        fd_divergence or fd_laplacian)."""
        x = _finite_points(x)
        alpha = tuple(int(a) for a in alpha)
        if len(alpha) != self.d or any(a < 0 for a in alpha):
            raise ValueError(f"alpha must be a length-{self.d} multi-index")
        order = sum(alpha)
        if order > 1:
            raise ValueError("rank derivatives beyond the first order are "
                             "not evaluated pointwise; sample a grid with "
                             "sample_grid and difference it with "
                             "fd_divergence or fd_laplacian")
        return self.jacobian(x)[:, alpha.index(1)] if order else self.rank(x)

    # -- divergence / jacobian -------------------------------------------------

    def divergence(self, x) -> float:
        return float(self.divergence_many(np.asarray(x, dtype=float)[None])[0])

    def divergence_many(self, pts: np.ndarray) -> np.ndarray:
        pts = _finite_points(pts)
        if self._profile is not None:
            out = np.empty(pts.shape[0])
            for rows in _row_blocks(pts.shape[0]):
                out[rows] = self._profile.h(_row_norms(pts[rows]))
            return out
        atoms, weights = self.atoms()

        def block(_, dist, cols):
            if dist.min() < _ATOM_TOL:
                raise SingularityError(_AT_ATOM)
            return np.divide(1.0, dist, out=dist) @ weights[cols]
        return (self.d - 1) * _pair_sums(pts, atoms, block,
                                         np.zeros(pts.shape[0]))

    def jacobian(self, x) -> np.ndarray:
        """Jacobian of the rank field; symmetric positive semidefinite.  On
        atoms it is the J of the second-order pass."""
        x = _finite_points(x)
        p = self._profile
        if p is None:
            jac = self.rank(x, second_order=True)[2]
            if jac is None:
                raise SingularityError(_AT_ATOM)
            return jac
        r = float(np.linalg.norm(x))
        if r < 1e-12:
            return p.g_prime(0.0) * np.eye(self.d)
        xhat = x / r
        goverr = p.g_over_r(r)
        return (goverr * np.eye(self.d)
                + (p.g_prime(r) - goverr) * np.outer(xhat, xhat))


# ---------------------------------------------------------------------------
# Grid sampling and finite differences
# ---------------------------------------------------------------------------

def sample_grid(ev: RankEvaluator, box, n_per_axis: int) -> VectorGridField:
    """Sample the rank field on [lo, hi]^d with n_per_axis nodes per axis."""
    lo, hi = float(box[0]), float(box[1])
    if not hi > lo:
        raise ValueError("box must satisfy hi > lo")
    if n_per_axis < 5:
        raise ValueError("need at least 5 nodes per axis")
    d = ev.d
    if n_per_axis ** d > _GRID_NODE_CAP:
        raise BudgetError(
            f"{n_per_axis}^{d} nodes exceed the cap of {_GRID_NODE_CAP}")
    h = (hi - lo) / (n_per_axis - 1)
    field = VectorGridField(np.full(d, lo), h, (n_per_axis,) * d,
                            np.empty((n_per_axis,) * d + (d,)))
    pts = field.nodes()
    field.values = ev.rank_many(pts).reshape(field.shape + (d,))
    return field


_STENCILS = {
    # (derivative order, accuracy order) -> (offsets, coefficients)
    (1, 2): (np.array([-1, 0, 1]), np.array([-0.5, 0.0, 0.5])),
    (2, 2): (np.array([-1, 0, 1]), np.array([1.0, -2.0, 1.0])),
    (1, 4): (np.array([-2, -1, 0, 1, 2]),
             np.array([1 / 12, -2 / 3, 0.0, 2 / 3, -1 / 12])),
    (2, 4): (np.array([-2, -1, 0, 1, 2]),
             np.array([-1 / 12, 4 / 3, -5 / 2, 4 / 3, -1 / 12])),
}


def _apply_axis_stencil(values, axis, offsets, coeffs, scale):
    radius = int(np.max(np.abs(offsets)))
    n = values.shape[axis]
    if n - 2 * radius < 1:
        raise StencilOverflowError(
            f"axis {axis} has {n} nodes, stencil needs {2 * radius + 1}")
    out = buf = None
    for off, c in zip(offsets, coeffs):
        if c == 0.0:
            continue
        sl = [slice(None)] * values.ndim
        sl[axis] = slice(radius + off, n - radius + off)
        if out is None:
            out = c * values[tuple(sl)]
        else:
            # every later tap reuses one product buffer, summed in place
            buf = np.multiply(c, values[tuple(sl)], out=buf)
            out += buf
    out *= scale
    return out


def _axis_sum(field, values, deriv, order):
    """Sum over the grid axes k of the deriv-th centered difference of
    values(k) along k, each term cropped to the uniform interior shape."""
    if order not in (2, 4):
        raise ValueError("order must be 2 or 4")
    d = field.grid_dim
    radius = 1 if order == 2 else 2
    offsets, coeffs = _STENCILS[(deriv, order)]
    out = None
    for axis in range(d):
        comp = _apply_axis_stencil(values(axis), axis, offsets, coeffs,
                                   1.0 / field.spacing ** deriv)
        comp = comp[tuple(slice(None) if k == axis else
                          slice(radius, comp.shape[k] - radius)
                          for k in range(d))]
        if out is None:
            # contiguous, and the later terms are summed into it in place
            out = np.ascontiguousarray(comp)
        else:
            out += comp
    origin = field.origin + radius * field.spacing
    return VectorGridField(origin, field.spacing, out.shape[:d], out)


def fd_divergence(field: VectorGridField, order: int = 2) -> VectorGridField:
    """Divergence of a vector grid field; uniform crop on every axis."""
    if field.n_components != field.grid_dim:
        raise ValueError("divergence needs a d-component field on a d-grid")
    return _axis_sum(field, lambda k: field.values[..., k], 1, order)


def fd_laplacian(field: VectorGridField, order: int = 2) -> VectorGridField:
    """Laplacian (sum of pure second differences); uniform crop per axis."""
    return _axis_sum(field, lambda k: field.values, 2, order)


def _neg_laplacian(fn, pts: np.ndarray, h: float) -> np.ndarray:
    """(-Delta) fn at scattered rows of pts (m, d) by the 2d+1-point second
    difference of step h, from one call of fn on every shifted copy of pts.
    fn maps (k, d) rows to (k,) or (k, c) values."""
    d = pts.shape[1]
    e = h * np.eye(d)
    shifted = [pts] + [q for k in range(d) for q in (pts + e[k], pts - e[k])]
    f0, *nbrs = np.split(fn(np.concatenate(shifted)), 2 * d + 1)
    lap = -2.0 * d * f0
    for plus, minus in zip(nbrs[::2], nbrs[1::2]):
        lap += plus + minus
    return -lap / h ** 2
