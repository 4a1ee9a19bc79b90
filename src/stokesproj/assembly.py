"""Assembly of the sparse matrices and load vectors behind the discrete
Stokes operators: velocity mass and stiffness, the pressure-gradient
coupling (grad psi, phi), whose negative transpose is the divergence
form (div phi, psi), and load vectors.  The operators of a space share
one evaluation of the operator rule (``_operator_rule``) and one sorted
pattern of the element DOF pairs (``_element_pattern``), on which every
element matrix is reduced in a fixed order (``_scatter``), so matrices
are bit-reproducible.  A load is assembled from a field's values at the
points of a Gauss rule and the rule's (weights, basis values,
determinants), which the loads and ``metrics.error_vs_exact`` read;
``Discretization.at_quadrature_points`` evaluates an analytic field.

One scalar space carries both fields: a velocity is two coefficient
blocks on it, a pressure one, and the velocity operators are built
block by block from the scalar basis.  Dirichlet conditions are
homogeneous, so constrained rows/columns are simply eliminated;
``restrict``/``extend`` on FeSpace translate between full and free
coefficient vectors.  ``Discretization`` assembles the operators once
per (mesh, degree) pair and each load once per analytic field; it
keeps no steady-solve data, which lives only inside a steady solve
(``steady.solve``).
"""

from dataclasses import dataclass
from functools import cached_property

import numpy as np
import scipy.sparse as sparse

from . import femspace, sparsela
from .mesh import Mesh

_FIELD_CHUNK = 1024  # triangles per evaluation of an analytic field
_FILL_CHUNK = 4096  # entries of the momentum matrix filled per scratch pass


def _geometry(mesh):
    """Per-triangle affine data: Jacobian determinants and inverse transposes."""
    p = mesh.vertices[mesh.triangles]  # (nt, 3, 2)
    jac = np.stack([p[:, 1] - p[:, 0], p[:, 2] - p[:, 0]], axis=2)  # columns are edges
    det = jac[:, 0, 0] * jac[:, 1, 1] - jac[:, 0, 1] * jac[:, 1, 0]
    inv_t = np.empty_like(jac)
    inv_t[:, 0, 0] = jac[:, 1, 1]
    inv_t[:, 0, 1] = -jac[:, 1, 0]
    inv_t[:, 1, 0] = -jac[:, 0, 1]
    inv_t[:, 1, 1] = jac[:, 0, 0]
    inv_t /= det[:, None, None]
    return det, inv_t


def _operator_rule(space):
    """The one evaluation behind every operator of ``space``: (weights
    (nq,), basis values (nq, nb), physical gradients (nt, nq, nb, 2),
    determinants (nt,)) of the degree-2 (P1) or degree-4 (P2) rule."""
    rule = femspace.quadrature(2 if space.degree == 1 else 4)
    det, inv_t = _geometry(space.mesh)
    vals, gref = femspace.basis(space.degree, rule.points)
    grads = np.einsum("tab,qib->tqia", inv_t, gref)
    return rule.weights, vals, grads, det


def _element_pattern(space):
    """The element DOF pairs (row, column) of ``space``, element-major,
    sorted once for every square operator: (order, starts, indices,
    indptr), where ``order`` is the stable sort by (row, column),
    ``starts`` the sorted position where each distinct pair begins, and
    ``indices``/``indptr`` the int32 CSR structure of the distinct pairs."""
    dofs = space.element_dofs
    nb = dofs.shape[1]
    rows = np.repeat(dofs, nb, axis=1).ravel()
    cols = np.tile(dofs, (1, nb)).ravel()
    order = np.lexsort((cols, rows))
    r, c = rows[order], cols[order]
    starts = np.flatnonzero(np.r_[True, (r[1:] != r[:-1]) | (c[1:] != c[:-1])])
    indptr = np.zeros(space.num_dofs + 1, dtype=np.int32)
    np.cumsum(np.bincount(r[starts], minlength=space.num_dofs), out=indptr[1:])
    return order, starts, c[starts].astype(np.int32), indptr


def _scatter(pattern, elem):
    """The square CSR matrix of the element matrices ``elem`` (nt, nb, nb)
    on the ``_element_pattern`` ``pattern``.  ``np.add.reduceat`` sums
    the terms a0, a1, ... of an entry, in element order, as the first
    plus the left-to-right sum of the rest, a0 + ((a1 + a2) + ...), not
    sequentially: [1, 1e16, -1e16] gives 1, where ((a0 + a1) + a2) is 0.
    (From nine terms on, numpy sums the rest pairwise; an entry of these
    meshes has at most six.)"""
    order, starts, indices, indptr = pattern
    data = np.add.reduceat(elem.ravel()[order], starts)
    return sparse.csr_array((data, indices, indptr), shape=(indptr.size - 1,) * 2)


def assemble_mass(rule, pattern):
    """Mass matrix (phi_j, phi_i) on the full (pre-elimination) space, from
    ``_operator_rule`` and ``_element_pattern`` of the space."""
    w, vals, _, det = rule
    return _scatter(pattern, np.einsum("q,qi,qj,t->tij", w, vals, vals, det))


def assemble_stiffness(rule, pattern):
    """Stiffness matrix (grad phi_j, grad phi_i) on the full space; the
    arguments as for ``assemble_mass``."""
    w, _, grads, det = rule
    return _scatter(pattern, np.einsum("q,tqia,tqja,t->tij", w, grads, grads, det))


def assemble_pressure_gradient(space, rule, pattern):
    """Coupling G with G[i, mu] = (grad psi_mu, phi_i) for vector velocity
    basis functions phi_i (x block, then y block).  Rows span the free
    velocity DOFs, columns every pressure DOF; the divergence form
    (div phi_i, psi_mu) is -G^T.  ``rule`` and ``pattern`` as for
    ``assemble_mass``: each axis block is scattered on the square
    pattern, and its free rows are kept."""
    w, vals, grads, det = rule
    fs = space.free_scalar
    return sparse.vstack(
        [_scatter(pattern, np.einsum("q,tqm,qi,t->tim", w, grads[..., axis], vals, det))[fs]
         for axis in range(2)],
        format="csr",
    )


def assemble_load(space, values, rule):
    """Load vector (f, phi_i) on the full space with ``rule``, the
    (weights, basis values, determinants) of a Gauss rule on the space's
    triangles: ``values`` holds one block of f per component, each
    (nt, nq) at the rule's points, and the load has a block for each."""
    w, vals, det = rule
    dofs = space.element_dofs.ravel()
    out = []
    for block in values:
        elem = np.einsum("q,tq,qi,t->ti", w, block, vals, det)
        # a sequential element-major sum per DOF
        out.append(np.bincount(dofs, weights=elem.ravel(), minlength=space.num_dofs))
    return np.concatenate(out)


def componentwise(matrix, x):
    """``matrix @ x`` applied to every component block of ``x``, one
    single-vector product per block; for a scalar matrix and a vector
    field, bit-identical to the product with the block-diagonal vector
    matrix."""
    return np.concatenate([matrix @ block for block in x.reshape(-1, matrix.shape[1])])


@dataclass(frozen=True, eq=False)
class Discretization:
    """The one scalar space and lazily cached operators of an equal-order
    (mesh, degree) pair; runners build one per mesh and every consumer
    shares it.

    A pressure is one coefficient block on ``space`` and a velocity two,
    so ``mass`` and ``stiffness`` serve both fields (velocity operators are
    block-diagonal and act through ``componentwise``); ``stiffness`` is the
    pressure stiffness S and ``pressure_solver`` its solver: the
    factor-free DCT-I solve for P1, the pinned factorization for P2.
    ``_free`` marks blocks on the free DOFs of one velocity component;
    ``G`` has free vector velocity rows and ``GT`` is its transpose in
    CSR form.  ``mass``, ``stiffness``, ``G`` and ``mean_weights`` are
    built together (``_operators``).  The velocity stiffness A is read
    as the free rows and columns of ``stiffness``, never copied, by the
    steady solve and by ``momentum(dt, nu)``, which forms a new
    M/dt + nu A for each time run through one cached pattern.

    Every per-mesh quantity is computed once: ``quadrature`` is the
    degree-6 rule on the triangles behind the loads and
    ``metrics.error_vs_exact``; ``load`` assembles each analytic field
    once.  No steady-solve data is kept here, neither the orbit tables
    nor the blocks: they live only inside one steady solve for all the
    delta of a mesh (``steady.solve``).  The one exception is
    the physical points of the degree-6 rule: as large as a field's
    values, they are mapped anew, a chunk of triangles at a time, for
    each field evaluated there (``at_quadrature_points``, the one place
    that maps points and evaluates a field), so that none are held
    while a saddle matrix is factored."""

    mesh: Mesh
    degree: int

    @cached_property
    def space(self):
        return femspace.build_space(self.mesh, self.degree)

    @cached_property
    def _operators(self):
        """(mass, stiffness, G, mean weights), built from one evaluation of
        the operator rule and one sorted element pattern, which are
        dropped once the four are built."""
        rule, pattern = _operator_rule(self.space), _element_pattern(self.space)
        w, vals, _, det = rule
        return (assemble_mass(rule, pattern), assemble_stiffness(rule, pattern),
                assemble_pressure_gradient(self.space, rule, pattern),
                assemble_load(self.space, np.ones((1, det.size, w.size)), (w, vals, det)))

    @property
    def mass(self):
        return self._operators[0]

    @property
    def stiffness(self):
        return self._operators[1]

    @property
    def G(self):
        return self._operators[2]

    @property
    def mean_weights(self):
        """Integrals of every basis function: the load of the constant 1,
        the weights defining the discrete mean value of a pressure."""
        return self._operators[3]

    @cached_property
    def mass_free(self):
        fs = self.space.free_scalar
        return self.mass[fs][:, fs].tocsr()

    @cached_property
    def _momentum_pattern(self):
        """(slots, indices, indptr): the CSC structure of the free block of
        the CSR pattern that ``mass`` and ``stiffness`` share (both are
        scattered on the element pattern), and for every CSC entry its
        position in their CSR data.  Every momentum matrix shares
        ``indices`` and ``indptr``, so they are read-only; ``slots`` stays
        writeable, as np.take copies read-only indices."""
        m, fs = self.mass, self.space.free_scalar
        positions = sparse.csr_matrix((np.arange(m.nnz), m.indices, m.indptr), shape=m.shape)
        csc = positions[fs][:, fs].tocsc()
        csc.indices.flags.writeable = csc.indptr.flags.writeable = False
        return csc.data, csc.indices, csc.indptr

    def momentum(self, dt, nu):
        """A fresh CSC of the momentum matrix M/dt + nu A on the free
        velocity DOFs of one component, the one place it is formed: nu A
        is gathered from the stiffness through the shared pattern
        (``_momentum_pattern``), then M/dt is added through a scratch
        array of at most ``_FILL_CHUNK`` entries, so nothing as large as
        the matrix is allocated beside its entries.  They are bit for bit
        those of ``csc_matrix(M/dt + nu A)``, as scipy scales by 1/dt too;
        the sparse sum would drop an entry that comes out exactly zero,
        which this keeps stored, but none does on these grids."""
        slots, indices, indptr = self._momentum_pattern
        h = np.empty(slots.size)
        # mode "clip": with the default "raise", np.take fills a copy of out
        np.take(self.stiffness.data, slots, out=h, mode="clip")
        h *= nu
        scratch = np.empty(min(_FILL_CHUNK, h.size))
        for lo in range(0, h.size, _FILL_CHUNK):
            part = scratch[: min(_FILL_CHUNK, h.size - lo)]
            np.take(self.mass.data, slots[lo: lo + part.size], out=part, mode="clip")
            part *= 1.0 / dt
            h[lo: lo + part.size] += part
        return sparse.csc_matrix((h, indices, indptr), shape=(indptr.size - 1,) * 2)

    @cached_property
    def GT(self):
        return self.G.T.tocsr()

    @cached_property
    def quadrature(self):
        """(weights (nq,), basis values (nq, nb), determinants (nt,)) of
        the degree-6 rule on every triangle."""
        rule = femspace.quadrature(6)
        vals, _ = femspace.basis(self.degree, rule.points)
        return rule.weights, vals, _geometry(self.mesh)[0]

    def at_quadrature_points(self, f):
        """Values of the analytic field ``f`` at the points of
        ``quadrature``, one block per component, (blocks, nt, nq): the
        reference points (xi, eta) mapped to every triangle as
        p0 + xi (p1 - p0) + eta (p2 - p0), one coordinate at a time.
        The points are mapped and ``f`` evaluated on ``_FIELD_CHUNK``
        triangles at a time, written into one array, so the
        temporaries of ``f`` stay chunk-sized; every value is the one
        that a single evaluation on all points gives."""
        xi, eta = femspace.quadrature(6).points.T
        triangles = self.mesh.triangles
        out = None
        for lo in range(0, triangles.shape[0], _FIELD_CHUNK):
            chunk = triangles[lo: lo + _FIELD_CHUNK]
            # per coordinate, the three corners of every triangle as (chunk, 1) columns
            corners = self.mesh.vertices[chunk].transpose(2, 1, 0)[..., None]
            x, y = (p0 + xi * (p1 - p0) + eta * (p2 - p0) for p0, p1, p2 in corners)
            values = femspace.field_blocks(f, x, y)
            if out is None:
                out = np.empty((values.shape[0], triangles.shape[0], xi.size))
            out[:, lo: lo + chunk.shape[0]] = values
        return out

    @cached_property
    def _loads(self):
        return {}

    def load(self, f):
        """Load vector of the analytic field ``f`` on the full space, with
        the degree-6 rule; assembled at the first request for ``f`` and
        shared, read-only, by every later one."""
        if f not in self._loads:
            vec = assemble_load(self.space, self.at_quadrature_points(f), self.quadrature)
            vec.flags.writeable = False
            self._loads[f] = vec
        return self._loads[f]

    def free_load(self, f):
        """Load vector of the analytic field ``f`` on the free DOFs."""
        return self.space.restrict(self.load(f))

    @cached_property
    def pressure_solver(self):
        if self.degree == 1:
            return sparsela.GridNeumannSolver(self.mesh.n)
        return sparsela.PinnedSingularSolver(self.stiffness)
