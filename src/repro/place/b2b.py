"""Bound-to-bound (B2B) quadratic net model.

Implements the Spindler-Schlichtmann-Johannes B2B model: for each net,
the extreme pins on an axis connect to every other pin with weight
``w_net * 2 / ((p - 1) * distance)``, which makes the quadratic
objective equal HPWL at the linearisation point.  The resulting sparse
SPD system is solved per axis with conjugate gradients.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np
import scipy.sparse as sp

from repro import perf

try:  # pragma: no cover - exercised whenever scipy provides the kernel
    from scipy.sparse import _sparsetools as _spt

    _CSR_MATVEC = _spt.csr_matvec
except ImportError:  # pragma: no cover - older/newer scipy layout
    _CSR_MATVEC = None

#: Minimum pin separation (microns) used in B2B weights.  Clamping at
#: roughly one cell pitch keeps coincident pins (e.g. seeded starts
#: where a whole cluster sits at one point) from creating near-rigid
#: springs that spreading cannot pull apart.
MIN_SEPARATION = 1.0


def b2b_edges(
    pin_vertex: np.ndarray,
    net_offsets: np.ndarray,
    net_weights: np.ndarray,
    coords: np.ndarray,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Build B2B edges for one axis at the current linearisation point.

    Returns ``(u, v, w)`` arrays of graph edges.  Vectorized: pins are
    sorted per net by coordinate; the first/last pin of each net is the
    boundary pin.

    ``coords`` may be a ``(B, n)`` batch: the rows' edges are then
    concatenated row after row, with vertex ``i`` of row ``b`` numbered
    ``b * n + i`` (an index into ``coords.ravel()``), which is the
    stacked system :func:`solve_axis` takes.  Each row is built on its
    own: the per-net sort dominates and gains nothing from stacking.
    """
    if np.ndim(coords) == 2:
        us, vs, ws = zip(
            *(b2b_edges(pin_vertex, net_offsets, net_weights, row) for row in coords)
        )
        shifts = np.arange(len(coords)) * coords.shape[1]
        return (
            np.concatenate([u + shift for u, shift in zip(us, shifts)]),
            np.concatenate([v + shift for v, shift in zip(vs, shifts)]),
            np.concatenate(ws),
        )
    num_nets = len(net_offsets) - 1
    if num_nets == 0:
        empty = np.zeros(0)
        return empty.astype(np.int64), empty.astype(np.int64), empty

    pin_net = np.repeat(np.arange(num_nets, dtype=np.int64), np.diff(net_offsets))
    pin_coord = coords[pin_vertex]
    order = np.lexsort((pin_coord, pin_net))
    sv = pin_vertex[order]  # vertices sorted by (net, coord)
    pno = pin_net[order]

    starts = net_offsets[:-1]
    ends = net_offsets[1:] - 1
    degrees = np.diff(net_offsets)

    min_vertex = sv[starts]
    max_vertex = sv[ends]

    # Edge set: (min, p) for p != min, and (max, p) for p != max, over
    # the sorted pin order; plus the direct (min, max) edge counted once.
    u_list = []
    v_list = []
    w_list = []

    inv_deg = 2.0 / np.maximum(degrees - 1, 1)
    pin_weight = (net_weights * inv_deg)[pno]
    pin_min = min_vertex[pno]
    pin_max = max_vertex[pno]
    coord_sorted = pin_coord[order]
    min_coord = coord_sorted[starts][pno]
    max_coord = coord_sorted[ends][pno]

    # Connect every non-boundary pin to both boundary pins.
    is_first = np.zeros(len(sv), dtype=bool)
    is_first[starts] = True
    is_last = np.zeros(len(sv), dtype=bool)
    is_last[ends] = True
    inner = ~(is_first | is_last)

    # inner -> min
    d = np.maximum(np.abs(coord_sorted - min_coord), MIN_SEPARATION)
    u_list.append(sv[inner])
    v_list.append(pin_min[inner])
    w_list.append((pin_weight / d)[inner])
    # inner -> max
    d = np.maximum(np.abs(max_coord - coord_sorted), MIN_SEPARATION)
    u_list.append(sv[inner])
    v_list.append(pin_max[inner])
    w_list.append((pin_weight / d)[inner])
    # min -> max, once per net
    span = np.maximum(np.abs(coord_sorted[ends] - coord_sorted[starts]), MIN_SEPARATION)
    u_list.append(min_vertex)
    v_list.append(max_vertex)
    w_list.append(net_weights * inv_deg / span)

    u = np.concatenate(u_list)
    v = np.concatenate(v_list)
    w = np.concatenate(w_list)
    keep = u != v
    return u[keep], v[keep], w[keep]


def solve_axis(
    u: np.ndarray,
    v: np.ndarray,
    w: np.ndarray,
    coords: np.ndarray,
    fixed: np.ndarray,
    anchor_targets: Optional[np.ndarray] = None,
    anchor_weights: Optional[np.ndarray] = None,
    cg_tol: float = 1e-6,
    cg_maxiter: int = 300,
) -> np.ndarray:
    """Solve the quadratic system for one axis.

    Args:
        u, v, w: B2B edges.
        coords: Current coordinates (used as the CG starting point and
            as the value of fixed vertices): ``(n,)``, or a ``(B, n)``
            batch whose edges number vertices ``b * n + i`` (see
            :func:`b2b_edges`).
        fixed: ``(n,)`` fixed-vertex mask, shared by every row.
        anchor_targets: Optional per-vertex pseudo-net anchor targets
            (shaped like ``coords``).
        anchor_weights: Per-vertex anchor weights (0 disables),
            broadcast against ``coords``.

    Returns:
        New coordinate array shaped like ``coords`` (fixed entries
        unchanged).

    A batch is solved as one block-diagonal system.  Each row's entries
    keep the relative order they have in a single-row solve (the
    bincounts and the CSR assembly add them in that order) and the
    solver reduces per row, so every row's solution is bit-identical to
    solving it alone.
    """
    rows = np.asarray(coords, dtype=float).reshape(-1, np.shape(coords)[-1])
    batch, n = rows.shape
    movable = ~fixed
    m_ids = np.nonzero(movable)[0]
    nm = len(m_ids)
    if nm == 0:
        return np.array(coords, dtype=float)
    # Unknown of movable vertex b * n + i is b * nm + (rank of i).
    m_index = np.full(n, -1, dtype=np.int64)
    m_index[m_ids] = np.arange(nm)
    m_index = (m_index + np.arange(batch)[:, None] * nm).ravel()
    movable = np.tile(movable, batch)
    flat = rows.ravel()
    size = batch * nm

    mu = movable[u]
    mv = movable[v]

    # movable-movable edges
    both = mu & mv
    iu = m_index[u[both]]
    iv = m_index[v[both]]
    ww = w[both]

    # movable-fixed edges contribute to diagonal and RHS.
    mask_uf = mu & ~mv
    mask_fu = mv & ~mu
    ii_uf = m_index[u[mask_uf]]
    ii_fu = m_index[v[mask_fu]]
    ww_uf = w[mask_uf]
    ww_fu = w[mask_fu]

    # One bincount accumulates each bin sequentially in element order,
    # matching the historical np.add.at call sequence bit for bit.
    diag = np.bincount(
        np.concatenate([iu, iv, ii_uf, ii_fu]),
        weights=np.concatenate([ww, ww, ww_uf, ww_fu]),
        minlength=size,
    )
    b = np.bincount(
        np.concatenate([ii_uf, ii_fu]),
        weights=np.concatenate(
            [ww_uf * flat[v[mask_uf]], ww_fu * flat[u[mask_fu]]]
        ),
        minlength=size,
    )

    # anchors (pseudo nets to spreading targets / seed positions)
    if anchor_targets is not None and anchor_weights is not None:
        aw = np.broadcast_to(anchor_weights, rows.shape)[:, m_ids].ravel()
        diag += aw
        b += aw * np.reshape(anchor_targets, rows.shape)[:, m_ids].ravel()

    start = rows[:, m_ids]
    # Guard isolated vertices (no edges, no anchors).
    isolated = diag <= 0
    if isolated.any():
        diag[isolated] = 1.0
        b[isolated] = start.ravel()[isolated]

    unknowns = np.arange(size)
    data, indices, indptr = _assemble_csr(
        np.concatenate([iu, iv, unknowns]),
        np.concatenate([iv, iu, unknowns]),
        np.concatenate([-ww, -ww, diag]),
        size,
    )

    solution = _jacobi_pcg(
        data,
        indices,
        indptr,
        diag.reshape(batch, nm),
        b.reshape(batch, nm),
        start,
        rtol=cg_tol,
        maxiter=cg_maxiter,
    )
    out = rows.copy()
    out[:, m_ids] = solution
    return out.reshape(np.shape(coords))


def _assemble_csr(
    rows: np.ndarray, cols: np.ndarray, vals: np.ndarray, n: int
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """COO triplets -> deduplicated CSR arrays.

    Matches ``sp.coo_matrix(...).tocsr()`` bit-for-bit: entries are
    stable-sorted by (row, col) — the order scipy's row bucketing plus
    stable column sort produces — and duplicates summed left-to-right
    in that order (``np.add.reduceat`` over the tiny duplicate groups
    reduces sequentially, like ``csr_sum_duplicates``).  Skipping the
    coo_matrix construction avoids per-solve scipy validation overhead
    that rivals the solve itself on small systems.
    """
    # One stable argsort on the fused (row, col) key replaces the
    # two-pass lexsort; same order (row-major, column-minor, ties in
    # input order), about half the sorting cost.
    key = rows * np.int64(n) + cols
    order = np.argsort(key, kind="stable")
    k_sorted = key[order]
    v_sorted = vals[order]
    first = np.empty(len(k_sorted), dtype=bool)
    first[0] = True
    np.not_equal(k_sorted[1:], k_sorted[:-1], out=first[1:])
    starts = np.nonzero(first)[0]
    data = np.add.reduceat(v_sorted, starts)
    keys = k_sorted[starts]
    indices = keys % n
    counts = np.bincount(keys // n, minlength=n)
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(counts, out=indptr[1:])
    return data, indices, indptr


def _jacobi_pcg(
    data: np.ndarray,
    indices: np.ndarray,
    indptr: np.ndarray,
    diag: np.ndarray,
    b: np.ndarray,
    x0: np.ndarray,
    rtol: float = 1e-6,
    maxiter: int = 300,
) -> np.ndarray:
    """Jacobi-preconditioned conjugate gradients on a CSR SPD system.

    Same recurrence and stopping rule as ``scipy.sparse.linalg.cg``
    (residual norm <= rtol * ||b||), but bypassing scipy's per-call
    dispatch: the matvec goes straight to the ``csr_matvec`` kernel
    (identical arithmetic to ``A.dot``) into a reused buffer, and norms
    are ``sqrt(v . v)`` — exactly what ``np.linalg.norm`` computes for
    1-D input, minus the wrapper.  On the small virtual-die systems the
    V-P&R sweep solves by the hundreds, that dispatch dominated solve
    time.

    ``diag``, ``b`` and ``x0`` may be ``(B, m)``: ``B`` independent
    systems stacked block-diagonally in one ``B*m`` CSR matrix, solved
    in lockstep.  Every scalar of the recurrence is a per-row ``(B,)``
    vector; dot products are per-row ``np.vecdot`` (the same BLAS dot a
    1-D ``a @ c`` makes), and a row that meets its stopping rule is
    frozen while the others continue, so each row's iterates, solution
    and iteration count equal solving that system alone.  A zero-RHS
    row is solved by zero (scipy.cg's special case) and, like before,
    not counted as a solve.

    ``diag`` is the matrix diagonal (the B2B Laplacian keeps every
    diagonal entry strictly positive).
    """
    shape = np.shape(b)
    b = np.reshape(b, (-1, shape[-1]))
    batch, m = b.shape
    size = batch * m
    inv_diag = 1.0 / np.reshape(diag, b.shape)
    x = np.array(np.reshape(x0, b.shape), dtype=float)
    solving = b.any(axis=1)
    x[~solving] = 0.0
    if _CSR_MATVEC is not None:
        buffer = np.zeros(size)

        def matvec(vec: np.ndarray) -> np.ndarray:
            buffer[:] = 0.0
            _CSR_MATVEC(size, size, indptr, indices, data, vec.ravel(), buffer)
            return buffer.reshape(batch, m)

    else:  # pragma: no cover - fallback for exotic scipy builds
        matrix = sp.csr_matrix((data, indices, indptr), shape=(size, size))

        def matvec(vec: np.ndarray) -> np.ndarray:
            return matrix.dot(vec.ravel()).reshape(batch, m)

    r = b - matvec(x)
    atol = rtol * np.sqrt(np.vecdot(b, b))
    active = solving.copy()
    rho_prev = np.ones(batch)
    p = None
    iterations = np.zeros(batch, dtype=np.int64)
    # Frozen rows keep computing throwaway values; never warn on them.
    with np.errstate(all="ignore"):
        for _ in range(maxiter):
            active &= ~(np.sqrt(np.vecdot(r, r)) < atol)
            z = inv_diag * r
            rho = np.vecdot(r, z)
            # Exact-zero residual with atol == 0: converged.
            active &= rho != 0.0
            if not active.any():
                break
            if p is None:
                p = z.copy()
            else:
                p = z + (rho / rho_prev)[:, None] * p
            Ap = matvec(p)
            alpha = (rho / np.vecdot(p, Ap))[:, None]
            if active.all():
                x += alpha * p
                r -= alpha * Ap
            else:
                live = np.nonzero(active)[0]
                x[live] += alpha[live] * p[live]
                r[live] -= alpha[live] * Ap[live]
            rho_prev = rho
            iterations += active
    # Solver-effort counters for the perf/telemetry layers (no-ops
    # while disabled); a CG iteration blow-up is the first symptom of
    # an ill-conditioned B2B system (coincident pins, bad anchors).
    solves = int(solving.sum())
    if solves:
        perf.count("b2b.solves", solves)
        perf.count("b2b.cg_iterations", int(iterations.sum()))
    return x.reshape(shape)
