"""CP decomposition of stacked task tensors via alternating least squares.

The model for a d_in × d_out × N tensor is

    T[i,j,k] ≈ Σ_r lam[r] · b_row[i,r] · c_col[j,r] · a_task[k,r]

with unit-norm columns in every factor matrix and all magnitude carried
by ``lam`` (non-negative, sorted descending).  Merging over tasks and
per-task slice reconstruction are linear in the factors and implemented
directly from this form.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .blas import single_threaded
from .containers import read_array, read_framed, require_end, require_keys, write_framed
from .tensor_core import fold, frobenius_norm, khatri_rao, stack_slices, unfold
from .svd_kernel import svd

_COND_LIMIT = 1e12  # beyond this the normal equations get a ridge
_PAIRING_DRAWS = 4  # random slice mixes tried by the "svd" init


@dataclass(frozen=True)
class AlsOptions:
    """Knobs for cp_als.

    init is "svd" (HOSVD subspaces of the unfoldings, taken from the
    eigendecompositions of their Grams, then paired; see _init_factors)
    or "random" (seeded unit columns).
    """

    max_iters: int = 200
    tol: float = 1e-8
    init: str = "svd"
    seed: int = 0

    def __post_init__(self):
        if self.max_iters < 1:
            raise ValueError(f"max_iters must be ≥ 1, got {self.max_iters}")
        if not self.tol > 0:
            raise ValueError(f"tol must be > 0, got {self.tol}")
        if self.init not in ("svd", "random"):
            raise ValueError(f"init must be 'svd' or 'random', got {self.init!r}")


@dataclass(frozen=True)
class CPFactors:
    """One layer's CP model.

    lam: length-R component weights; a_task: N×R task loadings;
    b_row: d_in×R; c_col: d_out×R; fit: 1 − relative reconstruction error
    (0.0 when never evaluated against a tensor); error_trace: per-iteration
    relative errors from the ALS run that produced this value.
    """

    rank_R: int
    lam: np.ndarray
    a_task: np.ndarray
    b_row: np.ndarray
    c_col: np.ndarray
    fit: float = 0.0
    error_trace: tuple = field(default=(), compare=False)

    def __post_init__(self):
        if self.rank_R < 1:
            raise ValueError(f"rank_R must be ≥ 1, got {self.rank_R}")
        object.__setattr__(self, "lam", np.asarray(self.lam, dtype=np.float64))
        object.__setattr__(self, "a_task", np.asarray(self.a_task, dtype=np.float64))
        object.__setattr__(self, "b_row", np.asarray(self.b_row, dtype=np.float64))
        object.__setattr__(self, "c_col", np.asarray(self.c_col, dtype=np.float64))
        R = self.rank_R
        if self.lam.shape != (R,):
            raise ValueError(f"lam must have shape ({R},), got {self.lam.shape}")
        for name in ("a_task", "b_row", "c_col"):
            m = getattr(self, name)
            if m.ndim != 2 or m.shape[1] != R:
                raise ValueError(f"{name} must have {R} columns, got shape {m.shape}")
        for name in ("lam", "a_task", "b_row", "c_col"):
            if not np.all(np.isfinite(getattr(self, name))):
                raise ValueError(f"{name} has non-finite entries")
        object.__setattr__(self, "fit", float(self.fit))
        if not 0.0 <= self.fit <= 1.0:
            raise ValueError(f"fit must lie in [0,1], got {self.fit}")

    @property
    def n_tasks(self) -> int:
        return self.a_task.shape[0]

    @property
    def d_in(self) -> int:
        return self.b_row.shape[0]

    @property
    def d_out(self) -> int:
        return self.c_col.shape[0]


def _cycling_basis(dim: int, R: int) -> np.ndarray:
    out = np.zeros((dim, R))
    out[np.arange(R) % dim, np.arange(R)] = 1.0
    return out


def _check_rank(R, shape):
    d_in, d_out, n = shape
    max_rank = min(d_in * d_out, d_in * n, d_out * n)
    if not 1 <= R <= max_rank:
        raise ValueError(f"R={R} out of range [1, {max_rank}] for shape {tuple(shape)}")


def _zero_factors(R, shape):
    d_in, d_out, n = shape
    return CPFactors(
        rank_R=R,
        lam=np.zeros(R),
        a_task=np.zeros((n, R)),
        b_row=_cycling_basis(d_in, R),
        c_col=_cycling_basis(d_out, R),
        fit=1.0,  # zero tensor fits itself perfectly
        error_trace=(0.0,),
    )


def _largest_entry_signs(f):
    """Per column: −1.0 where its largest-magnitude entry is negative, else 1.0."""
    return np.where(f[np.argmax(np.abs(f), axis=0), np.arange(f.shape[1])] < 0, -1.0, 1.0)


def _normalize_columns(f):
    norms = np.linalg.norm(f, axis=0)
    return f / np.where(norms > 0, norms, 1.0), norms


def normalize_factors(lam, a_task, b_row, c_col):
    """Canonical CP form, losslessly.

    All column norms (and lam's sign) are absorbed into a non-negative lam;
    b/c columns are flipped so their largest-magnitude entry is positive
    (compensated in a_task); components sorted by lam descending; dead
    components get zeroed loadings and canonical unit b/c columns.
    """
    lam = np.asarray(lam, dtype=np.float64).copy()
    a, na = _normalize_columns(np.asarray(a_task, dtype=np.float64))
    b, nb = _normalize_columns(np.asarray(b_row, dtype=np.float64))
    c, nc = _normalize_columns(np.asarray(c_col, dtype=np.float64))
    a = a * np.sign(lam)[np.newaxis, :]  # lam's sign rides along in a
    lam = np.abs(lam) * na * nb * nc

    dead = lam == 0
    if dead.any():
        a[:, dead] = 0.0
        b[:, dead] = 0.0
        b[0, dead] = 1.0
        c[:, dead] = 0.0
        c[0, dead] = 1.0

    sb, sc = _largest_entry_signs(b), _largest_entry_signs(c)
    b *= sb
    c *= sc
    a *= sb * sc

    order = np.argsort(-lam, kind="stable")
    return lam[order], a[:, order], b[:, order], c[:, order]


def _reconstruct_raw(lam, a, b, c, dims):
    # mode-1 identity: unfold(T,1) = B·diag(lam)·KR(A,C)ᵀ
    return fold((b * lam) @ khatri_rao(a, c).T, 1, dims)


def _ls_solve(gram, mttkrp):
    """Solve factor·gram = mttkrp; ridge kicks in when gram is near-singular."""
    R = gram.shape[0]
    c = np.linalg.cond(gram)
    if not c < _COND_LIMIT:  # also catches inf/nan
        tr = float(np.trace(gram))
        eps = 1e-10 * tr / R if tr > 0 else 1e-10
        gram = gram + eps * np.eye(R)
    return np.linalg.solve(gram, mttkrp.T).T


def _pad_columns(f, R, rng):
    """f widened to R columns with seeded random unit columns."""
    if f.shape[1] >= R:
        return f
    pad, _ = _normalize_columns(rng.standard_normal((f.shape[0], R - f.shape[1])))
    return np.hstack([f, pad])


def _leading_eigvecs(x, R):
    """The leading min(R, *x.shape) left singular vectors of x, from eigh of x·xᵀ.

    eigh of the Gram spans the same subspace as svd(x).u (HOSVD "nvecs";
    Kolda & Bader 2009, §3.4) at the cost of a small symmetric
    eigenproblem.  Columns are ordered by descending eigenvalue and each
    is flipped so its largest-magnitude entry is positive, as in svd.
    """
    _, q = np.linalg.eigh(x @ x.T)
    q = q[:, ::-1][:, : min(R, *x.shape)]
    return q * _largest_entry_signs(q)


def _init_factors(t, x1, x2, R, opts, rng):
    """Row and column factors to start from (the task factor is solved first).

    "svd" spans the leading left singular subspaces of the mode-1 and
    mode-2 unfoldings (HOSVD), taken as the leading eigenvectors of their
    Grams x1·x1ᵀ and x2·x2ᵀ (_leading_eigvecs).  Within a subspace whose
    singular values repeat, e.g. tasks of equal weight, the basis is
    arbitrary, and pairing row and column vectors from two independent
    eigendecompositions can leave ALS at a saddle.  Weighting each slice by its inner product with a
    seeded random matrix G gives a mix Σ_k w_k T_k = B·diag(lam·Aᵀw)·Cᵀ
    that does not depend on task order and has generically distinct
    singular values, so its SVD inside the two subspaces pairs them up.
    Of _PAIRING_DRAWS such mixes the one whose singular values are best
    separated wins: near-equal values would mix components again.
    """
    if opts.init == "random":
        b, _ = _normalize_columns(rng.standard_normal((x1.shape[0], R)))
        c, _ = _normalize_columns(rng.standard_normal((x2.shape[0], R)))
        return b, c
    u = _leading_eigvecs(x1, R)
    v = _leading_eigvecs(x2, R)
    best_gap, pair = -1.0, None
    for _ in range(_PAIRING_DRAWS):
        w = np.tensordot(rng.standard_normal(t.shape[:2]), t, axes=2)
        cand = svd(u.T @ (t @ w) @ v)
        s = cand.sigma
        gap = np.min(s[:-1] - s[1:], initial=s[0]) / s[0] if s[0] > 0 else 0.0
        if gap > best_gap:
            best_gap, pair = gap, cand
    return _pad_columns(u @ pair.u, R, rng), _pad_columns(v @ pair.v, R, rng)


@single_threaded()  # a context manager doubles as a decorator: each call runs inside it
def cp_als(t, R: int, opts: AlsOptions | None = None) -> CPFactors:
    """Rank-R CP fit by alternating least squares.

    Update order per iteration is task mode, then row, then column.  Each
    update is an exact least-squares solve only when its Gram matrix is
    not near singular (otherwise _ls_solve adds a ridge), and then only
    in exact arithmetic: the reconstruction error is usually, not always,
    non-increasing across iterations.  After a ridge, or from round-off
    in ill-conditioned solves once the fit is near exact, it can rise.
    Stops when the fit change drops below opts.tol or after
    opts.max_iters iterations.  Deterministic for fixed (t, R, opts).
    The whole fit runs with BLAS held to one thread (blas).
    """
    t = np.asarray(t, dtype=np.float64)
    if t.ndim != 3:
        raise ValueError(f"expected a third-order tensor, got ndim={t.ndim}")
    if not np.all(np.isfinite(t)):
        raise ValueError("cp_als: tensor has non-finite entries")
    if opts is None:
        opts = AlsOptions()
    _check_rank(R, t.shape)

    norm_t = frobenius_norm(t)
    if norm_t == 0.0:
        return _zero_factors(R, t.shape)

    x1, x2, x3 = unfold(t, 1), unfold(t, 2), unfold(t, 3)
    rng = np.random.default_rng(opts.seed)
    b, c = _init_factors(t, x1, x2, R, opts, rng)

    trace: list = []
    prev_fit = None
    for _ in range(opts.max_iters):
        a = _ls_solve((c.T @ c) * (b.T @ b), x3 @ khatri_rao(c, b))
        a, _ = _normalize_columns(a)
        b = _ls_solve((a.T @ a) * (c.T @ c), x1 @ khatri_rao(a, c))
        b, _ = _normalize_columns(b)
        c = _ls_solve((a.T @ a) * (b.T @ b), x2 @ khatri_rao(a, b))
        c, lam = _normalize_columns(c)

        err = frobenius_norm(t - _reconstruct_raw(lam, a, b, c, t.shape)) / norm_t
        trace.append(err)
        fit = 1.0 - err
        if prev_fit is not None and abs(fit - prev_fit) < opts.tol:
            break
        prev_fit = fit

    lam, a, b, c = normalize_factors(lam, a, b, c)
    return CPFactors(
        rank_R=R,
        lam=lam,
        a_task=a,
        b_row=b,
        c_col=c,
        fit=min(1.0, max(0.0, 1.0 - trace[-1])),
        error_trace=tuple(trace),
    )


def cp_als_factored(deltas, R: int, opts: AlsOptions | None = None) -> CPFactors:
    """cp_als on the stack of deltas Δ_k = s_k·A_k·B_kᵀ, fitted on a compressed core.

    deltas is a sequence of AdapterDelta (a: d_in×r_k, b: d_out×r_k).
    With the QRs [s_1A_1 … s_NA_N] = Q_A·R_A and [B_1 … B_N] = Q_B·R_B
    every slice is Q_A·G_k·Q_Bᵀ, G_k = R_A[:, k-block]·R_B[:, k-block]ᵀ.
    cp_als runs on the Σr_k × Σr_k × N core of the G_k and its row and
    column factors are lifted through Q_A and Q_B (CANDELINC; Bro &
    Andersson 1998).  Q is orthonormal, so fit and error_trace are those
    of the full stack.  A mode is compressed only when R ≤ Σr_k < its
    dimension; with neither compressed (dense-stored deltas, or R above
    Σr_k) this is cp_als on the materialized stack.
    """
    if not deltas:
        raise ValueError("need at least one delta")
    shape = (deltas[0].d_in, deltas[0].d_out, len(deltas))
    _check_rank(R, shape)
    ranks = [d.rank for d in deltas]
    shrink_a, shrink_b = (R <= sum(ranks) < dim for dim in shape[:2])
    if not (shrink_a or shrink_b):
        return cp_als(stack_slices(d.materialize() for d in deltas), R, opts)
    a = np.hstack([d.scaling_s * d.a for d in deltas])
    b = np.hstack([d.b for d in deltas])
    qa, ra = np.linalg.qr(a) if shrink_a else (None, a)
    qb, rb = np.linalg.qr(b) if shrink_b else (None, b)
    ends = np.cumsum(ranks)
    core = stack_slices(ra[:, i:j] @ rb[:, i:j].T for i, j in zip(ends - ranks, ends))
    if not np.any(core):
        return _zero_factors(R, shape)
    f = cp_als(core, R, opts)
    b_row = qa @ f.b_row if shrink_a else f.b_row
    c_col = qb @ f.c_col if shrink_b else f.c_col
    lifted = normalize_factors(f.lam, f.a_task, b_row, c_col)
    return CPFactors(R, *lifted, fit=f.fit, error_trace=f.error_trace)


def cp_reconstruct_slice(f: CPFactors, i: int) -> np.ndarray:
    """Task i's slice: Σ_r lam[r]·a_task[i,r]·b_row[:,r]·c_col[:,r]ᵀ."""
    if not 0 <= i < f.n_tasks:
        raise ValueError(f"task index {i} out of range for n_tasks={f.n_tasks}")
    return (f.b_row * (f.lam * f.a_task[i])) @ f.c_col.T


def cp_merge(f: CPFactors) -> np.ndarray:
    """Merged delta: task loadings summed per component before assembly."""
    coeff = f.lam * f.a_task.sum(axis=0)
    return (f.b_row * coeff) @ f.c_col.T


def storage_bytes(f, element_bytes: int = 4) -> int:
    """Bytes to store the factor set at the given element width.

    Accepts a single CPFactors, an iterable of them, or a mapping whose
    values are CPFactors (a per-layer factor set); collections are summed.
    """
    if isinstance(f, CPFactors):
        n_elems = f.rank_R * (1 + f.n_tasks + f.d_in + f.d_out)
        return int(n_elems) * int(element_bytes)
    values = f.values() if hasattr(f, "values") else f
    return sum(storage_bytes(v, element_bytes) for v in values)


# --- serialization (.cpf): one-line JSON header, then raw little-endian floats

_CPF_DTYPE = "<f4"  # float32 on disk, widened on load


def save_factors(f: CPFactors, path) -> None:
    arrays = {
        name: np.ascontiguousarray(getattr(f, name), dtype=_CPF_DTYPE)
        for name in ("lam", "a_task", "b_row", "c_col")
    }
    offsets = {}
    pos = 0
    for name, arr in arrays.items():
        offsets[name] = pos
        pos += arr.nbytes
    header = {
        "format": "cpf",
        "version": 1,
        "rank": f.rank_R,
        "n_tasks": f.n_tasks,
        "d_in": f.d_in,
        "d_out": f.d_out,
        "dtype": _CPF_DTYPE,
        "offsets": offsets,
        "fit": repr(float(f.fit)),
    }
    write_framed(path, header, arrays.values())


def load_factors(path) -> CPFactors:
    header, payload = read_framed(path, "cpf", _CPF_DTYPE)
    R, n, d_in, d_out, _, offsets, fit = require_keys(
        {"fit": "0.0", **header},  # fit is optional
        {"rank": int, "n_tasks": int, "d_in": int, "d_out": int, "dtype": object,
         "offsets": object, "fit": str},
        path,
    )
    shapes = {"lam": (R,), "a_task": (n, R), "b_row": (d_in, R), "c_col": (d_out, R)}
    starts = require_keys(offsets, dict.fromkeys(shapes, object), path)
    out = {
        name: read_array(payload, _CPF_DTYPE, shape, start, name, path)
        for (name, shape), start in zip(shapes.items(), starts)
    }
    require_end(payload, sum(arr.nbytes for arr in out.values()), path)
    return CPFactors(rank_R=R, fit=float(fit), **out)
