"""CP decomposition of stacked task tensors via alternating least squares.

The model for a d_in × d_out × N tensor is

    T[i,j,k] ≈ Σ_r lam[r] · b_row[i,r] · c_col[j,r] · a_task[k,r]

with unit-norm columns in every factor matrix and all magnitude carried
by ``lam`` (non-negative, sorted descending).  Merging over tasks and
per-task slice reconstruction are linear in the factors and implemented
directly from this form.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .blas import single_threaded
from .containers import (
    as_float32,
    read_array,
    read_framed,
    require_end,
    require_keys,
    write_framed,
)
from .tensor_core import all_finite
from .svd_kernel import _largest_entry_signs, svd

_COND_LIMIT = 1e12  # beyond this the normal equations get a ridge
_PAIRING_DRAWS = 4  # random slice mixes tried by the "svd" init
_CANCEL_LIMIT = 1e-4  # below this err², read from the Grams, loses digits to cancellation
# a tensor whose largest magnitude lies outside this range is fitted scaled
# by a power of two (exact), so that its Grams and ‖T‖² neither overflow nor
# underflow
_PEAK_RANGE = (2.0**-400, 2.0**400)


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
        if self.seed < 0:
            raise ValueError(f"seed must be ≥ 0, got {self.seed}")


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
            if not all_finite(getattr(self, name)):
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


def _check_rank(R, shape, stacked_rank=None):
    """R within min(IJ, IK, JK) of the fitted tensor; a factored layer's core caps d_i at Σr_k."""
    d_in, d_out, n = shape
    note = ""
    if stacked_rank is not None:
        d_in, d_out = min(stacked_rank, d_in), min(stacked_rank, d_out)
        note = f" with Σr_k={stacked_rank}"
    max_rank = min(d_in * d_out, d_in * n, d_out * n)
    if not 1 <= R <= max_rank:
        raise ValueError(f"R={R} out of range [1, {max_rank}] for shape {tuple(shape)}{note}")


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


def _ls_solve(gram, mttkrp):
    """Solve factor·gram = mttkrp; a ridge kicks in when gram is near-singular.

    The condition number of the symmetric R×R gram is λmax/λmin of its
    eigenvalues (infinite when λmin ≤ 0), which costs less than the SVD
    of np.linalg.cond.  The solve stays LU: a solve through the
    eigenvectors leaves normal-equation residuals several times larger,
    and surplus-rank fits near an exact one then wander instead of
    stopping.
    """
    R = gram.shape[0]
    w = np.linalg.eigvalsh(gram)
    if not (w[0] > 0 and w[-1] / w[0] < _COND_LIMIT):  # also catches inf/nan
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


def _leading_eigvecs(gram, count):
    """The leading `count` eigenvectors of the symmetric gram = x·xᵀ.

    They span the leading left singular subspace of x (HOSVD "nvecs";
    Kolda & Bader 2009, §3.4) at the cost of a small symmetric
    eigenproblem.  Columns are ordered by descending eigenvalue and each
    is flipped so its largest-magnitude entry is positive, as in svd.
    """
    _, q = np.linalg.eigh(gram)
    q = q[:, ::-1][:, :count]
    return q * _largest_entry_signs(q)


def _init_factors(s, R, opts, rng):
    """Row and column factors to start from (the task factor is solved first).

    s is the tensor slice-major, s[k] = T_k.  "svd" spans the leading
    left singular subspaces of the mode-1 and mode-2 unfoldings X1 and
    X2 (HOSVD), taken as the leading eigenvectors of their Grams
    (_leading_eigvecs).  X2ᵀ is s itself, reshaped, so X2·X2ᵀ is one
    product; X1·X1ᵀ = Σ_k T_k·T_kᵀ is summed slice by slice into one
    d_in × d_in buffer, so neither Gram copies s.  Within a subspace whose
    singular values repeat, e.g. tasks of equal weight, the basis is
    arbitrary, and pairing row and column vectors from two independent
    eigendecompositions can leave ALS at a saddle.  Weighting each slice by its inner product with a
    seeded random matrix G gives a mix Σ_k w_k T_k = B·diag(lam·Aᵀw)·Cᵀ
    that does not depend on task order and has generically distinct
    singular values, so its SVD inside the two subspaces pairs them up.
    Of _PAIRING_DRAWS such mixes the one whose singular values are best
    separated wins: near-equal values would mix components again.
    """
    n, d_in, d_out = s.shape
    if opts.init == "random":
        b, _ = _normalize_columns(rng.standard_normal((d_in, R)))
        c, _ = _normalize_columns(rng.standard_normal((d_out, R)))
        return b, c
    gram, term = np.zeros((d_in, d_in)), np.empty((d_in, d_in))
    for x in s:
        gram += np.matmul(x, x.T, out=term)
    del term
    u = _leading_eigvecs(gram, min(R, d_in, d_out * n))
    del gram
    x2t = s.reshape(n * d_in, d_out)
    v = _leading_eigvecs(x2t.T @ x2t, min(R, d_out, d_in * n))
    best_gap, pair = -1.0, None
    for _ in range(_PAIRING_DRAWS):
        w = np.tensordot(s, rng.standard_normal((d_in, d_out)), axes=2)
        cand = svd(u.T @ np.tensordot(w, s, axes=1) @ v)
        sv = cand.sigma
        gap = np.min(sv[:-1] - sv[1:], initial=sv[0]) / sv[0] if sv[0] > 0 else 0.0
        if gap > best_gap:
            best_gap, pair = gap, cand
    return _pad_columns(u @ pair.u, R, rng), _pad_columns(v @ pair.v, R, rng)


def _residual(s, lam, a, b, c, norm_t):
    """‖T − M‖/‖T‖ from the dense reconstruction, built one slice at a time in one buffer."""
    r, scaled = np.empty(s.shape[1:]), np.empty_like(b)
    total = 0.0
    for x, ak in zip(s, a):
        np.matmul(np.multiply(b, lam * ak, out=scaled), c.T, out=r)
        np.subtract(x, r, out=r)
        r /= norm_t
        total += np.vdot(r, r)
    return math.sqrt(total)


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

    The fit works on one slice-major copy S (N × d_in × d_out, S_k = T_k;
    none when t is stored that way, as np.moveaxis(np.stack(slices), 0, 2)
    is), and forms no other array of its size: the peak magnitude is two
    reductions over S, and ‖T‖, the init's row Gram and the dense
    residual are each summed slice by slice.  A
    tensor whose peak lies outside _PEAK_RANGE is fitted scaled by a power
    of two, which only lam carries back, so any finite tensor fits.  Each
    iteration forms P = S·C, which gives the task MTTKRP Σ_i P[k,i,r]·B[i,r]
    and, after the task update, the row MTTKRP Σ_k a[k,r]·P[k,:,r]
    (Phan, Tichavský & Cichocki 2013).  Q = Sᵀ·B, after the row update,
    gives the column MTTKRP M2 = Σ_k a[k,r]·Q[k,:,r].  The error is read from
    the Grams, ‖T − M‖² = ‖T‖² − 2⟨T,M⟩ + ‖M‖² in units of ‖T‖², with
    ⟨T,M⟩ = Σ_r lam_r·c_r·M2_r and ‖M‖² = lamᵀ(AᵀA∗BᵀB∗CᵀC)lam (Kolda &
    Bader 2009, §3.4).  Below _CANCEL_LIMIT that difference cancels, and
    the error is read from the dense residual instead.
    """
    t = np.asarray(t, dtype=np.float64)
    if t.ndim != 3:
        raise ValueError(f"expected a third-order tensor, got ndim={t.ndim}")
    if not all_finite(t):
        raise ValueError("cp_als: tensor has non-finite entries")
    if opts is None:
        opts = AlsOptions()
    _check_rank(R, t.shape)

    s = np.ascontiguousarray(np.moveaxis(t, 2, 0))
    peak = max(float(s.max()), -float(s.min()))  # two reductions, no temporaries
    if peak == 0.0:
        return _zero_factors(R, t.shape)
    if not _PEAK_RANGE[0] <= peak <= _PEAK_RANGE[1]:
        # fit T·2⁻ᵉ, whose peak lies in [1/2, 1), and give lam back the 2ᵉ;
        # a lam beyond the float64 range is then refused by CPFactors
        e = math.frexp(peak)[1]
        f = cp_als(np.moveaxis(np.ldexp(s, -e), 0, 2), R, opts)
        with np.errstate(over="ignore"):
            lam = np.ldexp(f.lam, e)
        return CPFactors(R, lam, f.a_task, f.b_row, f.c_col, fit=f.fit,
                         error_trace=f.error_trace)
    norm_t = math.sqrt(sum(np.vdot(x, x) for x in s))

    n, d_in, d_out = s.shape
    flat = s.reshape(n * d_in, d_out)
    rng = np.random.default_rng(opts.seed)
    b, c = _init_factors(s, R, opts, rng)
    gram_b, gram_c = b.T @ b, c.T @ c

    trace: list = []
    prev_fit = None
    for _ in range(opts.max_iters):
        p = (flat @ c).reshape(n, d_in, R)
        a = _ls_solve(gram_c * gram_b, np.einsum("kir,ir->kr", p, b))
        a, _ = _normalize_columns(a)
        gram_a = a.T @ a
        b = _ls_solve(gram_a * gram_c, np.einsum("kir,kr->ir", p, a))
        del p
        b, _ = _normalize_columns(b)
        gram_b = b.T @ b
        m2 = np.einsum("kjr,kr->jr", np.matmul(s.transpose(0, 2, 1), b), a)
        c = _ls_solve(gram_a * gram_b, m2)
        c, lam = _normalize_columns(c)
        gram_c = c.T @ c

        unit = lam / norm_t
        inner = unit @ (np.einsum("jr,jr->r", c, m2) / norm_t)
        err2 = 1.0 - 2.0 * inner + unit @ (gram_a * gram_b * gram_c) @ unit
        if err2 < _CANCEL_LIMIT:
            err = _residual(s, lam, a, b, c, norm_t)
        else:
            err = math.sqrt(err2)
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


@single_threaded()  # the stacking, QRs and lift too, not only cp_als (blas)
def cp_als_factored(deltas, R: int, opts: AlsOptions | None = None) -> CPFactors:
    """cp_als on the stack of deltas Δ_k = s_k·A_k·B_kᵀ, fitted on a compressed core.

    deltas is a sequence of AdapterDelta (a: d_in×r_k, b: d_out×r_k).
    With the QRs [s_1A_1 … s_NA_N] = Q_A·R_A and [B_1 … B_N] = Q_B·R_B
    every slice is Q_A·G_k·Q_Bᵀ, G_k = R_A[:, k-block]·R_B[:, k-block]ᵀ.
    cp_als runs on the m_1 × m_2 × N core of the G_k, m_i = min(Σr_k, d_i),
    and its row and column factors are lifted through Q_A and Q_B
    (CANDELINC; Bro & Andersson 1998).  Q is orthonormal, so fit and
    error_trace are those of the full stack.  A mode is compressed
    whenever Σr_k is below its dimension, whatever R is; with neither
    compressed (dense-stored deltas, B = I) this is cp_als on the
    stack, each delta materialized straight into its slice.  R ranges up
    to the rank bound of the core (_check_rank), the most components any
    layer of this form can need (Kolda & Bader 2009, §3).
    """
    if not deltas:
        raise ValueError("need at least one delta")
    shape = (deltas[0].d_in, deltas[0].d_out, len(deltas))
    ranks = [d.rank for d in deltas]
    _check_rank(R, shape, sum(ranks))
    shrink_a, shrink_b = (sum(ranks) < dim for dim in shape[:2])
    if not (shrink_a or shrink_b):
        s = np.empty((shape[2], *shape[:2]))
        for d, out in zip(deltas, s):
            d.materialize(out=out)
        return cp_als(np.moveaxis(s, 0, 2), R, opts)
    # float32 factors widen here: under NEP 50, s · float32 stays float32
    a = np.hstack([np.multiply(d.scaling_s, d.a, dtype=np.float64) for d in deltas])
    b = np.hstack([d.b for d in deltas], dtype=np.float64)
    qa, ra = np.linalg.qr(a) if shrink_a else (None, a)
    qb, rb = np.linalg.qr(b) if shrink_b else (None, b)
    del a, b
    ends = np.cumsum(ranks)
    core = np.empty((shape[2], ra.shape[0], rb.shape[0]))
    for out, i, j in zip(core, ends - ranks, ends):
        np.matmul(ra[:, i:j], rb[:, i:j].T, out=out)
    core = np.moveaxis(core, 0, 2)
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


def storage_bytes(f) -> int:
    """Bytes the factor set's float32 entries take in a .cpf payload.

    Accepts a single CPFactors, an iterable of them, or a mapping whose
    values are CPFactors (a per-layer factor set); collections are summed.
    """
    if isinstance(f, CPFactors):
        return int(f.rank_R * (1 + f.n_tasks + f.d_in + f.d_out)) * 4
    values = f.values() if hasattr(f, "values") else f
    return sum(storage_bytes(v) for v in values)


# --- serialization (.cpf): one-line JSON header, then raw little-endian floats

_CPF_DTYPE = "<f4"  # float32 on disk, widened on load


def save_factors(f: CPFactors, path) -> None:
    arrays = {
        name: as_float32(getattr(f, name), f"factor {name}")
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
