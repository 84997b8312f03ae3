"""adapterfuse: merge libraries of low-rank adapter deltas.

Stacks per-task weight deltas into a third-order tensor, factorizes it
with CP-ALS, and merges or compresses over the task mode; ships the
classic merge baselines (uniform, task arithmetic, TIES, DARE, TSV),
SVD/CP interference diagnostics, embedding k-means for dataset
partitioning, and planted-structure generators for ground-truth testing.
"""

from .adapter_io import (
    AdapterDelta,
    AdapterLibrary,
    export_merged,
    load_library,
    save_library,
)
from .clustering import (
    ClusterModel,
    EmbeddingSet,
    assign,
    kmeans_fit,
    load_embeddings,
    partition_manifest,
    save_embeddings,
)
from .cp_decomposition import (
    AlsOptions,
    CPFactors,
    cp_als,
    cp_als_factored,
    cp_merge,
    cp_reconstruct_slice,
    load_factors,
    normalize_factors,
    save_factors,
    storage_bytes,
)
from .errors import ChecksumError, ContainerFormatError, SchemaError, ShapeMismatchError
from .interference import InterferenceReport, cp_sti, layer_profile, sti
from .merge_ops import (
    MergeConfig,
    cp_merge_layer,
    dare_transform,
    merge_deltas,
    merge_library,
    task_arithmetic,
    ties_merge,
    tsv_merge,
    uniform_merge,
)
from .svd_kernel import SvdResult, svd, truncated_approx
from .synth import (
    GroundTruth,
    PlantedSpec,
    gen_overlap_library,
    gen_planted_library,
    load_truth,
    recovery_error,
    save_truth,
)
from .tensor_core import (
    fold,
    frobenius_norm,
    khatri_rao,
    stack_slices,
    unfold,
)

__version__ = "0.1.0"
