"""Start the CNTK estimator cold: empty its per-process caches."""

from channel_cntk import imputer


def clear_estimator_caches():
    """Empty the smoother-matrix and smoother caches, so the next estimate
    builds its kernels, eigendecompositions and maps W afresh. Clearing the
    smoother cache alone is not enough: a cached W is a hit whatever the
    kernel it was formed from."""
    imputer._mask_map.cache_clear()
    imputer._mask_smoother.cache_clear()
