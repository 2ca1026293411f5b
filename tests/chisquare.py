"""Pearson chi^2 helpers shared by the sampler-law tests."""

import math

import numpy as np


def chi2_upper_quantile(df, tail):
    """Wilson-Hilferty approximation to the upper `tail` quantile of chi^2_df."""
    lo, hi = 0.0, 40.0  # bisect P(Z > z) = tail for the normal quantile z
    for _ in range(100):
        mid = 0.5 * (lo + hi)
        lo, hi = (mid, hi) if 0.5 * math.erfc(mid / math.sqrt(2.0)) > tail else (lo, mid)
    h = 2.0 / (9.0 * df)
    return df * (1.0 - h + lo * math.sqrt(h)) ** 3


def pearson_chi2(counts, probs):
    expected = counts.sum() * probs
    return float(np.sum((counts - expected) ** 2 / expected))


def pool_cells(counts, probs, min_expected):
    """Merge cells, smallest probability first, until each pooled cell
    expects at least `min_expected` draws; a short remainder joins the last
    pooled cell.  Returns the pooled (counts, probs)."""
    order = np.argsort(probs, kind="stable")
    need = min_expected / counts.sum()
    pooled_c, pooled_p = [], []
    c_acc, p_acc = 0.0, 0.0
    for idx in order:
        c_acc += counts[idx]
        p_acc += probs[idx]
        if p_acc >= need:
            pooled_c.append(c_acc)
            pooled_p.append(p_acc)
            c_acc, p_acc = 0.0, 0.0
    if p_acc > 0.0:
        pooled_c[-1] += c_acc
        pooled_p[-1] += p_acc
    return np.array(pooled_c), np.array(pooled_p)
