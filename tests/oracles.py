"""Independent reference implementations used to cross-check the library.

Everything here is written with explicit Python loops over matrix entries,
deliberately ignoring the vectorized formulations in the package. Slow and
simple on purpose: these are the oracles the unit tests trust.
"""
import math

import numpy as np


def marginals_oracle(p):
    """Row and column sums by explicit iteration."""
    p = np.asarray(p, dtype=float)
    nv, nl = p.shape
    pv = [sum(p[v][l] for l in range(nl)) for v in range(nv)]
    pl = [sum(p[v][l] for v in range(nv)) for l in range(nl)]
    return np.array(pv), np.array(pl)


def normalize_oracle(p):
    """Entrywise two-side normalization, zero-marginal entries left at 0."""
    p = np.asarray(p, dtype=float)
    pv, pl = marginals_oracle(p)
    out = np.zeros_like(p)
    for v in range(p.shape[0]):
        for l in range(p.shape[1]):
            if pv[v] > 0 and pl[l] > 0:
                out[v][l] = p[v][l] / math.sqrt(pv[v] * pl[l])
    return out


def text_induced_oracle(p):
    """P(v,v') marginalized over the shared language pivot, triple loop."""
    p = np.asarray(p, dtype=float)
    nv, nl = p.shape
    _, pl = marginals_oracle(p)
    out = np.zeros((nv, nv))
    for v in range(nv):
        for w in range(nv):
            for l in range(nl):
                if pl[l] > 0:
                    out[v][w] += pl[l] * (p[v][l] / pl[l]) * (p[w][l] / pl[l])
    return out


def augmentation_joint_oracle(conditional, pv):
    """P(a,a') marginalized over the shared natural parent, triple loop."""
    a = np.asarray(conditional, dtype=float)
    pv = np.asarray(pv, dtype=float)
    na, nv = a.shape
    out = np.zeros((na, na))
    for i in range(na):
        for j in range(na):
            for v in range(nv):
                out[i][j] += pv[v] * a[i][v] * a[j][v]
    return out


def scl_oracle(fv, fl, p):
    """Spectral contrastive loss as two explicit weighted sums."""
    fv, fl = np.asarray(fv, dtype=float), np.asarray(fl, dtype=float)
    p = np.asarray(p, dtype=float)
    pv, pl = marginals_oracle(p)
    positive = sum(
        p[v][l] * float(fv[v] @ fl[l])
        for v in range(p.shape[0]) for l in range(p.shape[1])
    )
    negative = sum(
        pv[v] * pl[l] * float(fv[v] @ fl[l]) ** 2
        for v in range(p.shape[0]) for l in range(p.shape[1])
    )
    return -2.0 * positive + negative


def uni_scl_oracle(f, m, pv):
    """Uni-modal spectral loss with a shared feature table."""
    f = np.asarray(f, dtype=float)
    m = np.asarray(m, dtype=float)
    pv = np.asarray(pv, dtype=float)
    n = m.shape[0]
    positive = sum(m[v][w] * float(f[v] @ f[w]) for v in range(n) for w in range(n))
    negative = sum(
        pv[v] * pv[w] * float(f[v] @ f[w]) ** 2 for v in range(n) for w in range(n)
    )
    return -2.0 * positive + negative


def amf_oracle(factor_v, factor_l, target):
    """Squared Frobenius residual of the factorization, entry by entry."""
    fv, fl = np.asarray(factor_v, dtype=float), np.asarray(factor_l, dtype=float)
    t = np.asarray(target, dtype=float)
    total = 0.0
    for v in range(t.shape[0]):
        for l in range(t.shape[1]):
            total += (t[v][l] - float(fv[v] @ fl[l])) ** 2
    return total


def empirical_scl_oracle(fv, fl, batch):
    """Batch estimator with every term divided by the original n/3."""
    fv, fl = np.asarray(fv, dtype=float), np.asarray(fl, dtype=float)
    triples = batch.n // 3
    total = 0.0
    for v, l in zip(batch.pos_visual, batch.pos_language):
        total += -2.0 * float(fv[v] @ fl[l]) / triples
    for anchor, l in zip(batch.neg_language_anchor, batch.neg_language):
        total += 0.5 * float(fv[anchor] @ fl[l]) ** 2 / triples
    for anchor, v in zip(batch.neg_visual_anchor, batch.neg_visual):
        total += 0.5 * float(fl[anchor] @ fv[v]) ** 2 / triples
    for v, l, w in zip(batch.extra_pos_visual, batch.extra_pos_language,
                       batch.extra_pos_weight):
        total += -2.0 * w * float(fv[v] @ fl[l]) / batch.extra_pos_visual.size
    return total


def labeling_error_oracle(p, labels_v, labels_l):
    """Mass on label-disagreeing pairs, double loop."""
    p = np.asarray(p, dtype=float)
    return sum(
        p[v][l]
        for v in range(p.shape[0]) for l in range(p.shape[1])
        if labels_v[v] != labels_l[l]
    )


def random_joint(rng, max_visual=12, max_language=12):
    """Small random positive joint distribution for property tests."""
    nv = int(rng.integers(2, max_visual + 1))
    nl = int(rng.integers(2, max_language + 1))
    raw = rng.gamma(2.0, size=(nv, nl)) + 1e-9
    return raw / raw.sum()
