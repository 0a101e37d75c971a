"""Independent reference implementations used to cross-check the library.

Everything here is written with explicit Python loops over matrix entries,
deliberately ignoring the vectorized formulations in the package. Slow and
simple on purpose: these are the oracles the unit tests trust.
"""
import math
from fractions import Fraction

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


def cell_oracle(cdf, u):
    """The cell of each key: the number of cdf entries at or below it,
    counted one entry at a time."""
    cells = []
    for key in u:
        count = 0
        for edge in cdf:
            if edge <= key:
                count += 1
        cells.append(count)
    return np.array(cells, dtype=int)


def mc_cells_oracle(joint, n, count, rng):
    """The cells of ``count`` Monte-Carlo batches of ``n`` draws, one row
    a batch: ``Generator.choice`` over the joint's flattened cells in one
    call, so batch b takes the stream's uniforms ``[b*n, (b+1)*n)``."""
    p = np.asarray(joint, dtype=float).ravel()
    return rng.choice(p.size, size=(count, n), p=p)


BATCH_INDEX_FIELDS = ("pos_visual", "pos_language", "neg_language", "neg_language_anchor",
                      "neg_visual", "neg_visual_anchor", "extra_pos_visual", "extra_pos_language")


def _cosine(a, b):
    na = math.sqrt(sum(x * x for x in a))
    nb = math.sqrt(sum(x * x for x in b))
    if na == 0.0 or nb == 0.0:
        return 0.0
    return sum(x * y for x, y in zip(a, b)) / (na * nb)


def nearest_oracle(index, rows):
    """Most cosine-similar other row; ties to the smallest index."""
    best = None
    for j in range(len(rows)):
        if j != index:
            sim = _cosine(rows[index], rows[j])
            if best is None or sim > best[0]:
                best = (sim, j)
    return best[1]


def strategy_oracle(batch, rows, strategy, ratio, mixing_weight):
    """A teacher-guided strategy applied to one batch, on plain lists.

    ``rows`` are the teacher's feature rows. Returns the batch's lists as
    a dict keyed by field name: integer indices, plus float
    ``extra_pos_weight``. Drops remove floor(ratio * pool size) entries,
    the earliest first among equal similarities.
    """
    out = {name: [int(x) for x in getattr(batch, name)] for name in BATCH_INDEX_FIELDS}
    out["extra_pos_weight"] = [float(w) for w in batch.extra_pos_weight]
    if strategy == "AddNewPositive":
        for v in out["pos_visual"]:
            out["extra_pos_visual"].append(v)
            out["extra_pos_language"].append(nearest_oracle(v, rows))
            out["extra_pos_weight"].append(mixing_weight)
        return out
    if strategy == "DropFalsePositive":
        lists = [("pos_visual", "pos_language")]
    else:  # the negative drops pool caption negatives, then image negatives
        lists = [("neg_language_anchor", "neg_language"), ("neg_visual", "neg_visual_anchor")]
    pool = []  # (similarity, position in the pool, list, position in the list)
    for which, (first, second) in enumerate(lists):
        for i, (a, b) in enumerate(zip(out[first], out[second])):
            pool.append((_cosine(rows[a], rows[b]), len(pool), which, i))
    drop = math.floor(ratio * len(pool))
    if strategy == "DropFalseNegative":
        ranked = sorted(pool, key=lambda e: (-e[0], e[1]))  # most similar first
    else:
        ranked = sorted(pool, key=lambda e: (e[0], e[1]))  # least similar first
    dropped = {(which, i) for _, _, which, i in ranked[:drop]}
    for which, names in enumerate(lists):
        for name in names:
            out[name] = [x for i, x in enumerate(out[name]) if (which, i) not in dropped]
    return out


def labeling_error_oracle(p, labels_v, labels_l):
    """Mass on label-disagreeing pairs, double loop."""
    p = np.asarray(p, dtype=float)
    return sum(
        p[v][l]
        for v in range(p.shape[0]) for l in range(p.shape[1])
        if labels_v[v] != labels_l[l]
    )


def spearman_oracle(a, b):
    """Spearman rho of two equal-length sequences, exactly: its sign and
    its square as a Fraction. Tied values share the mean of the ranks
    they span. None when either side is constant."""
    def ranks(x):
        return [sum(v < xi for v in x) + Fraction(sum(v == xi for v in x) + 1, 2) for xi in x]

    ra, rb = ranks(list(a)), ranks(list(b))
    ma, mb = sum(ra) / len(ra), sum(rb) / len(rb)
    cov = sum((x - ma) * (y - mb) for x, y in zip(ra, rb))
    va = sum((x - ma) ** 2 for x in ra)
    vb = sum((y - mb) ** 2 for y in rb)
    if va == 0 or vb == 0:
        return None
    return (cov > 0) - (cov < 0), cov * cov / (va * vb)


def random_joint(rng, max_visual=12, max_language=12):
    """Small random positive joint distribution for property tests."""
    nv = int(rng.integers(2, max_visual + 1))
    nl = int(rng.integers(2, max_language + 1))
    raw = rng.gamma(2.0, size=(nv, nl)) + 1e-9
    return raw / raw.sum()


def hierarchical_oracle(s_l, s_h, separation):
    """(p_l, p_h, matrix) of the hierarchical graph of a separation: the
    two probabilities by their closed forms, and the matrix filled entry by
    entry, p_h where two samples share a first-layer branch, else p_l."""
    n = s_l * s_h
    p_l = (1.0 - separation) / n**2
    p_h = (1.0 + (s_l - 1) * separation) / n**2
    m = np.empty((n, n))
    for i in range(n):
        for j in range(n):
            m[i][j] = p_h if i // s_h == j // s_h else p_l
    return p_l, p_h, m


def block_matrix_oracle(sizes, levels):
    """Nested block-constant matrix, entry by entry: entry (i, j) is
    ``levels[d]`` for the deepest d at which i and j fall in one block of
    ``prod(sizes[d:])`` samples (d = 0: every pair)."""
    n = math.prod(sizes)
    m = np.empty((n, n))
    for i in range(n):
        for j in range(n):
            depth = max(d for d in range(len(sizes)) if i // math.prod(sizes[d:]) == j // math.prod(sizes[d:]))
            m[i][j] = levels[depth]
    return m
