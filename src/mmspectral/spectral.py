"""Spectral analysis of normalized co-occurrence matrices.

SVD decomposition, the closed-form optimal encoder pair it induces, the
closed-form spectrum of hierarchical random graphs, and the bound-term
report (labeling error, next singular value, dominant term, spectral gap,
feature sup-norm).
"""
from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .distributions import JointDistribution, LabelAssignment, NormalizedCooccurrence, normalize_cooccurrence
from .errors import DegenerateGap, InvalidSpec, NumericalFailure, SpectralGapZero
from .evaluation import labeling_error
from .losses import EncoderTable
from .synth import HierarchicalGraphSpec

#: hard ceiling on the SVD reconstruction residual before decompose fails
RECONSTRUCTION_TOL = 1e-6
#: two singular values closer than this leave the top-k subspace ill-defined
GAP_TOL = 1e-9


@dataclass(frozen=True)
class SpectralDecomposition:
    """Compact SVD of a normalized co-occurrence matrix.

    ``left`` (N_V x r) and ``right`` (N_L x r) have orthonormal columns,
    ``singular_values`` is sorted descending, r = min(N_V, N_L).
    """

    left: np.ndarray
    singular_values: np.ndarray
    right: np.ndarray

    def __post_init__(self):
        u = np.asarray(self.left, dtype=float)
        s = np.asarray(self.singular_values, dtype=float)
        v = np.asarray(self.right, dtype=float)
        r = s.size
        if u.ndim != 2 or v.ndim != 2 or u.shape[1] != r or v.shape[1] != r:
            raise InvalidSpec("factor shapes must agree with the singular values")
        if np.any(s < -GAP_TOL) or np.any(np.diff(s) > GAP_TOL):
            raise InvalidSpec("singular values must be non-negative and sorted descending")
        for name, mat in (("left", u), ("right", v)):
            gram = mat.T @ mat
            if np.max(np.abs(gram - np.eye(r))) > 1e-9:
                raise InvalidSpec(f"{name} factor columns must be orthonormal")
        object.__setattr__(self, "left", u)
        object.__setattr__(self, "singular_values", s)
        object.__setattr__(self, "right", v)

    @property
    def rank_bound(self) -> int:
        return self.singular_values.size


def decompose(norm: NormalizedCooccurrence) -> SpectralDecomposition:
    """Compact SVD with a reconstruction check.

    Raises NumericalFailure if the Frobenius reconstruction residual
    exceeds RECONSTRUCTION_TOL.
    """
    u, s, vt = np.linalg.svd(norm.matrix, full_matrices=False)
    resid = float(np.linalg.norm(norm.matrix - (u * s) @ vt))
    if resid > RECONSTRUCTION_TOL:
        raise NumericalFailure(f"SVD reconstruction residual {resid!r} exceeds {RECONSTRUCTION_TOL}")
    return SpectralDecomposition(left=u, singular_values=s, right=vt.T)


def _check_top_k(dec: SpectralDecomposition, k: int) -> None:
    """Refuse k past the rank bound; warn when the top-k subspace is ill-defined."""
    s = dec.singular_values
    if k < 1:
        raise InvalidSpec("embedding dimension must be >= 1")
    if k > s.size:
        raise InvalidSpec(f"k={k} exceeds the rank bound {s.size}")
    # only an interior gap can be degenerate; k == rank bound has none
    if k < s.size and s[k - 1] - s[k] < GAP_TOL:
        warnings.warn(
            f"sigma_{k} and sigma_{k + 1} coincide within {GAP_TOL}; top-{k} subspace is ill-defined",
            DegenerateGap,
        )


def optimal_encoders(norm: NormalizedCooccurrence, dec: SpectralDecomposition,
                     k: int) -> tuple[EncoderTable, EncoderTable]:
    """Closed-form minimizers of the multi-modal spectral loss, read off the
    decomposition ``dec`` of the normalized joint ``norm``.

    Visual rows are U_k D R scaled by 1/sqrt(P_V); language rows are
    V_k diag(sigma_1..k) D^-1 R scaled by 1/sqrt(P_L), for any invertible
    diagonal D and rotation R. The returned pair is the D = R = I member;
    every other member gives the same loss and probe predictions. Plugging
    them into the loss gives -(sigma_1^2 + ... + sigma_k^2), the best any
    rank-k factorization can do.
    """
    rows = (dec.left.shape[0], dec.right.shape[0])
    if rows != norm.matrix.shape:
        raise InvalidSpec(f"decomposition factor rows {rows} do not match the normalized joint {norm.matrix.shape}")
    _check_top_k(dec, k)
    visual = dec.left[:, :k] / np.sqrt(norm.marginal_visual)[:, None]
    language = (dec.right[:, :k] * dec.singular_values[:k]) / np.sqrt(norm.marginal_language)[:, None]
    return EncoderTable(visual, side="visual"), EncoderTable(language, side="language")


def hierarchical_eigenvalues(spec: HierarchicalGraphSpec) -> np.ndarray:
    """Closed-form spectrum of the hierarchical graph matrix, descending:
    1/(s_l*s_h) once, s_h*(p_h - p_l) with multiplicity s_l - 1, then
    zeros."""
    n = spec.num_samples
    vals = np.zeros(n)
    vals[0] = 1.0 / n
    vals[1:spec.s_l] = spec.s_h * (spec.p_h - spec.p_l)
    return vals


@dataclass(frozen=True)
class BoundReport:
    """Generalization-bound terms for one (instance, labels, k) triple.

    ``dominant_term`` is alpha / (1 - sigma_{k+1}^2); when the graph is
    disconnected (sigma_{k+1} = 1 within 1e-9) ``gap_zero`` is set and the
    term is the +inf sentinel. ``sigma_gap`` is
    sigma^2_{floor(3k/4)} - sigma^2_k with 1-based indices, NaN when
    floor(3k/4) < 1. ``kappa`` is the max-abs entry over both closed-form
    encoder tables at D = R = identity, and ``constant_proxy`` is
    (k*kappa + 2*k*kappa^2 + 1)^2.
    """

    alpha: float
    sigma_next: float
    dominant_term: float
    sigma_gap: float
    kappa: float
    constant_proxy: float
    dim: int
    gap_zero: bool = False

    def __post_init__(self):
        if not -1e-12 <= self.alpha <= 1.0 + 1e-12:
            raise InvalidSpec("alpha must be a rate in [0, 1]")
        if not -1e-12 <= self.sigma_next <= 1.0 + 1e-9:
            raise InvalidSpec("sigma_{k+1} must lie in [0, 1]")
        if self.dominant_term < self.alpha - 1e-12:
            raise InvalidSpec("dominant term cannot undercut alpha")


def bound_report(joint: JointDistribution, labels: LabelAssignment, k: int) -> BoundReport:
    """Assemble the bound terms for one instance.

    Needs k + 1 <= min(N_V, N_L) so that sigma_{k+1} exists. Warns
    SpectralGapZero (non-fatal) on disconnected instances.
    """
    norm = normalize_cooccurrence(joint)
    dec = decompose(norm)
    if k < 1 or k + 1 > dec.rank_bound:
        raise InvalidSpec(f"need 1 <= k and k+1 <= {dec.rank_bound}")
    alpha = labeling_error(joint, labels)
    s = dec.singular_values
    sigma_next = float(s[k])

    gap_zero = sigma_next >= 1.0 - 1e-9
    if gap_zero:
        warnings.warn(
            "sigma_{k+1} = 1 within 1e-9: disconnected graph, dominant term is infinite",
            SpectralGapZero,
        )
        dominant = math.inf
    else:
        dominant = alpha / (1.0 - sigma_next**2)

    j = (3 * k) // 4  # 1-based index floor(3k/4)
    sigma_gap = float(s[j - 1] ** 2 - s[k - 1] ** 2) if j >= 1 else math.nan

    fv, fl = optimal_encoders(norm, dec, k)
    kappa = max(float(np.max(np.abs(fv.matrix))), float(np.max(np.abs(fl.matrix))))
    constant = (k * kappa + 2.0 * k * kappa**2 + 1.0) ** 2
    return BoundReport(
        alpha=alpha, sigma_next=sigma_next, dominant_term=dominant,
        sigma_gap=sigma_gap, kappa=kappa, constant_proxy=constant,
        dim=k, gap_zero=gap_zero,
    )
