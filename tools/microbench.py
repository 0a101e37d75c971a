"""Time the primitives sampled training spends its time in.

    python3 tools/microbench.py

Prints the median microseconds per call, over 7 repeats, of:

- ``sample_batch``, ``empirical_scl``, ``empirical_scl_grad`` and
  ``apply_strategy`` for each strategy (the drops at ratio 0.5, so that
  each drops something) on one 12-draw batch of an 8 x 8 joint with k = 3
  tables and an 8 x 3 teacher;
- ``BatchSampler.draw_chunk`` (the training stream), the draw loop
  ``BatchSampler._cell_blocks`` unshuffled (the Monte-Carlo stream) and
  ``empirical_scl_batches`` per batch at the ``verify-equivalence``
  defaults (``mean_batches`` batches of ``batch_size`` draws from a 6 x 8
  joint with k = 3 tables): each stream's draw alone, and the path its
  Monte-Carlo work unit takes;
- the parts of one Monte-Carlo draw block there (273 batches of 30):
  its uniforms, their cells through the bin table, the pairs' score
  lookups and the losses. Each call takes the next of 8 blocks, so that
  no part runs twice in a row on the same data;
- ``BatchSampler.draw_chunk`` per batch on the first seed's pruned
  ``resample-compare`` joint at its batch size and step count, a joint too
  large for the sampler's bin table, so every draw is searched;
- one sampled ``train_sscl`` step at the ``resample-compare`` defaults,
  without and with each strategy: a whole run divided by its steps. The
  timed runs repeat one run, so they reuse its memoised draws, as the
  strategy runs of one ``resample-compare`` seed do.

The package is imported from the ``src`` of the checkout this script sits
in, with one BLAS thread, as ``perfbench/run.py`` pins it. Run it in two
checkouts one after the other to compare them.
"""
import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import itertools  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import timeit  # noqa: E402
from pathlib import Path  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import numpy as np  # noqa: E402

from mmspectral import (  # noqa: E402
    BatchSampler, EncoderTable, JointDistribution, ResampleConfig, apply_strategy, empirical_scl,
    empirical_scl_batches, empirical_scl_grad, normalize_cooccurrence, sample_batch, train_sscl,
)
from mmspectral.experiments import SUITES, _resample_instance  # noqa: E402
from mmspectral.losses import _CHUNK_ENTRIES, _TRIPLE_COLUMNS, _cell_scores, _triple_losses  # noqa: E402
from mmspectral.train import STRATEGIES  # noqa: E402

REPEATS = 7


def per_call_us(fn, number: int) -> float:
    """Median over ``REPEATS`` of the mean time of ``number`` calls, in us."""
    times = timeit.Timer(fn).repeat(repeat=REPEATS, number=number)
    return statistics.median(times) / number * 1e6


def single_batch_cases():
    rng = np.random.default_rng(0)
    joint = JointDistribution.from_counts(rng.gamma(1.0, size=(8, 8)))
    fv, fl = rng.standard_normal((8, 3)), rng.standard_normal((8, 3))
    teacher = EncoderTable(rng.standard_normal((8, 3)))
    batch = sample_batch(joint, 12, seed=0)
    yield "sample_batch", lambda: sample_batch(joint, 12, seed=0)
    yield "empirical_scl", lambda: empirical_scl(fv, fl, batch)
    yield "empirical_scl_grad", lambda: empirical_scl_grad(fv, fl, batch)
    for strategy in STRATEGIES:
        cfg = ResampleConfig(strategy, ratio=None if strategy == "AddNewPositive" else 0.5)
        yield f"apply_strategy {strategy}", lambda cfg=cfg: apply_strategy(batch, teacher, cfg)


def mc_loss_instance():
    """A 6 x 8 joint, k = 3 tables and the ``verify-equivalence`` sampler
    and mean batch count."""
    params = SUITES["verify-equivalence"].defaults
    rng = np.random.default_rng(0)
    joint = JointDistribution.from_counts(rng.gamma(2.0, size=(6, 8)))
    fv, fl = rng.standard_normal((6, 3)), rng.standard_normal((8, 3))
    return fv, fl, BatchSampler(joint, params["batch_size"]), params["mean_batches"]


def mc_loss_cases():
    """(name, one call over the ``verify-equivalence`` mean batches, their
    count): the draw alone on the training stream and on the Monte-Carlo
    stream, then the Monte-Carlo draw and the losses."""
    fv, fl, sampler, count = mc_loss_instance()
    yield "draw_chunk", lambda: sampler.draw_chunk(np.random.default_rng(71), count), count
    yield "cell blocks unshuffled", lambda: list(sampler._cell_blocks(np.random.default_rng(71), count, False)), count
    yield "empirical_scl_batches", lambda: empirical_scl_batches(fv, fl, sampler, np.random.default_rng(71),
                                                                 count), count


def mc_block_parts(blocks: int = 8):
    """(name, one call) for each part of a full Monte-Carlo draw block at
    the ``verify-equivalence`` defaults, each call on the next of
    ``blocks`` drawn blocks: uniforms, cells, score lookups (on a copy of
    the cells, which they rewrite in place) and losses."""
    fv, fl, sampler, _ = mc_loss_instance()
    rng, table = np.random.default_rng(71), _cell_scores(fv, fl).ravel()
    uniforms = rng.random((blocks, _CHUNK_ENTRIES // sampler.n, sampler.n))
    cells = [sampler._table_cells(u) for u in uniforms]
    scores = [table.take(sampler._pair_cells(c.copy())) for c in cells]
    u, c, s = (itertools.cycle(parts) for parts in (uniforms, cells, scores))
    yield "block uniforms", lambda: rng.random(out=next(u))
    yield "block cells", lambda: sampler._table_cells(next(u))
    yield "block score lookups", lambda: table.take(sampler._pair_cells(next(c).copy()))
    yield "block losses", lambda: _triple_losses(next(s), *_TRIPLE_COLUMNS, sampler.n // 3)


def resample_compare_instance():
    """The first seed's induced joint, teacher and training config, by
    the suite's own recipe, and the suite's mixing weight."""
    params = SUITES["resample-compare"].defaults
    induced, _, teacher, cfg = _resample_instance(params, 0)
    return induced, teacher, cfg, params["mixing_weight"]


def resample_draw_case():
    """(name, one draw of a sampled ``resample-compare`` run, its batch
    count) on the first seed's pruned joint, the support training samples."""
    induced, _, cfg, _ = resample_compare_instance()
    norm = normalize_cooccurrence(induced)
    pruned = JointDistribution.from_counts(induced.matrix[np.ix_(norm.visual_index, norm.language_index)])
    sampler, count = BatchSampler(pruned, cfg.batch_size), cfg.max_steps
    return "draw_chunk resample-compare", lambda: sampler.draw_chunk(np.random.default_rng(71), count), count


def main() -> int:
    for name, fn in single_batch_cases():
        print(f"{name:36s} {per_call_us(fn, 2000):9.2f} us")
    for name, batches, count in (*mc_loss_cases(), resample_draw_case()):
        print(f"{name + ' per batch':36s} {per_call_us(batches, 1) / count:9.2f} us")
    for name, part in mc_block_parts():
        print(f"{name:36s} {per_call_us(part, 256):9.2f} us")
    induced, teacher, cfg, weight = resample_compare_instance()
    for name in ("baseline",) + STRATEGIES:
        resample = None if name == "baseline" else ResampleConfig(name, mixing_weight=weight)
        run = lambda resample=resample: train_sscl(induced, cfg, resample, teacher)  # noqa: E731
        run()
        step = per_call_us(run, 1) / cfg.max_steps
        print(f"{'train_sscl step ' + name:36s} {step:9.2f} us")
    return 0


if __name__ == "__main__":
    sys.exit(main())
