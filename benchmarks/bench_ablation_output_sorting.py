"""Ablation — input-side vs output-side disorder handling (paper footnote 2).

The paper sorts *inputs* before the join.  The alternative it discusses:
let an out-of-order-tolerating join emit results as they come and sort
the *result* stream with a bounded buffer, discarding results that are
still out of order (to preserve the in-order output contract).

This ablation replays (D×3syn, Q×3) under matched buffer sizes K for the
two architectures and compares recall:

* input-side: K-slack(K) per stream + Synchronizer + Alg. 2 join, i.e.
  the pipeline under a fixed K;
* output-side: raw disordered feed into a probe-everything join, then a
  ResultSorter(K) on the result stream.

Expected: output-side sorting recovers late results that Alg. 2 would
drop (probing never skips), but pays for it with state/probing on stale
windows and with discarded results whenever the result stream's own
disorder exceeds K; input-side handling dominates at equal K once delays
are significant — the paper's architectural choice.
"""

from common import experiment, report

from repro import MSWJOperator, QualityDrivenPipeline, replay
from repro.core.result_sorter import ResultSorter
from repro.workloads import fixed_k_config

BUFFER_SIZES_MS = (0, 500, 2_000, 5_000)


def _input_side(dataset, windows, condition, k_ms):
    pipeline = QualityDrivenPipeline(fixed_k_config(k_ms, windows, condition))
    return replay(pipeline, dataset.arrivals())


def _output_side(dataset, windows, condition, k_ms):
    op = MSWJOperator(windows, condition, probe_out_of_order=True)
    sorter = ResultSorter(k_ms)
    # The operator's batch is its per-tuple outputs, concatenated.
    results = op.process_batch(list(dataset.arrivals()))
    delivered = sum(len(sorter.process(result)) for result in results)
    return delivered + len(sorter.flush()), sorter.discarded


def _sweep():
    exp = experiment("d3")
    dataset = exp.dataset()
    truth_total = exp.truth().index.total
    rows = []
    for k_ms in BUFFER_SIZES_MS:
        in_count = _input_side(dataset, exp.window_sizes_ms, exp.condition, k_ms)
        out_count, discarded = _output_side(
            dataset, exp.window_sizes_ms, exp.condition, k_ms
        )
        rows.append(
            (
                k_ms / 1000.0,
                f"{in_count / truth_total:.3f}",
                f"{out_count / truth_total:.3f}",
                discarded,
            )
        )
    return rows, truth_total


def test_ablation_output_sorting(benchmark):
    rows, truth_total = benchmark.pedantic(_sweep, rounds=1, iterations=1)
    report(
        "ablation_output_sorting",
        f"Ablation — input-side vs output-side sorting, (D3syn, Q3), truth={truth_total}",
        ["K (s)", "input-side recall", "output-side recall", "results discarded"],
        rows,
    )
    # Both recalls must be valid fractions and grow with K.
    input_recalls = [float(r[1]) for r in rows]
    output_recalls = [float(r[2]) for r in rows]
    assert all(0.0 <= r <= 1.0 for r in input_recalls + output_recalls)
    assert input_recalls[-1] >= input_recalls[0]
    assert output_recalls[-1] >= output_recalls[0]
    # At a generous buffer both approaches approach full recall.
    assert input_recalls[-1] > 0.95
    assert output_recalls[-1] > 0.9
