"""Figure 9 rerun over the segmented corpus architecture.

The paper's scalability experiment replicates WSJ 0.5x-4x and watches
query time grow; this module reruns that sweep with the corpus sharded
into 1/2/4/8 independent segments, run one after another.  Two views:

* a **scaling series** per Figure 9 query: the single-segment engine
  (the pre-segmentation baseline configuration) and the 8-segment
  engine across every replication factor;
* a **segment sweep** at the largest factor, showing what each extra
  shard adds in per-shard constant costs.

Acceptance: every configuration must agree on every result size.  The
timings are recorded, not asserted: segments exist for pruning and for
a live corpus's delta tiers, not for speed, so on the corpus sizes CI
can afford sharding shows its per-shard constant costs.
Results also land in machine-readable ``BENCH_segments.json`` so CI can
track the trajectory across commits.
"""

from repro.bench import by_id, datasets
from repro.bench.harness import paper_timing
from repro.bench.report import scaling_table

FACTORS = (0.5, 1.0, 2.0, 4.0)
FIGURE9_QUERIES = (3, 6, 11)
SEGMENT_SWEEP = (1, 2, 4, 8)
#: The sharded configuration the headline series tracks.
SEGMENTS = 8


def _timed(engine, query: str, repeats: int) -> tuple[float, int]:
    engine.count(query)  # warm the plan cache; time execution only
    return paper_timing(lambda: engine.count(query), repeats)


def _engine(factor: float, segments: int):
    return datasets.lpath_engine("wsj", factor, segments=segments)


def test_fig9_segment_scaling(benchmark, write_result, write_json, repeats):
    configs = {"1seg": 1, f"{SEGMENTS}seg": SEGMENTS}

    sections, json_series = [], {}
    totals = {name: 0.0 for name in configs}
    for qid in FIGURE9_QUERIES:
        query = by_id(qid).lpath
        series = {name: [] for name in configs}
        sizes = {}
        for factor in FACTORS:
            for name, segments in configs.items():
                seconds, size = _timed(
                    _engine(factor, segments), query, repeats
                )
                series[name].append((factor, seconds))
                sizes.setdefault(factor, size)
                assert size == sizes[factor], (
                    f"{name} disagrees on Q{qid} at {factor}x: "
                    f"{size} vs {sizes[factor]}"
                )
                if factor == FACTORS[-1]:
                    totals[name] += seconds
        sections.append(
            scaling_table(series, f"Figure 9 Q{qid}: time (s) vs scale, segmented")
        )
        json_series[f"Q{qid}"] = {
            name: [
                {"factor": factor, "seconds": seconds}
                for factor, seconds in points
            ]
            for name, points in series.items()
        }

    # Segment sweep at the largest factor.
    sweep_query = by_id(FIGURE9_QUERIES[-1]).lpath
    sweep_rows, json_sweep = [], []
    for segments in SEGMENT_SWEEP:
        seconds, size = _timed(
            _engine(FACTORS[-1], segments), sweep_query, repeats
        )
        sweep_rows.append(
            f"  segments={segments:<2d} {seconds:10.5f}s  ({size} rows)"
        )
        json_sweep.append({"segments": segments, "seconds": seconds})
    sections.append(
        f"Segment sweep at {FACTORS[-1]:g}x "
        f"(Q{FIGURE9_QUERIES[-1]}):\n" + "\n".join(sweep_rows)
    )

    summary = "".join(
        f"\n{name}: {seconds:.5f}s at {FACTORS[-1]:g}x (sum of "
        f"Q{'/Q'.join(str(q) for q in FIGURE9_QUERIES)})"
        for name, seconds in totals.items()
    )
    write_result(
        "fig9_segments.txt", "\n\n".join(sections) + "\n" + summary
    )
    write_json(
        "segments",
        {
            "configs": {
                name: {"segments": segments}
                for name, segments in configs.items()
            },
            "scaling": json_series,
            "segment_sweep": json_sweep,
            "totals_at_largest_factor": totals,
        },
    )

    # Regression benchmark: the sharded engine on the largest dataset.
    sharded = _engine(FACTORS[-1], SEGMENTS)
    benchmark(lambda: sharded.count(sweep_query))
