"""Query-vs-DuckDB-oracle parity spot checks at sf0.001 (the driver runs the
full matrix at sf0.01; this keeps the contract pinned in CI)."""

import os

import duckdb
import pandas as pd
import pyarrow as pa
import pytest

SF = "/root/testdata/sf0.001"
TABLES = "region nation customer supplier part orders lineitem events documents embeddings".split()

# fast, representative subset — one per operator family
SPOT = [
    "cdc_lww_merge",
    "cdc_merge_apply",
    "pricing_summary",
    "order_customer_join",
    "exact_dedup",
    "token_count",
    "lang_id",
    "ann_topk",
    "sessionize",
    "hourly_rollup",
    "word_match_domain",
    "falsy_normalize",
    "transcripts_replay",  # the flagship — relational LWW oracle
    "simhash_signatures",  # crc32+bit-vote recomputed in SQL
    "rolling_fingerprint",  # Karp-Rabin poly recomputed in SQL
    "asof_join_orders",  # co-bucketed as-of join vs DuckDB ASOF
    "range_join_events",  # interval join vs inequality-join SQL
    "group_quantiles_events",  # histogram quantile vs quantile_disc
    "hash_sample_docs",  # splitmix64 mixer recomputed in SQL
    "group_topk_docs",  # partial top-k vs QUALIFY row_number
    "bpe_token_count",  # shared RE2 pretokenizer pattern on both sides
    "hll_distinct_parts",  # integer-exact HLL sketch recomputed in SQL
    "asof_join_orders_broadcast",  # zero-shuffle broadcast as-of fast path
    "minhash_lsh_pairs",  # full MinHash-LSH pipeline recomputed in SQL
    "heavy_hitters_events",  # partial-count combiner vs QUALIFY top-k
    "group_sample_docs",  # stratified splitmix64 sample vs SQL mixer
    "dedup_components",  # hash-to-min CC vs recursive-CTE closure
    "neardup_dedup_docs",  # end-to-end near-dup survivor filter
    "multimodal_checksum",  # binary payload crc32 recomputed in SQL
    "multimodal_decode",  # PPM pixel-region mean recomputed byte-by-byte
    "multimodal_audio",  # WAV int16 reassembly + RMS in SQL
    "multimodal_frames",  # RV01 frame explode + per-frame mean in SQL
    "order_customer_join_shuffle",  # large-large co-bucketed acero hash join
    "tfidf_doc_terms",  # term explode + partial-df sum + term hash join
    "length_filter_docs",  # two-pass percentile threshold + stream filter
    "assemble_conversations",  # ordered group-concat into training docs
    "jsonl_ingest",  # JSON source -> typed Arrow vs read_json_auto
    "csv_ingest",  # CSV source with ""->NULL canonicalization
    "pivot_event_counts",  # long->wide partial pivot vs FILTER counts
    "unpivot_event_counts",  # wide->long explode vs UNPIVOT
    "semi_join_orders",  # bloom-prefiltered semi join vs WHERE IN
    "anti_join_customers",  # bloom-split anti join vs NOT EXISTS
    "events_lag",  # window LAG gap vs date_diff(lag())
    "rank_orders",  # rank/dense_rank window vs SQL windows
    "pack_sequences",  # per-lang prefix-scan token binning vs window cumsum
    "rollup_pricing",  # GROUP BY ROLLUP multi-level aggregate
]


@pytest.fixture(scope="module")
def con():
    c = duckdb.connect()
    for t in TABLES:
        c.execute(f"CREATE VIEW {t} AS SELECT * FROM '{SF}/{t}.parquet'")
    return c


def _norm(df: pd.DataFrame) -> pd.DataFrame:
    df = df[sorted(df.columns)]
    return df.sort_values(list(df.columns), ignore_index=True)


def _to_pandas(res):
    if isinstance(res, pa.Table):
        return res.to_pandas()
    if isinstance(res, pd.DataFrame):
        return res
    return res.to_pandas()


@pytest.mark.parametrize("name", SPOT)
def test_query_matches_oracle(ray_session, con, name):
    import __ray_entry__ as e

    got = _norm(_to_pandas(e.queries()[name](SF)))
    exp = _norm(con.sql(e.oracle_sql()[name]).df())
    pd.testing.assert_frame_equal(got, exp)


def test_all_queries_have_callables_and_run_metadata(ray_session):
    import __ray_entry__ as e

    qs, sqls = e.queries(), e.oracle_sql()
    assert len(qs) >= 25
    assert set(sqls) <= set(qs)
    # every SQL-expressible op has an oracle; the non-SQL set is the known one
    rows_only = set(qs) - set(sqls)
    assert rows_only == {
        "embedding_neardup",  # approximate — recall gate vs exact baseline
        "ann_topk_lsh",  # approximate — recall gate vs ann_topk
        "ann_topk_ivf",  # approximate — recall gate + index roundtrip
    }


def test_entry_smoke(ray_session):
    import __ray_entry__ as e

    res = e.entry()
    t = res if isinstance(res, pa.Table) else pa.Table.from_pandas(_to_pandas(res))
    assert t.num_rows > 0
    assert {"conv_id", "turn_idx", "text"} <= set(t.schema.names)


def test_ann_lsh_recall_gate(ray_session):
    """The approximate ANN path has a quantified quality gate: multiprobe
    LSH top-10 recall vs the exact brute-force top-10 must be >= 0.9 at the
    ann_topk_lsh query's default (bits=2, probes=3)."""
    import __ray_entry__ as e

    exact = set(e.queries()["ann_topk"](SF).to_pandas()["vec_id"])
    approx = set(e.queries()["ann_topk_lsh"](SF).to_pandas()["vec_id"])
    assert len(exact & approx) / len(exact) >= 0.9


def test_ann_ivf_recall_gate_and_index_roundtrip(ray_session, tmp_path):
    """The IVF path's quality gate: top-10 recall >= 0.9 vs the exact scan
    at the ann_topk_ivf defaults, and the PERSISTED centroid-partitioned
    index returns the identical result via directory-level read pruning."""
    import numpy as np
    import pyarrow.compute as pc
    import pyarrow.parquet as pq

    import __ray_entry__ as e
    from bcdc2bcdc_ray.functions import similarity
    from bcdc2bcdc_ray.pipelines.queries import _read

    exact = set(e.queries()["ann_topk"](SF).to_pandas()["vec_id"])
    approx_df = e.queries()["ann_topk_ivf"](SF).to_pandas()
    approx = set(approx_df["vec_id"])
    assert len(exact & approx) / len(exact) >= 0.9

    qtab = pq.read_table(f"{SF}/embeddings.parquet", columns=["vec_id", "embedding"])
    qvec = np.asarray(
        qtab.filter(pc.equal(qtab.column("vec_id"), 0)).column("embedding")[0].as_py()
    )
    ds = _read(SF, "embeddings", columns=["vec_id", "embedding"])
    idx_dir = str(tmp_path / "ivf")
    similarity.build_ivf_index(ds, idx_dir, n_centroids=8)
    hit = similarity.search_ivf_index(idx_dir, qvec, nprobe=5, k=10)
    got = sorted(hit.to_pandas()["vec_id"])
    live = sorted(
        similarity.topk_cosine_ivf(ds, qvec, n_centroids=8, nprobe=5, k=10)
        .to_pandas()["vec_id"]
    )
    assert got == live  # same centroids/seed → identical probed slice


def test_embedding_neardup_recall_gate(ray_session):
    """The banded-LSH near-dup path must find >= 0.9 of the exact quadratic
    baseline's pairs (OR-amplification recall gate; single-band was 0.41)."""
    import __ray_entry__ as e

    exact = e.queries()["embedding_neardup_exact"](SF).to_pandas()
    exact_pairs = set(zip(exact["a"], exact["b"]))
    approx = e.queries()["embedding_neardup"](SF)
    if hasattr(approx, "iter_batches"):  # now a Dataset (distributed verify)
        approx = approx.to_pandas()
    approx_pairs = set(zip(approx["a"].tolist(), approx["b"].tolist()))
    assert len(exact_pairs & approx_pairs) / max(len(exact_pairs), 1) >= 0.9
    # the verify stage is EXACT cosine, so precision must be 1: every
    # emitted pair is in the quadratic baseline (candidates only lose)
    assert approx_pairs <= exact_pairs


def test_neardup_distributed_plan_matches_oracle(ray_session, con, monkeypatch):
    """neardup_dedup_docs' distributed anti semi-join (``DRIVER_GATHER_BYTES=0``)
    against the same DuckDB oracle as the broadcast plan. The oracle keeps
    fewer rows than the corpus, so the drop set is non-empty and the zero
    budget really forces the distributed plan."""
    import __ray_entry__ as e

    exp = _norm(con.sql(e.oracle_sql()["neardup_dedup_docs"]).df())
    assert len(exp) < con.sql("SELECT count(*) FROM documents").fetchone()[0]
    monkeypatch.setenv("DRIVER_GATHER_BYTES", "0")
    got = _norm(_to_pandas(e.queries()["neardup_dedup_docs"](SF)))
    pd.testing.assert_frame_equal(got, exp)


def test_ngram_jaccard_crossover_paths_identical(ray_session, monkeypatch):
    """The gather-vs-distribute crossover in ngram_jaccard_pairs must be
    invisible in the result: the local verify (candidate payload under the
    cap) and the fully distributed attach return the same pairs and the
    same jaccard values."""
    from bcdc2bcdc_ray.pipelines import queries as Q

    sf = "/root/testdata/sf0.001"

    def run():
        return (
            _to_pandas(Q.queries()["ngram_jaccard_pairs"](sf))
            .sort_values(["a", "b"])
            .reset_index(drop=True)
        )

    monkeypatch.setenv("DRIVER_GATHER_BYTES", str(1 << 40))
    local = run()
    monkeypatch.setenv("DRIVER_GATHER_BYTES", "0")
    dist = run()
    assert len(local) == len(dist) > 0
    pd.testing.assert_frame_equal(local, dist)
