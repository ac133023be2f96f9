"""Driver-contract checks: every queries() entry with an oracle must match
DuckDB row-for-row (order-insensitive, columns sorted by name), mimicking
the driver's CORRECTNESS comparison; rows-only entries must run and
return a well-formed frame."""

import duckdb
import pandas as pd
import pytest

import __ray_entry__ as entrymod

SF = "/root/testdata/sf0.001"
TABLES = ["region", "nation", "customer", "supplier", "part", "orders",
          "lineitem", "events", "documents", "embeddings"]


def _con():
    con = duckdb.connect()
    for t in TABLES:
        con.sql(f"CREATE VIEW {t} AS SELECT * FROM '{SF}/{t}.parquet'")
    return con


def _to_df(res) -> pd.DataFrame:
    if isinstance(res, pd.DataFrame):
        return res
    if hasattr(res, "to_pandas"):
        return res.to_pandas()
    raise TypeError(type(res))


def _norm(df: pd.DataFrame) -> pd.DataFrame:
    df = df.copy()
    df = df[sorted(df.columns)]
    for c in df.columns:
        if pd.api.types.is_integer_dtype(df[c]):
            df[c] = df[c].astype("int64")
        elif pd.api.types.is_datetime64_any_dtype(df[c]):
            df[c] = df[c].astype("datetime64[us]")
        elif df[c].dtype == object:
            df[c] = df[c].astype(str)
    return df.sort_values(list(df.columns)).reset_index(drop=True)


ORACLE_NAMES = sorted(entrymod.oracle_sql().keys())
ROWS_ONLY = sorted(set(entrymod.queries()) - set(ORACLE_NAMES))


def test_every_oracle_has_a_query():
    assert set(ORACLE_NAMES) <= set(entrymod.queries())


@pytest.mark.parametrize("name", ORACLE_NAMES)
def test_query_matches_oracle(ray_session, name):
    raw = _to_df(entrymod.queries()[name](SF))
    con = _con()
    want_raw = con.sql(entrymod.oracle_sql()[name]).df()
    # dtype-class parity (r4 verdict): the driver's value hash is
    # dtype-sensitive, so an engine float column where the oracle
    # emits integers (the embedding_dedup float64-upcast bug class)
    # must fail HERE, not only in the driver run.  Columns that are
    # float on BOTH sides (quantile_cont interpolation etc.) are fine.
    mismatched = [
        c for c in set(raw.columns) & set(want_raw.columns)
        if pd.api.types.is_float_dtype(raw[c])
        != pd.api.types.is_float_dtype(want_raw[c])]
    assert not mismatched, (name, mismatched)
    got = _norm(raw)
    want = _norm(want_raw)
    assert len(got) == len(want), (name, len(got), len(want))
    assert list(got.columns) == list(want.columns), name
    pd.testing.assert_frame_equal(got, want, check_dtype=False)


@pytest.mark.parametrize("name", ROWS_ONLY)
def test_rows_only_query_runs(ray_session, name):
    df = _to_df(entrymod.queries()[name](SF))
    assert df is not None
    assert len(df) >= 0


def test_collect_empty_pandas_blocks(ray_session):
    """_collect must keep names/types for an EMPTY pandas-block dataset
    (PandasBlockSchema has no empty_table; object dtype -> string)."""
    import ray

    src = pd.DataFrame({"doc_a": [1], "doc_b": [2], "text": ["x"]})
    ds = ray.data.from_pandas(src).map_batches(
        lambda df: df[df.doc_a > 99], batch_format="pandas")
    tab = entrymod._collect(ds)
    assert tab.num_rows == 0
    assert tab.schema.names == ["doc_a", "doc_b", "text"]
    assert tab.schema.field("text").type == "string"
    assert tab.schema.field("doc_a").type == "int64"


def test_copartition_by_key_matches_merge(ray_session):
    """_copartition_by_key + a probe kernel must reproduce an inner
    join-aggregate done by pandas merge, including keys present on
    only one side and multi-row left keys."""
    import numpy as np
    import pandas as pd
    import ray

    rng = np.random.default_rng(7)
    left = pd.DataFrame({
        "k": rng.integers(0, 40, 300).astype(np.int64),
        "v": rng.integers(1, 100, 300).astype(np.int64)})
    # right side: unique keys 10..49 -> some left keys unmatched
    right = pd.DataFrame({
        "k": np.arange(10, 50, dtype=np.int64),
        "v": np.arange(10, 50, dtype=np.int64) * 1000})

    def kern(g):
        side = g["_side"].to_numpy()
        ln, od = g[side == 0], g[side == 1]
        if not len(ln) or not len(od):
            return pd.DataFrame({
                "g": pd.Series([], dtype=np.int64),
                "s": pd.Series([], dtype=np.int64)})
        lk = ln["k"].to_numpy(np.int64)
        hit, attr = entrymod._probe_orders(od, lk, "v")
        sub = pd.DataFrame({
            "g": attr[hit] % 7,
            "s": ln["v"].to_numpy(np.int64)[hit]})
        return sub.groupby("g", as_index=False, sort=False)["s"].sum()

    got = entrymod._copartition_by_key(
        ray.data.from_pandas(left).map_batches(
            lambda t: t, batch_format="pyarrow"),
        ray.data.from_pandas(right).map_batches(
            lambda t: t, batch_format="pyarrow"),
        kern).to_pandas().groupby("g", as_index=False)["s"].sum()

    j = left.merge(right.rename(columns={"v": "rv"}), on="k")
    want = (pd.DataFrame({"g": j["rv"] % 7, "s": j["v"]})
            .groupby("g", as_index=False)["s"].sum())
    pd.testing.assert_frame_equal(
        got.sort_values("g").reset_index(drop=True),
        want.sort_values("g").reset_index(drop=True),
        check_dtype=False)


def test_dense_probe_paths():
    """_probe_positions must agree with searchsorted on dense keys
    (direct-offset fast path) and take the binary-search fallback on
    gapped keys."""
    import numpy as np

    dense = np.arange(5, 15, dtype=np.int64)
    assert entrymod._dense_base(dense) == 5
    p = np.array([5, 9, 14], np.int64)
    got = entrymod._probe_positions(dense, entrymod._dense_base(dense), p)
    assert (got == np.searchsorted(dense, p)).all()

    gapped = np.array([2, 5, 9, 40], np.int64)
    assert entrymod._dense_base(gapped) is None
    q = np.array([2, 9, 40], np.int64)
    got2 = entrymod._probe_positions(gapped, None, q)
    assert (got2 == np.searchsorted(gapped, q)).all()


def test_entry_smoke(ray_session):
    df = entrymod.entry()
    assert len(df) > 0
    assert {"sink", "severity", "doc_count"} <= set(df.columns)


def test_bench_list_and_coverage_complete():
    """Guard the cross-file contracts: every BENCH_QUERIES name is a
    real queries() entry, and every queries() entry is mapped in
    COVERAGE.md (q:NAME marker)."""
    import ast
    import pathlib

    import __ray_entry__ as m

    root = pathlib.Path(__file__).resolve().parent.parent
    tree = ast.parse((root / "bench.py").read_text())
    names = None
    for node in ast.walk(tree):
        if (isinstance(node, ast.Assign)
                and getattr(node.targets[0], "id", "") == "BENCH_QUERIES"):
            names = [ast.literal_eval(e) for e in node.value.elts]
    qs = set(m.queries())
    assert names and not set(names) - qs, sorted(set(names) - qs)
    cov = (root / "COVERAGE.md").read_text()
    unmapped = [q for q in sorted(qs) if f"q:{q}" not in cov]
    assert not unmapped, unmapped


def test_harness_imports_resolve():
    """scale_proof.py and bench.py import library names inside their
    mode functions, so a deleted name would only fail when that mode
    runs.  An AST scan: every name they import from the package must
    exist.  Needs no Ray session."""
    import ast
    import importlib
    import pathlib

    root = pathlib.Path(__file__).resolve().parent.parent
    missing, n = [], 0
    for script in ("scale_proof.py", "bench.py"):
        tree = ast.parse((root / script).read_text())
        for node in ast.walk(tree):
            if (isinstance(node, ast.ImportFrom) and node.module
                    and node.module.split(".")[0]
                    == "ci_log_processing_ray"):
                mod = importlib.import_module(node.module)
                for alias in node.names:
                    n += 1
                    if not hasattr(mod, alias.name):
                        missing.append(f"{script}:{node.lineno} "
                                       f"{node.module}.{alias.name}")
    assert n > 0
    assert not missing, missing


def test_log_path_imports_no_pandas():
    """The log path (stages, functions, pipelines, state, sources) runs
    on Arrow and numpy alone.  An AST scan of its sources, not
    sys.modules: ray.data imports pandas itself."""
    import ast
    import pathlib

    pkg = pathlib.Path(__file__).resolve().parent.parent / \
        "ci_log_processing_ray"
    found = []
    for sub in ("stages", "functions", "pipelines", "state", "sources"):
        for path in sorted((pkg / sub).rglob("*.py")):
            for node in ast.walk(ast.parse(path.read_text())):
                names = ([a.name for a in node.names]
                         if isinstance(node, ast.Import) else
                         [node.module or ""]
                         if isinstance(node, ast.ImportFrom) else [])
                if any(n.split(".")[0] == "pandas" for n in names):
                    found.append(f"{sub}/{path.name}:{node.lineno}")
    assert not found, found
