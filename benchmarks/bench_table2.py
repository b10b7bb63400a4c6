"""Benchmark: regenerate Table II (message-overhead ratios) at reduced
scale (6 workers, 20 s, q1 + q12)."""
from repro.core.harness import sweep
from repro.core.tables import table23_configs


def run_grid():
    cfgs = table23_configs(workers=(6,), queries=("q1", "q12"), duration=20.0,
                           fail_at=8.0)
    return sweep(cfgs)


def test_table2_overhead(benchmark):
    pdf = benchmark.pedantic(run_grid, rounds=1, iterations=1)
    pdf = pdf.assign(ratio=pdf.total_bytes / pdf.data_bytes).set_index(
        ["query", "protocol"]
    )
    for q in ("q1", "q12"):
        assert pdf.loc[(q, "CIC"), "ratio"] > 1.5       # CIC piggyback dominates
        assert pdf.loc[(q, "UNC"), "ratio"] < 1.03      # UNC ~free
        assert pdf.loc[(q, "COOR"), "ratio"] < 1.05     # markers ~free
