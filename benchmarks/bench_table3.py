"""Benchmark: regenerate Table III (total / invalid checkpoints) at
reduced scale (6 workers, 20 s, q3 + q12, failure at 8 s)."""
from repro.core.harness import sweep
from repro.core.tables import table23_configs


def run_grid():
    cfgs = table23_configs(workers=(6,), queries=("q3", "q12"), duration=20.0,
                           fail_at=8.0)
    return sweep(cfgs)


def test_table3_invalid(benchmark):
    pdf = benchmark.pedantic(run_grid, rounds=1, iterations=1).set_index(
        ["query", "protocol"]
    )
    for q in ("q3", "q12"):
        assert pdf.loc[(q, "COOR"), "invalid"] == 0
        assert pdf.loc[(q, "UNC"), "ckpt_total"] > pdf.loc[(q, "COOR"), "ckpt_total"]
        unc_pct = pdf.loc[(q, "UNC"), "invalid"] / pdf.loc[(q, "UNC"), "ckpt_total"]
        assert 0 <= unc_pct < 0.15
