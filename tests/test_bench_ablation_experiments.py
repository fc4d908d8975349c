"""Data contracts of the weak-scaling and granularity experiments."""

from __future__ import annotations

import pytest

from repro.bench.experiments import run_granularity, run_weak_scaling
from repro.ccl.run_based import extract_runs
from repro.data.synthetic import granularity


@pytest.fixture(scope="module")
def weak():
    return run_weak_scaling(base_rows=32, cols=96)


@pytest.fixture(scope="module")
def gran():
    return run_granularity(scale=0.02)


class TestWeakScaling:
    def test_efficiency_bounds(self, weak):
        effs = weak.data["efficiency"]
        assert effs[1] == pytest.approx(1.0)
        for t, e in effs.items():
            assert 0.0 < e <= 1.0 + 1e-9, t

    def test_efficiency_decays_monotonically(self, weak):
        effs = weak.data["efficiency"]
        ts = sorted(effs)
        vals = [effs[t] for t in ts]
        assert vals == sorted(vals, reverse=True)

    def test_flatten_share_grows(self, weak):
        share = weak.data["flatten_share"]
        ts = sorted(share)
        vals = [share[t] for t in ts]
        assert vals == sorted(vals)

    def test_decay_is_explained_by_flatten(self, weak):
        """Efficiency loss and flatten share must agree to first order
        (Amdahl: eff ~ 1 - serial share)."""
        effs = weak.data["efficiency"]
        share = weak.data["flatten_share"]
        for t in effs:
            assert effs[t] == pytest.approx(1.0 - share[t], abs=0.12)

    def test_rendered_rows(self, weak):
        assert len(weak.rows) == len(weak.data["efficiency"])
        assert "Efficiency" in weak.headers


class TestGranularity:
    def test_merge_density_monotone(self, gran):
        gs = sorted(gran.data)
        for key in ("merges_px_dtree", "merges_px_tworow"):
            vals = [gran.data[g][key] for g in gs]
            assert vals == sorted(vals, reverse=True), key

    def test_runs_per_px_counts_row_runs(self, gran):
        # row runs / pixels, independent of how the labeling engine
        # groups runs into provisional ids; scale=0.02 draws 80x80 images
        img = granularity((80, 80), density=0.5, block=1, seed=5)
        assert gran.data[1]["runs_per_px"] == (
            len(extract_runs(img)[0]) / img.size
        )

    def test_run_density_monotone(self, gran):
        gs = sorted(gran.data)
        vals = [gran.data[g]["runs_per_px"] for g in gs]
        assert vals == sorted(vals, reverse=True)

    def test_component_count_falls(self, gran):
        gs = sorted(gran.data)
        counts = [gran.data[g]["components"] for g in gs]
        assert counts[0] > counts[-1]

    def test_tworow_reads_always_below_dtree(self, gran):
        for g, rec in gran.data.items():
            assert rec["reads_px_tworow"] <= rec["reads_px_dtree"], g
