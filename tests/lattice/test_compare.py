"""The comparison campaign runner, end to end on small scenarios."""

import pytest

from repro.errors import ConfigurationError
from repro.lattice import compare, lattice_config
from repro.runtime.store import ResultStore


class TestValidation:
    def test_no_detectors_rejected(self):
        with pytest.raises(ConfigurationError, match="no detectors"):
            compare(detectors=[])

    def test_unknown_detector_rejected(self):
        with pytest.raises(ConfigurationError, match="registered detectors"):
            compare(detectors=["psychic"])

    def test_params_for_unselected_detector_rejected(self):
        with pytest.raises(ConfigurationError, match="unselected"):
            compare(detectors=["perfect"],
                    detector_params={"omega": {}})

    def test_nonpositive_seeds_rejected(self):
        with pytest.raises(ConfigurationError, match="seeds"):
            compare(detectors=["perfect"], seeds=0)

    def test_default_detectors_are_the_seven_in_registry_order(self):
        # ``extracted`` is left out, so the default lattice's output and
        # cost stay as pinned.
        from repro.lattice.compare import DEFAULT_DETECTORS
        from repro.oracles.registry import REGISTRY

        assert DEFAULT_DETECTORS == (
            "eventually_perfect", "perfect", "trusting", "strong",
            "eventually_strong", "omega", "flawed_cm")
        assert [n for n in REGISTRY if n in DEFAULT_DETECTORS] == \
            list(DEFAULT_DETECTORS)

    def test_lattice_config_is_benign_chaos(self):
        cfg = lattice_config("omega", graphs=("ring:6",), seeds=4, seed=0,
                             max_time=600.0, client="periodic",
                             drop_max=0.1, pairs="all")
        assert cfg.detector == "omega"
        assert cfg.partition_prob == 0.0 and cfg.duplicate_max == 0.0


class TestCompare:
    # Two detectors are enough to exercise the full pipeline: the
    # positive reference (◇P) and the corrigendum's negative one.
    NAMES = ["eventually_perfect", "flawed_cm"]

    def run(self, **kw):
        kw.setdefault("graphs", ("ring:4",))
        kw.setdefault("seeds", 2)
        kw.setdefault("max_time", 400.0)
        return compare(detectors=self.NAMES, **kw)

    def test_canonical_verdict_shape(self):
        res = self.run()
        dp = res.row("eventually_perfect")
        flawed = res.row("flawed_cm")
        assert dp.ewx_ok and dp.accuracy_ok
        assert not flawed.ewx_ok and flawed.ewx_failures
        assert not flawed.accuracy_ok
        assert flawed.violations_total > 0

    def test_identical_scenarios_across_detectors(self):
        # The detector knob must not perturb scenario generation: both
        # rows see the same (graph, seed) cells.
        res = self.run()
        keys = [[(c.graph, c.run_seed) for c in r.cells] for r in res.rows]
        assert keys[0] == keys[1]

    def test_parallel_is_bit_identical_to_serial(self):
        serial = self.run()
        parallel = self.run(workers=2)
        assert serial.to_records() == parallel.to_records()
        assert serial.render() == parallel.render()

    def test_store_resume_serves_cached_cells(self, tmp_path):
        path = tmp_path / "lattice.store.jsonl"
        first = compare(detectors=["perfect"], graphs=("ring:4",),
                        seeds=2, max_time=400.0,
                        store=ResultStore(path))
        store = ResultStore(path)
        again = compare(detectors=["perfect"], graphs=("ring:4",),
                        seeds=2, max_time=400.0, store=store, resume=True)
        assert store.stats().get("store.hits", 0) >= 2
        assert first.to_records() == again.to_records()

    def test_on_result_streams_completions(self):
        seen = []
        self.run(on_result=lambda name, i, v, cached:
                 seen.append((name, i, cached)))
        assert len(seen) == 4  # 2 detectors x 2 seeds
        assert {n for n, _, _ in seen} == set(self.NAMES)

    def test_detector_params_flow_through(self):
        res = compare(detectors=["eventually_perfect"], graphs=("ring:4",),
                      seeds=1, max_time=400.0,
                      detector_params={"eventually_perfect":
                                       {"initial_timeout": 30}})
        base = compare(detectors=["eventually_perfect"], graphs=("ring:4",),
                       seeds=1, max_time=400.0)
        tuned_cell = res.rows[0].cells[0]
        base_cell = base.rows[0].cells[0]
        # A slower initial timeout cannot *increase* wrongful suspicions.
        assert tuned_cell.wrongful_suspicions \
            <= base_cell.wrongful_suspicions
