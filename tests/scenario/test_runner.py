"""The WorkloadRunner: presets, dispatch, and the soak shim."""

import pytest

from repro.errors import VOError
from repro.hardening.soak import SoakConfig, chaos_soak
from repro.scenario.experiments import MatrixConfig
from repro.scenario.runner import WorkloadPreset, WorkloadRunner


class TestRegistry:
    def test_default_presets(self):
        runner = WorkloadRunner()
        assert runner.names() == [
            "cheater-isolation", "scarcity", "scenario", "soak",
            "two-agent-matrix",
        ]

    def test_preset_lookup(self):
        runner = WorkloadRunner()
        preset = runner.preset("soak")
        assert preset.config_type is SoakConfig
        with pytest.raises(VOError, match="unknown workload"):
            runner.preset("bake-off")

    def test_duplicate_register_rejected(self):
        runner = WorkloadRunner()
        with pytest.raises(VOError, match="duplicate"):
            runner.register(WorkloadPreset(
                name="soak", config_type=SoakConfig,
                description="again", run=lambda config: None,
            ))

    def test_custom_preset_runs(self):
        runner = WorkloadRunner(presets=())
        runner.register(WorkloadPreset(
            name="echo", config_type=MatrixConfig,
            description="echo the config",
            run=lambda config: config.seed,
        ))
        assert runner.run("echo", seed=9) == 9
        assert runner.run(MatrixConfig(seed=11)) == 11


class TestDispatch:
    def test_run_by_name_with_overrides(self):
        report = WorkloadRunner().run(
            "two-agent-matrix", seed=1, rounds=5,
        )
        assert report.seed == 1 and report.rounds == 5

    def test_run_by_config_instance(self):
        report = WorkloadRunner().run(MatrixConfig(seed=2, rounds=4))
        assert report.seed == 2 and report.rounds == 4

    def test_instance_plus_overrides_rejected(self):
        with pytest.raises(VOError, match="overrides"):
            WorkloadRunner().run(MatrixConfig(seed=2), rounds=4)

    def test_unknown_config_type_rejected(self):
        with pytest.raises(VOError, match="no workload preset"):
            WorkloadRunner().run(object())

    def test_bad_override_reports_workload(self):
        with pytest.raises(VOError, match="two-agent-matrix"):
            WorkloadRunner().config("two-agent-matrix", bogus=True)

    def test_config_builds_with_overrides(self):
        config = WorkloadRunner().config("soak", seed=3, negotiations=7)
        assert isinstance(config, SoakConfig)
        assert (config.seed, config.negotiations) == (3, 7)


class TestSoakPreset:
    def test_soak_is_a_preset(self):
        report = WorkloadRunner().run(
            "soak", seed=7, negotiations=10, roles=2,
        )
        assert report.ok, [v.to_dict() for v in report.violations]

    def test_entry_function_matches_runner(self):
        """The soak's entry function, called directly, produces the
        report the runner preset does."""
        config = SoakConfig(seed=7, negotiations=10, roles=2)
        direct = chaos_soak(config)
        modern = WorkloadRunner().run(config)
        assert direct.to_json() == modern.to_json()

    def test_runner_path_does_not_warn(self):
        import warnings

        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            WorkloadRunner().run("soak", seed=7, negotiations=5, roles=2)
