"""One front door for every long-running workload.

:class:`WorkloadRunner` generalizes what used to be the chaos soak's
private driver: each workload is a :class:`WorkloadPreset` — a name, a
kw-only config dataclass, and a run function returning a report with
``ok``/``to_dict``/``to_json``.  The chaos soak itself is now just the
``"soak"`` preset; the open-world scenario engine and the exemplar
experiments register alongside it.

Dispatch is by preset name (config built from keyword overrides) or by
config instance (matched on its exact type)::

    runner = WorkloadRunner()
    report = runner.run("soak", seed=7, negotiations=500)
    report = runner.run(ScenarioConfig(seed=42, rounds=24, agents=12))

The soak preset runs :func:`repro.hardening.soak.chaos_soak`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Optional

from repro.errors import VOError
from repro.hardening.soak import SoakConfig, chaos_soak
from repro.scenario.engine import ScenarioConfig, run_scenario
from repro.scenario.experiments import (
    IsolationConfig,
    MatrixConfig,
    ScarcityConfig,
    cheater_isolation,
    scarcity_market,
    two_agent_matrix,
)

__all__ = ["WorkloadPreset", "WorkloadRunner"]


@dataclass(frozen=True)
class WorkloadPreset:
    """One runnable workload: its name, config type, and driver."""

    name: str
    config_type: type
    description: str
    run: Callable[[Any], Any]


def _default_presets() -> tuple[WorkloadPreset, ...]:
    return (
        WorkloadPreset(
            name="soak",
            config_type=SoakConfig,
            description=(
                "Chaos soak: thousands of negotiations under mixed "
                "network/adversarial faults with invariant checking"
            ),
            run=chaos_soak,
        ),
        WorkloadPreset(
            name="scenario",
            config_type=ScenarioConfig,
            description=(
                "Open-world VO lifecycle: agent market, TN-gated "
                "churn, cheater detection and isolation"
            ),
            run=run_scenario,
        ),
        WorkloadPreset(
            name="two-agent-matrix",
            config_type=MatrixConfig,
            description=(
                "Strategy x strategy haggling matrix "
                "(Fair/Adaptive close, Greedy/Patient deadlock)"
            ),
            run=two_agent_matrix,
        ),
        WorkloadPreset(
            name="scarcity",
            config_type=ScarcityConfig,
            description=(
                "5-agent scarce market with a rush-hour demand spike"
            ),
            run=scarcity_market,
        ),
        WorkloadPreset(
            name="cheater-isolation",
            config_type=IsolationConfig,
            description=(
                "Cheater detected and isolated by decentralized "
                "reputation on the real TN admission path"
            ),
            run=cheater_isolation,
        ),
    )


class WorkloadRunner:
    """Registry + dispatcher over :class:`WorkloadPreset` workloads."""

    def __init__(
        self, presets: Optional[tuple[WorkloadPreset, ...]] = None
    ) -> None:
        self._presets: dict[str, WorkloadPreset] = {}
        for preset in (presets if presets is not None
                       else _default_presets()):
            self.register(preset)

    def register(self, preset: WorkloadPreset) -> None:
        if preset.name in self._presets:
            raise VOError(f"duplicate workload preset {preset.name!r}")
        self._presets[preset.name] = preset

    def names(self) -> list[str]:
        return sorted(self._presets)

    def preset(self, name: str) -> WorkloadPreset:
        try:
            return self._presets[name]
        except KeyError:
            known = ", ".join(self.names())
            raise VOError(
                f"unknown workload {name!r}; choose from {known}"
            ) from None

    def config(self, name: str, **overrides: Any) -> Any:
        """Build the preset's config with keyword overrides applied."""
        preset = self.preset(name)
        try:
            return preset.config_type(**overrides)
        except TypeError as exc:
            raise VOError(
                f"bad overrides for workload {name!r} "
                f"({preset.config_type.__name__}): {exc}"
            ) from exc

    def run(self, workload: Any, /, **overrides: Any) -> Any:
        """Run a workload by preset name or by config instance.

        A name builds the preset's config from ``overrides``; a config
        instance dispatches on its exact type (no overrides — the
        config already says everything).
        """
        if isinstance(workload, str):
            return self.preset(workload).run(
                self.config(workload, **overrides)
            )
        if overrides:
            raise VOError(
                "overrides only apply when running a workload by "
                "name; pass a fully-built config instead"
            )
        for preset in self._presets.values():
            if type(workload) is preset.config_type:
                return preset.run(workload)
        known = ", ".join(
            preset.config_type.__name__
            for preset in self._presets.values()
        )
        raise VOError(
            f"no workload preset accepts a "
            f"{type(workload).__name__}; known configs: {known}"
        )
